//! The benchmark's own seeded input generator.
//!
//! Everything the program under test sees is produced here from `--seed`
//! alone: protocol scripts for the serve workloads and CSV traces for the
//! batch workload. Nothing is borrowed from the program's generators
//! (`fjs loadgen`, `Scenario`, `fjs-prng`), so no later change to the
//! program can alter the workloads.

/// The eight registry kinds the sessions and batch runs cycle through.
pub const KINDS: [&str; 8] = [
    "eager", "lazy", "batch", "batch+", "cdb", "profit", "doubler", "semicdb",
];

/// Serve scripts: 64 sessions across 16 tenants.
pub const SESSIONS: usize = 64;
pub const TENANTS: usize = 16;
/// Jobs each session receives per script.
pub const JOBS_PER_SESSION: usize = 500;
/// Laxity factor: a job's slack is uniform in `[0, LAXITY · length]`.
pub const LAXITY: f64 = 2.0;
/// Per-session mean arrival rate (exponential inter-arrival gaps).
pub const SESSION_RATE: f64 = 1.0;

/// The hostile tenant of `serve-durable`: one `lazy` session whose jobs
/// never become due during the script, so its resident count only grows.
pub const HOSTILE_SID: &str = "hostile.s0";
/// One hostile offer after every this many ordinary job lines.
pub const HOSTILE_EVERY: usize = 16;
/// `tenant_quotas.max_pending` for `serve-durable`: far above what an
/// ordinary tenant keeps resident, so only the hostile tenant is shed.
pub const TENANT_MAX_PENDING: usize = 256;
/// Hostile deadlines lie this far past their arrival.
const HOSTILE_SLACK: f64 = 1.0e6;

/// Batch instances: shaped like a cloud batch (Poisson arrivals,
/// heavy-tailed lengths, laxity proportional to length). Many small
/// instances, so each percentile of the per-evaluation latency is set by
/// many (instance, kind) pairs rather than by the slowest one.
pub const BATCH_INSTANCES: usize = 64;
pub const BATCH_JOBS: usize = 500;

/// SplitMix64: tiny, seedable and fixed forever in this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Rounds to the precision the text carries, so the numbers the
/// benchmark scores against are exactly the numbers the program parses.
fn q(x: f64) -> f64 {
    format!("{x:.3}").parse().expect("formatted float parses")
}

/// One job as `(arrival, deadline, length)`.
pub type Adp = (f64, f64, f64);

/// One serve session of a script.
pub struct SessionSpec {
    pub sid: String,
    pub kind: &'static str,
    pub jobs: Vec<Adp>,
}

/// A generated protocol script, split into its phases.
pub struct Script {
    pub sessions: Vec<SessionSpec>,
    /// `open` lines (the set-up phase).
    pub opens: Vec<String>,
    /// `job` lines in arrival order (the timed phase).
    pub jobs: Vec<String>,
    /// `close` lines.
    pub closes: Vec<String>,
    /// Hostile offers in `jobs` (zero without a hostile tenant).
    pub hostile_jobs: usize,
}

impl Script {
    /// Offers the governor sheds: every hostile offer past the quota.
    pub fn expected_shed(&self) -> usize {
        self.hostile_jobs.saturating_sub(TENANT_MAX_PENDING)
    }

    /// Offers the program admits.
    pub fn expected_admitted(&self) -> usize {
        self.jobs.len() - self.expected_shed()
    }

    /// All lines, newline-terminated, in submission order.
    pub fn lines(&self) -> impl Iterator<Item = &String> {
        self.opens.iter().chain(&self.jobs).chain(&self.closes)
    }

    /// Opens every session, merges their job streams into one
    /// arrival-ordered stream (ties broken by session, so the order is
    /// total), then closes every session.
    pub fn assemble(sessions: Vec<SessionSpec>, hostile: bool) -> Script {
        let mut order: Vec<(f64, usize, usize)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(s, spec)| spec.jobs.iter().enumerate().map(move |(i, j)| (j.0, s, i)))
            .collect();
        order.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

        let mut opens: Vec<String> = sessions
            .iter()
            .map(|s| format!("open {} {}\n", s.sid, s.kind))
            .collect();
        let mut closes: Vec<String> = sessions
            .iter()
            .map(|s| format!("close {}\n", s.sid))
            .collect();
        let mut jobs = Vec::with_capacity(order.len() + order.len() / HOSTILE_EVERY);
        let mut hostile_jobs = 0;
        for (k, &(_, s, i)) in order.iter().enumerate() {
            let spec = &sessions[s];
            let (a, d, p) = spec.jobs[i];
            jobs.push(format!("job {} {a:.3},{d:.3},{p:.3}\n", spec.sid));
            if hostile && (k + 1) % HOSTILE_EVERY == 0 {
                jobs.push(format!(
                    "job {HOSTILE_SID} {a:.3},{:.3},1.000\n",
                    a + HOSTILE_SLACK
                ));
                hostile_jobs += 1;
            }
        }
        if hostile {
            opens.push(format!("open {HOSTILE_SID} lazy\n"));
            closes.push(format!("close {HOSTILE_SID}\n"));
        }
        Script {
            sessions,
            opens,
            jobs,
            closes,
            hostile_jobs,
        }
    }
}

/// The serve script: 64 sessions `t<k>.s<n>` over 16 tenants, kinds
/// cycling through [`KINDS`], exponential arrivals, uniform lengths in
/// `[1, 8)`, laxity 2. With `hostile`, one extra tenant offers a job
/// after every [`HOSTILE_EVERY`] ordinary ones.
pub fn serve_script(seed: u64, hostile: bool) -> Script {
    let sessions = (0..SESSIONS)
        .map(|n| {
            let mut rng = Rng::new(seed, n as u64 + 1);
            let mut clock = 0.0;
            let jobs = (0..JOBS_PER_SESSION)
                .map(|_| {
                    clock += rng.exp(SESSION_RATE);
                    let a = q(clock);
                    let p = q(1.0 + 7.0 * rng.unit());
                    let d = q(a + LAXITY * p * rng.unit());
                    (a, d, p)
                })
                .collect();
            SessionSpec {
                sid: format!("t{}.s{n}", n % TENANTS),
                kind: KINDS[n % KINDS.len()],
                jobs,
            }
        })
        .collect();
    Script::assemble(sessions, hostile)
}

/// Batch instances, shaped like a cloud batch: Poisson arrivals at
/// rate 1, bounded-Pareto lengths on `[1, 64]` with shape 1.2, deadline =
/// arrival + length. The program receives them as [`csv`] bytes.
pub fn batch_instances(seed: u64) -> Vec<Vec<Adp>> {
    const MIN: f64 = 1.0;
    const MAX: f64 = 64.0;
    const SHAPE: f64 = 1.2;
    (0..BATCH_INSTANCES)
        .map(|i| {
            let mut rng = Rng::new(seed, 1000 + i as u64);
            let mut clock = 0.0;
            (0..BATCH_JOBS)
                .map(|_| {
                    clock += rng.exp(1.0);
                    let a = q(clock);
                    let tail = 1.0 - rng.unit() * (1.0 - (MIN / MAX).powf(SHAPE));
                    let p = q(MIN / tail.powf(1.0 / SHAPE));
                    (a, q(a + p), p)
                })
                .collect()
        })
        .collect()
}

/// The batch instances as serve sessions (instance `i` runs kind
/// `KINDS[i % 8]`), so the traced run can probe the serve layers on the
/// batch workload's own jobs.
pub fn batch_script(seed: u64) -> Script {
    let sessions = batch_instances(seed)
        .into_iter()
        .enumerate()
        .map(|(i, jobs)| SessionSpec {
            sid: format!("b{i}.s0"),
            kind: KINDS[i % KINDS.len()],
            jobs,
        })
        .collect();
    Script::assemble(sessions, false)
}

/// One session's (or instance's) jobs as a CSV trace.
pub fn csv(jobs: &[Adp]) -> String {
    let mut text = String::with_capacity(jobs.len() * 24);
    for (a, d, p) in jobs {
        text.push_str(&format!("{a:.3},{d:.3},{p:.3}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &Script) -> String {
        s.lines().map(String::as_str).collect()
    }

    fn all_bytes(seed: u64) -> Vec<u8> {
        let mut b = text(&serve_script(seed, false)).into_bytes();
        b.extend(text(&serve_script(seed, true)).bytes());
        for jobs in batch_instances(seed) {
            b.extend(csv(&jobs).bytes());
        }
        b
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        assert_eq!(all_bytes(7), all_bytes(7));
    }

    #[test]
    fn different_seeds_give_different_bytes() {
        assert_ne!(text(&serve_script(7, false)), text(&serve_script(8, false)));
        assert_ne!(text(&serve_script(7, true)), text(&serve_script(8, true)));
        assert_ne!(batch_instances(7), batch_instances(8));
    }

    #[test]
    fn script_layout_matches_the_workload_definition() {
        let s = serve_script(3, true);
        assert_eq!(s.opens.len(), SESSIONS + 1);
        assert_eq!(s.jobs.len() - s.hostile_jobs, SESSIONS * JOBS_PER_SESSION);
        assert_eq!(s.hostile_jobs, SESSIONS * JOBS_PER_SESSION / HOSTILE_EVERY);
        assert!(s.opens[0].starts_with("open t0.s0 eager"));
        assert!(s.opens[17].starts_with("open t1.s17 lazy"));
        for spec in &s.sessions {
            assert!(spec.jobs.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(spec.jobs.iter().all(|&(a, d, p)| d >= a && p >= 1.0));
        }
    }
}
