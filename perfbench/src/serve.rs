//! The serve workloads `serve-mixed` and `serve-durable`, and the pooled
//! w1 ≡ wN gate, driven in process through `fjs_cli::serve::Backend`.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fjs_cli::serve::{Backend, ServeOptions, ServeSummary, Sink};
use fjs_core::job::{Instance, Job};
use fjs_core::service::{ServeJournal, TenantQuotas, DEFAULT_SYNC_EVERY};

use crate::gen::{self, Script, HOSTILE_SID, TENANT_MAX_PENDING};
use crate::stats::{percentile, trimmed_mean};
use crate::trace::Tracer;
use crate::{Checks, Metric};

/// Timed requests per latency chunk; each chunk yields one p50 and one
/// p99 sample (40 samples lie beyond its p99), and the run reports the
/// trimmed means over chunks.
const CHUNK: usize = 4096;
/// Share of samples trimmed from each end before averaging (see
/// [`trimmed_mean`]).
pub const TRIM: f64 = 0.1;
/// Alternating untraced/traced slices of the overhead phase.
pub const OVERHEAD_SLICES: usize = 10;
/// Least time between two recovery samples.
const RECOVER_EVERY: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Serial backend, no journal, closed loop.
    Mixed,
    /// Serial backend, journal on disk, hostile tenant shed by quota.
    Durable,
    /// Worker pool, requests submitted up to the dispatch window: the
    /// backend of the w1 ≡ wN gate.
    Pooled,
}

/// Pool width for the w1 ≡ wN gate and the pool probe: one worker per
/// core, at least two so the pool is exercised on any host.
pub fn pooled_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2)
}

/// A workload's backend configuration.
pub struct Cfg {
    pub opts: ServeOptions,
    pub journaled: bool,
}

impl Cfg {
    pub fn new(mode: Mode) -> Cfg {
        let mut opts = ServeOptions::default();
        if mode == Mode::Pooled {
            opts.workers = pooled_workers();
        }
        if mode == Mode::Durable {
            // Room for the hostile session beside the 64 ordinary ones.
            opts.max_sessions = gen::SESSIONS + 1;
            opts.tenant_quotas = TenantQuotas {
                max_pending: TENANT_MAX_PENDING,
                max_bytes: 0,
            };
        }
        Cfg {
            opts,
            journaled: mode == Mode::Durable,
        }
    }

    pub fn backend(&self, journal: Option<&Path>) -> Result<Backend, String> {
        let journal = match journal {
            Some(p) => Some(
                ServeJournal::create(p)
                    .map_err(|e| format!("journal {}: {e}", p.display()))?
                    .with_sync_every(DEFAULT_SYNC_EVERY),
            ),
            None => None,
        };
        Ok(Backend::new(
            self.opts.clone(),
            Sink::Mem(Vec::new()),
            journal,
        ))
    }
}

/// Reply accounting for one pass over a script.
#[derive(Default)]
pub struct Tally {
    pub replies: usize,
    pub ok_jobs: usize,
    pub shed: usize,
    /// `err` replies and sheds of anything but the hostile tenant.
    pub unexpected: Vec<String>,
    /// Final span per session, from the `ok close` replies.
    pub spans: BTreeMap<String, f64>,
}

impl Tally {
    pub fn note(&mut self, reply: &str) {
        self.replies += 1;
        if reply.starts_with("ok job ") {
            self.ok_jobs += 1;
        } else if reply.starts_with("busy job ") && reply[9..].starts_with(HOSTILE_SID) {
            self.shed += 1;
        } else if let Some(rest) = reply.strip_prefix("ok close ") {
            let mut it = rest.split(' ');
            let sid = it.next().unwrap_or_default().to_string();
            let span = it
                .next()
                .and_then(|s| s.strip_prefix("span="))
                .and_then(|s| s.parse::<f64>().ok());
            match span {
                Some(span) => {
                    self.spans.insert(sid, span);
                }
                None => self.unexpected.push(reply.to_string()),
            }
        } else if !reply.starts_with("ok open ") {
            self.unexpected.push(reply.to_string());
        }
    }

    /// Checks the tally against what the script must produce.
    pub fn check(&self, script: &Script, ck: &mut Checks) {
        let lines = script.opens.len() + script.jobs.len() + script.closes.len();
        ck.check(self.replies == lines, || {
            format!("{} replies for {lines} requests", self.replies)
        });
        ck.check(self.ok_jobs == script.expected_admitted(), || {
            format!(
                "{} jobs admitted, expected {}",
                self.ok_jobs,
                script.expected_admitted()
            )
        });
        ck.check(self.shed == script.expected_shed(), || {
            format!("{} shed, expected {}", self.shed, script.expected_shed())
        });
        ck.fail_ops(self.unexpected.len() as u64, || {
            format!("unexpected replies, first: {:?}", self.unexpected.first())
        });
        ck.check(self.spans.len() == script.closes.len(), || {
            format!("{} close replies", self.spans.len())
        });
    }
}

/// Tracks byte offsets of the single logical connection.
#[derive(Default)]
struct Feed {
    offset: u64,
}

impl Feed {
    fn next(&mut self, line: &str) -> u64 {
        let o = self.offset;
        self.offset += line.len() as u64;
        o
    }
}

/// Latency percentiles of one chunk of [`CHUNK`] requests.
struct ChunkStat {
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

/// One full pass over the script.
pub struct Round {
    /// `Backend::new` through the last `open` reply.
    setup_s: f64,
    /// Seconds spent in the timed job phase (bookkeeping excluded).
    job_secs: f64,
    chunks: Vec<ChunkStat>,
    pub tally: Tally,
    pub log: Vec<u8>,
    pub summary: ServeSummary,
}

/// `Backend::new` through the last `open` reply.
fn setup(
    cfg: &Cfg,
    script: &Script,
    journal: Option<&Path>,
    feed: &mut Feed,
    tally: &mut Tally,
) -> Result<(Backend, f64), String> {
    let t0 = Instant::now();
    let mut b = cfg.backend(journal)?;
    let mut out = Vec::new();
    for line in &script.opens {
        b.submit(0, feed.next(line), line, &mut out)?;
    }
    b.settle(&mut out)?;
    let secs = t0.elapsed().as_secs_f64();
    for (_, r) in out {
        tally.note(&r);
    }
    Ok((b, secs))
}

/// Plays the script once: set-up, the timed job phase, then the closes
/// and the drain. With `tracer`, every `submit` of the timed phase is
/// recorded as a span (the traced half of the overhead check).
fn round(
    cfg: &Cfg,
    script: &Script,
    journal: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let mut feed = Feed::default();
    let mut tally = Tally::default();
    let (mut b, setup_s) = setup(cfg, script, journal, &mut feed, &mut tally)?;
    let mut out: Vec<(u64, String)> = Vec::new();
    let mut starts: VecDeque<Instant> = VecDeque::new();
    let mut job_secs = 0.0;
    let mut chunks = Vec::new();
    let mut lat = Vec::with_capacity(CHUNK + 64);
    let mut mark = Instant::now();
    for (k, line) in script.jobs.iter().enumerate() {
        let req = (script.opens.len() + k) as u64;
        starts.push_back(Instant::now());
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("backend.submit", req, None));
        b.submit(0, feed.next(line), line, &mut out)?;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        collect(&mut out, &mut starts, &mut lat, &mut tally);
        let last = k + 1 == script.jobs.len();
        if last {
            b.settle(&mut out)?;
            collect(&mut out, &mut starts, &mut lat, &mut tally);
        }
        if ((k + 1) % CHUNK == 0 || last) && !lat.is_empty() {
            job_secs += mark.elapsed().as_secs_f64();
            chunks.push(ChunkStat {
                p50_us: percentile(&mut lat, 0.50),
                p99_us: percentile(&mut lat, 0.99),
                samples: lat.len(),
            });
            lat.clear();
            // Restart the clock after the bookkeeping, so the timed phase
            // excludes the percentile sort.
            mark = Instant::now();
        }
    }
    for line in &script.closes {
        b.submit(0, feed.next(line), line, &mut out)?;
    }
    b.settle(&mut out)?;
    for (_, r) in out.drain(..) {
        tally.note(&r);
    }
    let (summary, sink) = b.finish()?;
    Ok(Round {
        setup_s,
        job_secs,
        chunks,
        tally,
        log: sink.mem().unwrap_or_default().to_vec(),
        summary,
    })
}

/// Moves completed replies into the tally, stamping each request's
/// service time (submit start until its reply is in hand).
fn collect(
    out: &mut Vec<(u64, String)>,
    starts: &mut VecDeque<Instant>,
    lat: &mut Vec<f64>,
    tally: &mut Tally,
) {
    if out.is_empty() {
        return;
    }
    let now = Instant::now();
    for (_, r) in out.drain(..) {
        if let Some(s) = starts.pop_front() {
            lat.push((now - s).as_secs_f64() * 1e6);
        }
        tally.note(&r);
    }
}

/// Checks one round: replies, summary, and the decision log against
/// the reference.
fn check_round(r: &Round, script: &Script, reference: &[u8], ck: &mut Checks) {
    r.tally.check(script, ck);
    ck.check(r.summary.halted.is_none(), || {
        format!("summary halted: {:?}", r.summary.halted)
    });
    ck.check(r.log == reference, || {
        "decision log differs from the reference log".into()
    });
}

/// Σ best_lower_bound over the script's ordinary sessions.
pub fn lower_bound_sum(script: &Script) -> f64 {
    script
        .sessions
        .iter()
        .map(|s| {
            let inst = Instance::new(s.jobs.iter().map(|&(a, d, p)| Job::adp(a, d, p)).collect());
            fjs_opt::best_lower_bound(&inst).get()
        })
        .sum()
}

/// Σ span over the ordinary sessions of a tally.
fn span_sum(tally: &Tally, script: &Script) -> f64 {
    script
        .sessions
        .iter()
        .map(|s| tally.spans.get(&s.sid).copied().unwrap_or(f64::NAN))
        .sum()
}

/// The decision log of `script` on the serial backend with `mode`'s
/// admission settings and no journal: the w1 reference every backend of
/// that workload must reproduce byte for byte.
fn serial_log(script: &Script, mode: Mode) -> Result<Vec<u8>, String> {
    let mut cfg = Cfg::new(mode);
    cfg.opts.workers = 1;
    cfg.journaled = false;
    Ok(round(&cfg, script, None, None)?.log)
}

/// Loads `journal` and resumes it into a fresh backend, until ready.
/// Returns the elapsed seconds, the record count and the resumed log.
pub fn recover(cfg: &Cfg, journal: &Path) -> Result<(f64, usize, Vec<u8>), String> {
    let t0 = Instant::now();
    let events = ServeJournal::load(journal).map_err(|e| format!("journal load: {e}"))?;
    let mut b = cfg.backend(None)?;
    b.resume(&events)?;
    let mut out = Vec::new();
    b.settle(&mut out)?;
    let secs = t0.elapsed().as_secs_f64();
    let (_, sink) = b.finish()?;
    Ok((secs, events.len(), sink.mem().unwrap_or_default().to_vec()))
}

/// The timed phase of a run.
struct Timed {
    rounds: Vec<Round>,
    recovers: Vec<f64>,
    attempted: u64,
}

/// Rounds until `seconds` have passed (at least one). With `recovery`, a
/// recovery from the workload's journal follows a round whenever
/// [`RECOVER_EVERY`] has passed since the last one, so the recovery
/// samples spread over the whole run instead of one moment of it.
fn timed_rounds(
    p: &Prepared,
    seconds: f64,
    recovery: bool,
    mut tracer: Option<&mut Tracer>,
    ck: &mut Checks,
) -> Result<Timed, String> {
    let live_journal = p.cfg.journaled.then_some(p.journal.as_path());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut t = Timed {
        rounds: Vec::new(),
        recovers: Vec::new(),
        attempted: 0,
    };
    let mut last_recovery: Option<Instant> = None;
    while t.rounds.is_empty() || Instant::now() < deadline {
        let mut r = round(&p.cfg, &p.script, live_journal, tracer.as_deref_mut())?;
        check_round(&r, &p.script, &p.reference, ck);
        t.attempted += r.tally.replies as u64;
        if recovery && last_recovery.is_none_or(|l| l.elapsed() >= RECOVER_EVERY) {
            let (secs, _, log) = recover(&p.cfg, &p.journal)?;
            ck.check(log == p.reference, || {
                "resumed log differs from the live log".into()
            });
            t.recovers.push(secs);
            last_recovery = Some(Instant::now());
        }
        // Keep the first round's log only; later rounds were checked.
        if !t.rounds.is_empty() {
            r.log = Vec::new();
        }
        t.rounds.push(r);
    }
    Ok(t)
}

/// Jobs admitted per second of the timed job phases.
fn jobs_per_s(rounds: &[Round]) -> f64 {
    let jobs: usize = rounds.iter().map(|r| r.tally.ok_jobs).sum();
    let secs: f64 = rounds.iter().map(|r| r.job_secs).sum();
    jobs as f64 / secs
}

/// Everything a serve run needs, built before any timing.
pub struct Prepared {
    pub mode: Mode,
    pub cfg: Cfg,
    pub script: Script,
    /// The serial decision log every backend must reproduce.
    pub reference: Vec<u8>,
    pub journal: PathBuf,
}

pub fn prepare(mode: Mode, script: Script, work: &Path) -> Result<Prepared, String> {
    let reference = serial_log(&script, mode)?;
    Ok(Prepared {
        mode,
        cfg: Cfg::new(mode),
        script,
        reference,
        journal: work.join("serve.journal"),
    })
}

/// The untraced run: every end-to-end metric.
pub fn run(p: &Prepared, seconds: f64, ck: &mut Checks) -> Result<(Vec<Metric>, u64), String> {
    if !p.cfg.journaled {
        // The journal-free workloads recover the journal one extra,
        // untimed round writes; serve-durable recovers its own.
        let r = round(&p.cfg, &p.script, Some(&p.journal), None)?;
        check_round(&r, &p.script, &p.reference, ck);
    }

    let t = timed_rounds(p, seconds, true, None, ck)?;

    let journal_bytes = std::fs::metadata(&p.journal)
        .map_err(|e| format!("journal {}: {e}", p.journal.display()))?
        .len();
    let chunks: Vec<&ChunkStat> = t.rounds.iter().flat_map(|r| &r.chunks).collect();
    let p50: Vec<f64> = chunks.iter().map(|c| c.p50_us).collect();
    let p99: Vec<f64> = chunks.iter().map(|c| c.p99_us).collect();
    let setups: Vec<f64> = t.rounds.iter().map(|r| r.setup_s).collect();
    let samples: usize = chunks.iter().map(|c| c.samples).sum();
    println!(
        "# {:?}: {} rounds, {} latency chunks with {samples} samples, {} recoveries",
        p.mode,
        t.rounds.len(),
        chunks.len(),
        t.recovers.len()
    );
    let span_ratio = span_sum(&t.rounds[0].tally, &p.script) / lower_bound_sum(&p.script);
    Ok((
        vec![
            Metric::new("jobs_per_s", jobs_per_s(&t.rounds), "1/s"),
            Metric::new("req_p50_us", trimmed_mean(&p50, TRIM), "us"),
            Metric::new("req_p99_us", trimmed_mean(&p99, TRIM), "us"),
            Metric::new("recover_s", trimmed_mean(&t.recovers, TRIM), "s"),
            Metric::new(
                "journal_bytes_per_job",
                journal_bytes as f64 / p.script.expected_admitted() as f64,
                "B",
            ),
            Metric::new("span_ratio", span_ratio, "ratio"),
            Metric::new("setup_s", trimmed_mean(&setups, TRIM), "s"),
        ],
        t.attempted,
    ))
}

/// w1 ≡ wN: the script through the worker pool must write the serial
/// decision log byte for byte.
pub fn pooled_gate(p: &Prepared, ck: &mut Checks) -> Result<(), String> {
    let r = round(&Cfg::new(Mode::Pooled), &p.script, None, None)?;
    check_round(&r, &p.script, &p.reference, ck);
    Ok(())
}

/// The traced run's workload phase: slices that alternate between
/// untraced and a span around every `submit`, so host drift during the
/// phase falls on both sides alike. Returns `trace.overhead_frac`.
pub fn overhead(p: &Prepared, seconds: f64, ck: &mut Checks) -> Result<(f64, u64), String> {
    let mut rounds = [Vec::new(), Vec::new()];
    let mut attempted = 0;
    let mut scratch = Tracer::new();
    for slice in 0..OVERHEAD_SLICES {
        let traced = slice % 2;
        let tracer = (traced == 1).then_some(&mut scratch);
        let t = timed_rounds(p, seconds / OVERHEAD_SLICES as f64, false, tracer, ck)?;
        rounds[traced].extend(t.rounds);
        attempted += t.attempted;
        scratch.spans.clear();
    }
    Ok((
        1.0 - jobs_per_s(&rounds[1]) / jobs_per_s(&rounds[0]),
        attempted,
    ))
}
