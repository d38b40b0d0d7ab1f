//! `fjs fuzz-serve` — a seeded protocol-fuzz chaos harness for a live
//! `fjs serve` daemon, plus the byte-level misbehaviour modes behind
//! `fjs loadgen --misbehave`.
//!
//! The harness drives three kinds of traffic at a daemon concurrently
//! over its real socket frontends (unix and/or TCP):
//!
//! * a **clean tenant** (`c*` sessions) sent well-formed on a single
//!   connection — its replies must all be `ok`, and because its decision
//!   -log lines are a deterministic subsequence of the daemon log,
//!   `grep '^c'` of that log must be byte-identical to a reference run
//!   of the same script through `fjs serve --input` (checked in CI);
//! * **fuzz tenants** (`x<i>.…` sessions), one thread per connection,
//!   each looping seeded [`Misbehave`] rounds: torn frames, garbage
//!   bytes, giant lines, partial writes, abrupt disconnects and
//!   slow-loris dribbles;
//! * a **hostile tenant** (`h.…` sessions) that opens
//!   `poison:panic:*` sessions in a tight loop so its closes are
//!   non-`completed` verdicts — deterministically tripping the tenant
//!   circuit breaker and exercising `busy … breaker-open` refusals.
//!
//! After the chaos drains, a `zprobe.*` session is driven end-to-end on
//! every target to prove the daemon still schedules. All randomness
//! comes from [`fjs_prng::SmallRng`]; a fixed `--seed` replays the same
//! byte streams (interleaving across connections is up to the kernel,
//! which is exactly the point of the chaos).

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fjs_prng::SmallRng;

use crate::loadgen::{emit_script, DriveTarget, LoadgenOptions};

/// How a connection abuses the wire, byte-level.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Misbehave {
    /// Valid bytes, torn across arbitrary write boundaries — frames
    /// split mid-line must reassemble to the same requests.
    Torn,
    /// Random garbage lines (arbitrary non-newline bytes, often invalid
    /// UTF-8) interleaved with valid requests.
    Garbage,
    /// A line far beyond `--max-frame-bytes`: the daemon must answer
    /// `err line-too-long` and drop only this connection.
    Giant,
    /// A valid prefix, then a partial line with no terminating newline,
    /// then EOF — the tail must be dropped, never dispatched.
    Partial,
    /// An abrupt disconnect after a random prefix of the script.
    Disconnect,
    /// The first request dribbled one byte at a time with pauses.
    Slowloris,
}

/// All modes, for seeded selection and CLI listings.
pub const MISBEHAVE_MODES: [Misbehave; 6] = [
    Misbehave::Torn,
    Misbehave::Garbage,
    Misbehave::Giant,
    Misbehave::Partial,
    Misbehave::Disconnect,
    Misbehave::Slowloris,
];

impl Misbehave {
    /// CLI name, stable.
    pub fn name(&self) -> &'static str {
        match self {
            Misbehave::Torn => "torn",
            Misbehave::Garbage => "garbage",
            Misbehave::Giant => "giant",
            Misbehave::Partial => "partial",
            Misbehave::Disconnect => "disconnect",
            Misbehave::Slowloris => "slowloris",
        }
    }

    /// Parses a CLI mode name.
    pub fn parse(s: &str) -> Option<Misbehave> {
        MISBEHAVE_MODES.iter().copied().find(|m| m.name() == s)
    }
}

/// One step of a misbehaving byte plan.
enum WireOp {
    /// Write these bytes (possibly a fraction of a line, possibly junk).
    Write(Vec<u8>),
    /// Sleep before the next write (slow-loris pacing).
    Pause(Duration),
    /// Stop writing and tear the connection down.
    Disconnect,
}

/// Compiles protocol `lines` into a byte plan for `mode`. Returns the
/// plan plus the number of frames (newline-terminated lines, junk
/// included) it will put on the wire.
fn misbehave_plan(lines: &[String], mode: Misbehave, rng: &mut SmallRng) -> (Vec<WireOp>, u64) {
    let mut ops = Vec::new();
    let mut frames = 0u64;
    match mode {
        Misbehave::Torn => {
            let mut bytes = Vec::new();
            for l in lines {
                bytes.extend_from_slice(l.as_bytes());
                bytes.push(b'\n');
                frames += 1;
            }
            let mut at = 0usize;
            while at < bytes.len() {
                let n = (1 + rng.u64_below(40) as usize).min(bytes.len() - at);
                ops.push(WireOp::Write(bytes[at..at + n].to_vec()));
                at += n;
            }
        }
        Misbehave::Garbage => {
            for l in lines {
                if rng.bool_with(0.3) {
                    let n = 1 + rng.u64_below(32) as usize;
                    let mut junk: Vec<u8> = (0..n)
                        .map(|_| {
                            // Any byte but newline, so the junk stays one
                            // frame; 0x80.. yields invalid UTF-8 often.
                            let b = 1 + rng.u64_below(255) as u8;
                            if b == b'\n' {
                                0xFF
                            } else {
                                b
                            }
                        })
                        .collect();
                    junk.push(b'\n');
                    ops.push(WireOp::Write(junk));
                    frames += 1;
                }
                ops.push(WireOp::Write(format!("{l}\n").into_bytes()));
                frames += 1;
            }
        }
        Misbehave::Giant => {
            let keep = rng.u64_below(lines.len() as u64 + 1) as usize;
            for l in &lines[..keep] {
                ops.push(WireOp::Write(format!("{l}\n").into_bytes()));
                frames += 1;
            }
            let n = 10_000 + rng.u64_below(90_000) as usize;
            let mut giant = vec![b'A'; n];
            giant.push(b'\n');
            ops.push(WireOp::Write(giant));
            frames += 1;
            ops.push(WireOp::Disconnect);
        }
        Misbehave::Partial => {
            let keep = rng.u64_below(lines.len() as u64) as usize;
            for l in &lines[..keep] {
                ops.push(WireOp::Write(format!("{l}\n").into_bytes()));
                frames += 1;
            }
            if let Some(tail) = lines.get(keep) {
                let cut = 1 + rng.u64_below(tail.len().max(1) as u64) as usize;
                ops.push(WireOp::Write(
                    tail.as_bytes()[..cut.min(tail.len())].to_vec(),
                ));
            }
            ops.push(WireOp::Disconnect);
        }
        Misbehave::Disconnect => {
            let keep = rng.u64_below(lines.len() as u64 + 1) as usize;
            for l in &lines[..keep] {
                ops.push(WireOp::Write(format!("{l}\n").into_bytes()));
                frames += 1;
            }
            ops.push(WireOp::Disconnect);
        }
        Misbehave::Slowloris => {
            if let Some((first, rest)) = lines.split_first() {
                for &b in format!("{first}\n").as_bytes() {
                    ops.push(WireOp::Write(vec![b]));
                    ops.push(WireOp::Pause(Duration::from_millis(1 + rng.u64_below(3))));
                }
                frames += 1;
                for l in rest {
                    ops.push(WireOp::Write(format!("{l}\n").into_bytes()));
                    frames += 1;
                }
            }
        }
    }
    (ops, frames)
}

/// Executes a byte plan against a freshly-connected stream, then drains
/// replies until the daemon closes the connection or goes quiet.
/// Returns `(replies, breaker_refusals, oversize_replies)`. Write
/// errors are expected (the daemon drops abusive connections mid-plan)
/// and never propagate.
fn run_plan(target: &DriveTarget, ops: &[WireOp]) -> Result<(u64, u64, u64), String> {
    let (reader, mut writer) = target.connect_timeout(Duration::from_millis(100))?;
    let mut disconnected = false;
    for op in ops {
        match op {
            WireOp::Write(bytes) => {
                if writer
                    .write_all(bytes)
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    // The daemon already cut us loose (oversize / slow):
                    // exactly the behaviour under test.
                    break;
                }
            }
            WireOp::Pause(d) => std::thread::sleep(*d),
            WireOp::Disconnect => {
                disconnected = true;
                break;
            }
        }
    }
    drop(writer);
    if disconnected {
        // Abrupt teardown: do not wait for replies.
        return Ok((0, 0, 0));
    }
    Ok(drain_replies(reader))
}

/// Reads reply bytes until EOF or ~600ms of silence, counting frames
/// and the two governor refusal markers.
fn drain_replies(mut reader: Box<dyn Read + Send>) -> (u64, u64, u64) {
    let mut buf = [0u8; 4096];
    let mut acc: Vec<u8> = Vec::new();
    let mut quiet = 0u32;
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                quiet = 0;
                acc.extend_from_slice(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                quiet += 1;
                if quiet >= 6 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&acc);
    let mut replies = 0u64;
    let mut breaker = 0u64;
    let mut oversize = 0u64;
    for line in text.lines() {
        replies += 1;
        if line.contains("breaker-open") {
            breaker += 1;
        }
        if line.contains("line-too-long") {
            oversize += 1;
        }
    }
    (replies, breaker, oversize)
}

/// `fjs fuzz-serve` configuration.
#[derive(Clone, Debug)]
pub struct FuzzServeOptions {
    /// Live daemon endpoints; fuzz connections round-robin across them.
    pub targets: Vec<DriveTarget>,
    /// Master seed; every thread derives its own stream from it.
    pub seed: u64,
    /// Concurrent fuzz connections (threads).
    pub connections: usize,
    /// Total frame budget across all fuzz connections.
    pub frames: u64,
    /// Scheduler spec for well-formed opens.
    pub scheduler: String,
    /// Write the clean tenant's script here (for a reference run).
    pub emit_clean: Option<std::path::PathBuf>,
}

impl Default for FuzzServeOptions {
    fn default() -> Self {
        FuzzServeOptions {
            targets: Vec::new(),
            seed: 0xC4A0_55ED,
            connections: 8,
            frames: 10_000,
            scheduler: "eager".into(),
            emit_clean: None,
        }
    }
}

/// What the chaos run observed. `healthy()` is the harness verdict.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Frames put on the wire by fuzz + hostile connections.
    pub frames_sent: u64,
    /// Fuzz connections opened (each round is a fresh connection).
    pub fuzz_connections: u64,
    /// Replies observed on fuzz/hostile connections.
    pub replies_seen: u64,
    /// `busy … breaker-open` refusals observed (hostile tenant).
    pub breaker_refusals: u64,
    /// `err line-too-long` replies observed (giant frames).
    pub oversize_replies: u64,
    /// Clean tenant: replies received / errors among them.
    pub clean_replies: usize,
    /// Clean tenant replies that were `err` (must be 0).
    pub clean_errs: usize,
    /// Clean tenant replies that were `busy` (must be 0).
    pub clean_busy: usize,
    /// Post-chaos liveness probe passed on every target.
    pub probe_ok: bool,
}

impl FuzzReport {
    /// True when the daemon survived: the clean tenant saw only `ok`
    /// replies and the post-chaos probe scheduled end-to-end.
    pub fn healthy(&self) -> bool {
        self.probe_ok && self.clean_errs == 0 && self.clean_busy == 0
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fuzz-serve: {} frames over {} fuzz connections, {} replies seen",
            self.frames_sent, self.fuzz_connections, self.replies_seen
        )?;
        writeln!(
            f,
            "fuzz-serve: {} breaker-open refusals, {} line-too-long replies",
            self.breaker_refusals, self.oversize_replies
        )?;
        writeln!(
            f,
            "fuzz-serve: clean tenant {} replies ({} busy, {} err)",
            self.clean_replies, self.clean_busy, self.clean_errs
        )?;
        write!(
            f,
            "fuzz-serve: probe {}",
            if self.probe_ok { "ok" } else { "FAILED" }
        )
    }
}

/// The clean tenant's deterministic script (sessions `c0…c3`).
fn clean_options(opts: &FuzzServeOptions) -> LoadgenOptions {
    LoadgenOptions {
        sessions: 4,
        jobs: 200,
        rate: 50_000.0,
        seed: opts.seed,
        scheduler: opts.scheduler.clone(),
        sid_prefix: "c".into(),
        ..LoadgenOptions::default()
    }
}

/// Drives one well-formed session triple (`open`/`job`/`close`) and
/// returns whether every reply started with `ok`.
fn probe_session(target: &DriveTarget, sid: &str, scheduler: &str) -> bool {
    let Ok((mut reader, mut writer)) = target.connect_timeout(Duration::from_millis(100)) else {
        return false;
    };
    let script = format!("open {sid} {scheduler}\njob {sid} 0,5,2\nclose {sid}\n");
    if writer
        .write_all(script.as_bytes())
        .and_then(|_| writer.flush())
        .is_err()
    {
        return false;
    }
    drop(writer);
    // Collect the three replies; the daemon keeps the connection open,
    // so stop on silence rather than waiting for EOF.
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    let mut quiet = 0u32;
    while acc.iter().filter(|&&b| b == b'\n').count() < 3 {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                quiet = 0;
                acc.extend_from_slice(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                quiet += 1;
                if quiet >= 30 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&acc);
    let replies: Vec<&str> = text.lines().collect();
    replies.len() == 3 && replies.iter().all(|r| r.starts_with("ok "))
}

/// Runs the full chaos harness against a live daemon. Errors only for
/// harness-level failures (cannot connect at all, cannot write
/// `--emit-clean`); protocol abuse outcomes land in the report.
pub fn run_fuzz_serve(opts: &FuzzServeOptions) -> Result<FuzzReport, String> {
    if opts.targets.is_empty() {
        return Err("fuzz-serve needs at least one --socket or --tcp target".into());
    }
    let clean_opts = clean_options(opts);
    if let Some(path) = &opts.emit_clean {
        std::fs::write(path, emit_script(&clean_opts))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let frames_sent = Arc::new(AtomicU64::new(0));
    let replies_seen = Arc::new(AtomicU64::new(0));
    let breaker_refusals = Arc::new(AtomicU64::new(0));
    let oversize_replies = Arc::new(AtomicU64::new(0));
    let fuzz_connections = Arc::new(AtomicU64::new(0));

    // Clean tenant: one well-formed connection, driven while the chaos
    // runs. Its sessions never share a tenant with fuzz traffic, so its
    // replies and log lines must be untouched by the abuse.
    let clean_target = opts.targets[0].clone();
    let clean_opts_thread = clean_opts.clone();
    let clean_handle =
        std::thread::spawn(move || crate::loadgen::drive(&clean_target, &clean_opts_thread, 1));

    // Hostile tenant: poisoned sessions whose closes are non-completed
    // verdicts, deterministically tripping tenant `h`'s breaker.
    let hostile_budget = (opts.frames / 20).clamp(30, 600);
    let hostile_target = opts.targets[0].clone();
    let hostile_frames = Arc::clone(&frames_sent);
    let hostile_replies = Arc::clone(&replies_seen);
    let hostile_refusals = Arc::clone(&breaker_refusals);
    let hostile_handle = std::thread::spawn(move || {
        let mut k = 0u64;
        let mut budget = hostile_budget;
        while budget > 0 {
            let sid = format!("h.p{k}");
            k += 1;
            let lines = [
                format!("open {sid} poison:panic:eager"),
                format!("job {sid} 0,1,1"),
                format!("close {sid}"),
            ];
            budget = budget.saturating_sub(lines.len() as u64);
            let ops: Vec<WireOp> = lines
                .iter()
                .map(|l| WireOp::Write(format!("{l}\n").into_bytes()))
                .collect();
            match run_plan(&hostile_target, &ops) {
                Ok((replies, refused, _)) => {
                    hostile_frames.fetch_add(lines.len() as u64, Ordering::Relaxed);
                    hostile_replies.fetch_add(replies, Ordering::Relaxed);
                    hostile_refusals.fetch_add(refused, Ordering::Relaxed);
                }
                Err(_) => break,
            }
        }
    });

    // Fuzz tenants: one thread per connection slot, each looping seeded
    // misbehaviour rounds on a fresh connection until its quota drains.
    let threads = opts.connections.max(1);
    let quota = (opts.frames / threads as u64).max(1);
    let mut handles = Vec::new();
    for t in 0..threads {
        let target = opts.targets[t % opts.targets.len()].clone();
        let scheduler = opts.scheduler.clone();
        let seed = opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
        let frames_sent = Arc::clone(&frames_sent);
        let replies_seen = Arc::clone(&replies_seen);
        let breaker_refusals = Arc::clone(&breaker_refusals);
        let oversize_replies = Arc::clone(&oversize_replies);
        let fuzz_connections = Arc::clone(&fuzz_connections);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sent = 0u64;
            let mut round = 0u64;
            let mut consecutive_failures = 0u32;
            while sent < quota {
                let script_opts = LoadgenOptions {
                    sessions: 2,
                    jobs: 24,
                    rate: 1000.0,
                    seed: rng.next_u64(),
                    scheduler: scheduler.clone(),
                    sid_prefix: format!("x{t}.r{round}s"),
                    ..LoadgenOptions::default()
                };
                round += 1;
                let lines: Vec<String> = emit_script(&script_opts)
                    .lines()
                    .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                    .map(str::to_owned)
                    .collect();
                let mode = *rng.choose(&MISBEHAVE_MODES);
                let (ops, frames) = misbehave_plan(&lines, mode, &mut rng);
                match run_plan(&target, &ops) {
                    Ok((replies, refused, oversize)) => {
                        consecutive_failures = 0;
                        sent += frames;
                        fuzz_connections.fetch_add(1, Ordering::Relaxed);
                        frames_sent.fetch_add(frames, Ordering::Relaxed);
                        replies_seen.fetch_add(replies, Ordering::Relaxed);
                        breaker_refusals.fetch_add(refused, Ordering::Relaxed);
                        oversize_replies.fetch_add(oversize, Ordering::Relaxed);
                    }
                    // The daemon may briefly refuse connects under churn;
                    // retry the round rather than abort the harness — but
                    // a daemon that stays unreachable (crashed) must fail
                    // the run via the liveness probe, not hang it.
                    Err(_) => {
                        consecutive_failures += 1;
                        if consecutive_failures >= 250 {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }));
    }

    for h in handles {
        h.join().map_err(|_| "fuzz thread panicked".to_string())?;
    }
    hostile_handle
        .join()
        .map_err(|_| "hostile thread panicked".to_string())?;
    let clean = clean_handle
        .join()
        .map_err(|_| "clean drive thread panicked".to_string())?
        .map_err(|e| format!("clean tenant drive: {e}"))?;

    // Post-chaos liveness probe on every target.
    let mut probe_ok = true;
    for (i, target) in opts.targets.iter().enumerate() {
        if !probe_session(target, &format!("zprobe.t{i}"), &opts.scheduler) {
            probe_ok = false;
        }
    }

    Ok(FuzzReport {
        frames_sent: frames_sent.load(Ordering::Relaxed),
        fuzz_connections: fuzz_connections.load(Ordering::Relaxed),
        replies_seen: replies_seen.load(Ordering::Relaxed),
        breaker_refusals: breaker_refusals.load(Ordering::Relaxed),
        oversize_replies: oversize_replies.load(Ordering::Relaxed),
        clean_replies: clean.replies,
        clean_errs: clean.errs,
        clean_busy: clean.busy,
        probe_ok,
    })
}

/// `fjs loadgen --misbehave <mode>`: sends the seeded script through one
/// misbehaving connection and reports what came back. Reuses the exact
/// mutators the chaos harness runs, so a failure found by `fuzz-serve`
/// can be replayed in isolation.
pub fn drive_misbehave(
    target: &DriveTarget,
    opts: &LoadgenOptions,
    mode: Misbehave,
) -> Result<String, String> {
    let lines: Vec<String> = emit_script(opts)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(str::to_owned)
        .collect();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (ops, frames) = misbehave_plan(&lines, mode, &mut rng);
    let (replies, breaker, oversize) = run_plan(target, &ops)?;
    Ok(format!(
        "loadgen: misbehave={} sent {frames} frames, saw {replies} replies \
         ({breaker} breaker-open, {oversize} line-too-long)",
        mode.name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines() -> Vec<String> {
        vec![
            "open a eager".into(),
            "job a 0,5,2".into(),
            "close a".into(),
        ]
    }

    #[test]
    fn plans_are_seed_deterministic() {
        for mode in MISBEHAVE_MODES {
            let mut a_rng = SmallRng::seed_from_u64(11);
            let mut b_rng = SmallRng::seed_from_u64(11);
            let (a, fa) = misbehave_plan(&lines(), mode, &mut a_rng);
            let (b, fb) = misbehave_plan(&lines(), mode, &mut b_rng);
            assert_eq!(fa, fb, "{mode:?} frame counts must match");
            assert_eq!(a.len(), b.len(), "{mode:?} op counts must match");
            for (x, y) in a.iter().zip(&b) {
                match (x, y) {
                    (WireOp::Write(p), WireOp::Write(q)) => assert_eq!(p, q),
                    (WireOp::Pause(p), WireOp::Pause(q)) => assert_eq!(p, q),
                    (WireOp::Disconnect, WireOp::Disconnect) => {}
                    _ => panic!("{mode:?} diverged in op kinds"),
                }
            }
        }
    }

    #[test]
    fn torn_plan_reassembles_to_the_original_bytes() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (ops, frames) = misbehave_plan(&lines(), Misbehave::Torn, &mut rng);
        assert_eq!(frames, 3);
        let mut joined = Vec::new();
        for op in &ops {
            match op {
                WireOp::Write(b) => joined.extend_from_slice(b),
                _ => panic!("torn plans only write"),
            }
        }
        assert_eq!(joined, b"open a eager\njob a 0,5,2\nclose a\n".to_vec());
    }

    #[test]
    fn giant_plan_carries_an_oversize_frame() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (ops, _) = misbehave_plan(&lines(), Misbehave::Giant, &mut rng);
        let giant = ops.iter().any(
            |op| matches!(op, WireOp::Write(b) if b.len() > crate::serve::DEFAULT_MAX_FRAME_BYTES),
        );
        assert!(giant, "giant mode must exceed the default frame cap");
        assert!(matches!(ops.last(), Some(WireOp::Disconnect)));
    }

    #[test]
    fn garbage_lines_never_contain_interior_newlines() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (ops, _) = misbehave_plan(&lines(), Misbehave::Garbage, &mut rng);
        for op in &ops {
            if let WireOp::Write(b) = op {
                assert_eq!(
                    b.iter().filter(|&&c| c == b'\n').count(),
                    1,
                    "each garbage write is exactly one frame"
                );
                assert_eq!(b.last(), Some(&b'\n'));
            }
        }
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in MISBEHAVE_MODES {
            assert_eq!(Misbehave::parse(mode.name()), Some(mode));
        }
        assert_eq!(Misbehave::parse("frogs"), None);
    }
}
