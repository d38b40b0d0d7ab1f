//! `fjs serve` — a resident scheduling daemon.
//!
//! Multiplexes many concurrent scheduling sessions (one [`Session`] each,
//! built from the scheduler
//! registry) over a line protocol ([`protocol`]) read from a file, stdin
//! or a unix socket. Decisions stream out incrementally — `start`/`done`
//! deltas plus a running span — and full history is never materialized:
//! per-session state is O(pending jobs) thanks to the span accountant and
//! completed-prefix compaction inside the service layer.
//!
//! One backend serves every `--workers` value: [`Backend`] (in
//! [`dispatch`]) parses, admits, journals and renders on the calling
//! thread and runs sessions on a [`SessionPool`]. At `--workers 1` the
//! pool's single worker runs inline, with no thread and no channel; above
//! that, sessions shard across worker threads by stable tenant hash.
//!
//! Robustness properties:
//!
//! - **Isolation** — a panicking or hung scheduler poisons only its own
//!   session (typed [`SessionVerdict`](fjs_core::service::SessionVerdict));
//!   every other session keeps its
//!   byte-identical decision stream.
//! - **Backpressure** — `--max-sessions` bounds resident sessions and
//!   `--max-pending` bounds per-session resident jobs; excess load is shed
//!   with a structured `busy` reply rather than absorbed.
//! - **Crash safety** — admitted requests are appended to a
//!   [`ServeJournal`](fjs_core::service::ServeJournal); after `SIGKILL`,
//!   `--resume` replays the journal and re-reads the input past the last
//!   journaled line, reproducing the decision log byte for byte. A request whose journal append or log
//!   write fails is answered `err fatal: …`, and every later one
//!   `err halted`.
//! - **Graceful drain** — `SIGINT`/`SIGTERM` stop admission, close every
//!   session, flush all deltas and exit 0.
//! - **Scale-out** — `--workers N` spreads sessions over `N` workers with
//!   a sequence-numbered merge that keeps the decision log and journal
//!   byte-identical at any worker count; the socket frontends ([`net`])
//!   serve many connections concurrently (unix and TCP) and survive
//!   per-connection failures.
//!
//! [`SessionPool`]: fjs_core::service::SessionPool

pub mod dispatch;
pub mod net;
pub mod protocol;

use std::io::{self, BufRead, Write};

use fjs_core::service::{BreakerConfig, Session, TenantQuotas};
use fjs_core::supervise::{PoisonMode, PoisonedScheduler, DEFAULT_WATCHDOG_EVENTS};
use fjs_schedulers::SchedulerKind;
use fjs_workloads::{DeadLetter, Quarantine};

use crate::soak::stop_requested;
pub use dispatch::Backend;

/// Default cap on concurrently open sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 64;

/// Default cap on resident (pending + running) jobs per session.
pub const DEFAULT_MAX_PENDING: usize = 4096;

/// Default hard cap on one protocol frame (bytes, including the newline).
/// A connection that exceeds it gets `err line-too-long` and is dropped —
/// the reader never accumulates more than this per line.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8192;

/// Default bounded depth of each connection's reply (writer) queue. A
/// client that stops draining replies fills it and is disconnected as a
/// slow client instead of growing daemon memory.
pub const DEFAULT_WRITER_QUEUE: usize = 256;

/// Tunables for a [`Backend`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Cap on concurrently open sessions; `open` beyond it is shed `busy`.
    pub max_sessions: usize,
    /// Cap on resident (pending + running) jobs per session; `job` beyond
    /// it is shed `busy`. This also bounds the global dispatch window
    /// (requests in flight across all workers).
    pub max_pending: usize,
    /// Watchdog event budget per session (contains hung schedulers).
    pub watchdog_events: usize,
    /// What to do with malformed protocol lines.
    pub quarantine: Quarantine,
    /// Journal fsync cadence (records between `fsync` calls).
    pub checkpoint_every: usize,
    /// Artificial per-request delay in milliseconds — a test hook so
    /// kill/resume tests can reliably interrupt a run mid-stream.
    pub throttle_ms: u64,
    /// Session workers. Sessions shard across a
    /// [`SessionPool`](fjs_core::service::SessionPool) of this many
    /// workers by stable *tenant* hash (so the governor's tenant quotas
    /// stay exact). At `1` the single worker runs inline on the
    /// dispatching thread; above that, each worker is a thread. The
    /// replies, decision log and journal are the same bytes at any value.
    pub workers: usize,
    /// Cap on concurrently open sessions per tenant (sid prefix before
    /// the first `.`); `0` disables. Excess `open`s shed `busy`.
    pub tenant_max_sessions: usize,
    /// Per-tenant resident-job and admitted-byte quotas (`0` = off).
    pub tenant_quotas: TenantQuotas,
    /// Tenant circuit-breaker tuning (threshold `0` disables).
    pub breaker: BreakerConfig,
    /// Hard cap on one protocol frame in bytes (socket frontends).
    pub max_frame_bytes: usize,
    /// Bounded per-connection writer-queue depth (socket frontends).
    pub writer_queue: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_sessions: DEFAULT_MAX_SESSIONS,
            max_pending: DEFAULT_MAX_PENDING,
            watchdog_events: DEFAULT_WATCHDOG_EVENTS,
            quarantine: Quarantine::DeadLetter,
            checkpoint_every: fjs_core::service::DEFAULT_SYNC_EVERY,
            throttle_ms: 0,
            workers: 1,
            tenant_max_sessions: 0,
            tenant_quotas: TenantQuotas::off(),
            breaker: BreakerConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            writer_queue: DEFAULT_WRITER_QUEUE,
        }
    }
}

/// Where decision-log lines go.
pub enum Sink {
    /// Discard.
    Null,
    /// Collect in memory (bench / in-process tests).
    Mem(Vec<u8>),
    /// Buffered file.
    File(io::BufWriter<std::fs::File>),
    /// Standard output.
    Stdout(io::Stdout),
}

impl Sink {
    fn write_line(&mut self, line: std::fmt::Arguments<'_>) -> io::Result<()> {
        match self {
            Sink::Null => Ok(()),
            Sink::Mem(buf) => writeln!(buf, "{line}"),
            Sink::File(w) => writeln!(w, "{line}"),
            Sink::Stdout(w) => writeln!(w, "{line}"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Null | Sink::Mem(_) => Ok(()),
            Sink::File(w) => w.flush(),
            Sink::Stdout(w) => w.flush(),
        }
    }

    /// The collected bytes of a [`Sink::Mem`] sink.
    pub fn mem(&self) -> Option<&[u8]> {
        match self {
            Sink::Mem(buf) => Some(buf),
            _ => None,
        }
    }
}

/// End-of-run accounting: admission, shedding, quarantine and the
/// bounded-memory evidence (peak resident records / live span segments
/// across all sessions).
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Physical input lines consumed (including skipped resume prefix).
    pub lines: u64,
    /// Well-formed requests dispatched.
    pub requests: u64,
    /// Jobs admitted into sessions.
    pub jobs: u64,
    /// Requests shed with a `busy` reply (admission control).
    pub shed: u64,
    /// Requests shed by a per-tenant governor quota (session cap,
    /// resident-job quota or byte quota).
    pub tenant_shed: u64,
    /// `open`s refused because the tenant's circuit breaker was open.
    pub breaker_refused: u64,
    /// Times any tenant's circuit breaker tripped (closed → open).
    pub breaker_trips: u64,
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed (explicitly or by drain).
    pub closed: u64,
    /// Decision-log lines written.
    pub decision_lines: u64,
    /// Malformed lines quarantined (skipped or dead-lettered).
    pub quarantined: usize,
    /// Quarantined lines retained under [`Quarantine::DeadLetter`].
    pub dead: Vec<DeadLetter>,
    /// Peak concurrently open sessions.
    pub peak_sessions: usize,
    /// Peak resident job records in any single session — the O(pending)
    /// memory bound: this stays flat no matter how many jobs stream
    /// through.
    pub peak_retained: usize,
    /// Peak live (unretired) span segments in any single session.
    pub peak_live_segments: usize,
    /// Socket connections accepted over the run.
    pub connections: u64,
    /// Connections dropped by a read/write error (`ECONNRESET`, `EPIPE`,
    /// a client killed mid-line); the daemon keeps serving the rest.
    pub disconnects: u64,
    /// Connections dropped for sending a frame over the byte cap.
    pub oversize_disconnects: u64,
    /// Connections dropped for not draining replies (writer queue full).
    pub slow_disconnects: u64,
    /// Peak depth any connection's writer queue reached.
    pub peak_writer_queue: usize,
    /// Transient `accept()` failures retried instead of treated as fatal.
    pub accept_retries: u64,
    /// Set when a `halt`-policy quarantine or an I/O failure stopped the
    /// stream early.
    pub halted: Option<String>,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} lines, {} requests, {} jobs admitted, {} shed, \
             {} sessions opened, {} closed, {} decision lines",
            self.lines,
            self.requests,
            self.jobs,
            self.shed,
            self.opened,
            self.closed,
            self.decision_lines
        )?;
        writeln!(
            f,
            "serve: peak {} sessions, {} resident records/session, \
             {} live span segments/session",
            self.peak_sessions, self.peak_retained, self.peak_live_segments
        )?;
        if self.connections > 0 || self.disconnects > 0 || self.accept_retries > 0 {
            writeln!(
                f,
                "serve: {} connections, {} dropped by I/O errors, {} accept retries",
                self.connections, self.disconnects, self.accept_retries
            )?;
        }
        if self.tenant_shed > 0 || self.breaker_refused > 0 || self.breaker_trips > 0 {
            writeln!(
                f,
                "serve: governor: {} tenant-quota sheds, {} breaker refusals, {} breaker trips",
                self.tenant_shed, self.breaker_refused, self.breaker_trips
            )?;
        }
        if self.oversize_disconnects > 0 || self.slow_disconnects > 0 {
            writeln!(
                f,
                "serve: net: {} oversize disconnects, {} slow clients dropped, \
                 peak writer queue {}",
                self.oversize_disconnects, self.slow_disconnects, self.peak_writer_queue
            )?;
        }
        if self.quarantined > 0 {
            writeln!(f, "serve: {} malformed lines quarantined", self.quarantined)?;
        }
        for d in &self.dead {
            writeln!(f, "serve: dead-letter {d}")?;
        }
        if let Some(why) = &self.halted {
            writeln!(f, "serve: halted: {why}")?;
        }
        Ok(())
    }
}

impl ServeSummary {
    /// One-line schema-v1 JSON rendering (the `--stats-jsonl` record),
    /// flat and append-friendly like the bench/journal line grammars.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"v\":1,\"kind\":\"serve-summary\",\"lines\":{},\"requests\":{},\
             \"jobs\":{},\"shed\":{},\"tenant_shed\":{},\"breaker_refused\":{},\
             \"breaker_trips\":{},\"opened\":{},\"closed\":{},\
             \"decision_lines\":{},\"quarantined\":{},\"peak_sessions\":{},\
             \"peak_retained\":{},\"peak_live_segments\":{},\"connections\":{},\
             \"disconnects\":{},\"oversize_disconnects\":{},\
             \"slow_disconnects\":{},\"peak_writer_queue\":{},\
             \"accept_retries\":{}}}",
            self.lines,
            self.requests,
            self.jobs,
            self.shed,
            self.tenant_shed,
            self.breaker_refused,
            self.breaker_trips,
            self.opened,
            self.closed,
            self.decision_lines,
            self.quarantined,
            self.peak_sessions,
            self.peak_retained,
            self.peak_live_segments,
            self.connections,
            self.disconnects,
            self.oversize_disconnects,
            self.slow_disconnects,
            self.peak_writer_queue,
            self.accept_retries,
        )
    }
}

/// Reply line formats, one function per reply kind. (Decision-log lines
/// are `{sid} {decision}` and `{sid} close span={span} verdict={label}`,
/// written in place by the backend.)
pub(crate) mod wire {
    use fjs_core::job::JobId;
    use fjs_core::service::{SessionError, SessionVerdict, TenantShedCause};
    use fjs_core::time::Dur;

    pub fn open_ok(sid: &str, name: &str) -> String {
        format!("ok open {sid} scheduler={name}")
    }
    pub fn open_err(sid: &str, e: &str) -> String {
        format!("err open {sid}: {e}")
    }
    pub fn open_busy(sid: &str, sessions: usize, max_sessions: usize) -> String {
        format!("busy open {sid} sessions={sessions} max-sessions={max_sessions}")
    }
    pub fn open_tenant_busy(sid: &str, tenant: &str, sessions: usize, max: usize) -> String {
        format!(
            "busy open {sid} tenant={tenant} tenant-sessions={sessions} max-tenant-sessions={max}"
        )
    }
    pub fn open_breaker(sid: &str, tenant: &str, failures: u32, retry_after: u64) -> String {
        format!(
            "busy open {sid} breaker-open tenant={tenant} failures={failures} \
             retry-after-events={retry_after}"
        )
    }
    pub fn job_ok(sid: &str, id: JobId, span: Dur) -> String {
        format!("ok job {sid} id={id} span={span}")
    }
    pub fn job_busy(sid: &str, resident: usize, max_pending: usize) -> String {
        format!("busy job {sid} pending={resident} max-pending={max_pending}")
    }
    pub fn job_tenant_busy(
        sid: &str,
        tenant: &str,
        cause: TenantShedCause,
        used: u64,
        limit: u64,
    ) -> String {
        let label = cause.label();
        format!("busy job {sid} tenant={tenant} tenant-{label}={used} max-tenant-{label}={limit}")
    }
    pub fn line_too_long(max_frame_bytes: usize) -> String {
        format!("err line-too-long max-frame-bytes={max_frame_bytes}")
    }
    pub fn stats_daemon(s: &super::ServeSummary) -> String {
        format!(
            "ok stats daemon lines={} requests={} jobs={} shed={} tenant-shed={} \
             breaker-refused={} breaker-trips={} oversize={} slow-clients={} \
             peak-writer-queue={}",
            s.lines,
            s.requests,
            s.jobs,
            s.shed,
            s.tenant_shed,
            s.breaker_refused,
            s.breaker_trips,
            s.oversize_disconnects,
            s.slow_disconnects,
            s.peak_writer_queue,
        )
    }
    pub fn job_terminal(sid: &str, v: &SessionVerdict) -> String {
        format!("err job {sid} verdict={}: session is terminal", v.label())
    }
    pub fn job_poisoned(sid: &str, v: &SessionVerdict) -> String {
        format!("err job {sid} verdict={}: {v}", v.label())
    }
    pub fn job_rejected(sid: &str, line: u64, offset: u64, e: &SessionError) -> String {
        format!("err job {sid} line={line} offset={offset}: {e}")
    }
    pub fn no_session(verb: &str, sid: &str) -> String {
        format!("err {verb} {sid}: no such session")
    }
    pub fn close_ok(sid: &str, span: Dur, jobs: u64, verdict: &str) -> String {
        format!("ok close {sid} span={span} jobs={jobs} verdict={verdict}")
    }
    #[allow(clippy::too_many_arguments)]
    pub fn stats_ok(
        sid: &str,
        span: Dur,
        pending: usize,
        running: usize,
        retained: usize,
        peak_retained: usize,
        events: usize,
    ) -> String {
        format!(
            "ok stats {sid} span={span} pending={pending} running={running} \
             retained={retained} peak-retained={peak_retained} events={events}"
        )
    }
}

/// A parsed scheduler spec: a registry short name (`eager`, `batch+`,
/// `cdb`, ...) optionally wrapped as `poison:<panic|hang>:<name>` to
/// inject a misbehaving subject (the supervision test double).
pub(crate) struct SessionSpec {
    kind: SchedulerKind,
    poison: Option<PoisonMode>,
}

/// Parses a scheduler spec without building anything, so admission can
/// reject a bad `open` before a worker sees it.
pub(crate) fn parse_spec(spec: &str) -> Result<SessionSpec, String> {
    let Some(rest) = spec.strip_prefix("poison:") else {
        return Ok(SessionSpec {
            kind: lookup_kind(spec)?,
            poison: None,
        });
    };
    let (mode_label, inner) = rest
        .split_once(':')
        .ok_or_else(|| format!("bad poison spec '{spec}' (want poison:<panic|hang>:<name>)"))?;
    let mode = PoisonMode::from_label(mode_label)
        .ok_or_else(|| format!("unknown poison mode '{mode_label}' (want panic|hang)"))?;
    Ok(SessionSpec {
        kind: lookup_kind(inner)?,
        poison: Some(mode),
    })
}

impl SessionSpec {
    /// Builds the session, with `watchdog` as its event budget.
    pub(crate) fn build(&self, watchdog: usize) -> Session {
        let (sched, model) = (self.kind.build(), self.kind.information_model());
        let session = match self.poison {
            Some(mode) => Session::new(Box::new(PoisonedScheduler::new(sched, mode)), model),
            None => Session::new(sched, model),
        };
        session.with_watchdog(watchdog)
    }
}

fn lookup_kind(name: &str) -> Result<SchedulerKind, String> {
    // Registry names are lowercase already; skipping the copy for them
    // saves ~5% of `Backend::new` + 64 opens (paired A/B, 2-core Xeon).
    let lower = match name.bytes().any(|b| b.is_ascii_uppercase()) {
        true => std::borrow::Cow::Owned(name.to_ascii_lowercase()),
        false => std::borrow::Cow::Borrowed(name),
    };
    let canonical = if lower == "semi-cdb" {
        "semicdb"
    } else {
        &lower
    };
    SchedulerKind::from_short_name(canonical).ok_or_else(|| format!("unknown scheduler '{name}'"))
}

/// Installs `SIGINT` + `SIGTERM` handlers that request a graceful drain
/// (same stop flag as `fjs soak`, so either command can be supervised the
/// same way). Non-Unix targets get a no-op; the journal survives a hard
/// kill anyway.
#[cfg(unix)]
#[allow(clippy::fn_to_numeric_cast)] // signal(2) takes the handler as an address
pub fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_signum: i32) {
        crate::soak::request_stop();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

/// No-op on non-Unix targets (see the Unix version).
#[cfg(not(unix))]
pub fn install_drain_handlers() {}

/// Feeds a buffered reader to the backend line by line, writing replies
/// to `replies` (if given) and stopping on end-of-input, a requested stop
/// (signal) or a server halt. Byte offsets are tracked exactly as the
/// batch trace reader does, so quarantine attribution matches. All lines
/// belong to one logical connection, so replies come back in submission
/// order.
pub fn run_stream<R: BufRead>(
    backend: &mut Backend,
    mut src: R,
    mut replies: Option<&mut dyn Write>,
) -> Result<(), String> {
    let mut offset = 0u64;
    let mut buf = String::new();
    let mut out: Vec<(u64, String)> = Vec::new();
    let throttle = backend.opts().throttle_ms;
    loop {
        if stop_requested() || backend.halted() {
            break;
        }
        buf.clear();
        let n = src
            .read_line(&mut buf)
            .map_err(|e| format!("reading input: {e}"))?;
        if n == 0 {
            break;
        }
        let line_offset = offset;
        offset += n as u64;
        if throttle > 0 {
            std::thread::sleep(std::time::Duration::from_millis(throttle));
        }
        backend.submit(0, line_offset, &buf, &mut out)?;
        write_replies(&mut out, &mut replies)?;
    }
    backend.settle(&mut out)?;
    write_replies(&mut out, &mut replies)?;
    Ok(())
}

fn write_replies(
    out: &mut Vec<(u64, String)>,
    replies: &mut Option<&mut dyn Write>,
) -> Result<(), String> {
    if let Some(w) = replies.as_deref_mut() {
        for (_conn, reply) in out.iter() {
            writeln!(w, "{reply}").map_err(|e| format!("writing reply: {e}"))?;
        }
        if !out.is_empty() {
            w.flush().map_err(|e| format!("writing reply: {e}"))?;
        }
    }
    out.clear();
    Ok(())
}

/// Serves the process's stdin, replying on stdout. Reads happen on a
/// helper thread feeding a channel, so a `SIGINT`/`SIGTERM` drain request
/// is honoured within ~100ms even while blocked waiting for input (a
/// blocking `read_line` would swallow the signal until the next line).
pub fn run_stdin(backend: &mut Backend) -> Result<(), String> {
    use std::sync::mpsc;
    use std::time::Duration;

    let (tx, rx) = mpsc::channel::<(u64, String)>();
    std::thread::spawn(move || {
        let stdin = io::stdin();
        let mut src = stdin.lock();
        let mut offset = 0u64;
        let mut buf = String::new();
        loop {
            buf.clear();
            match src.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if tx.send((offset, buf.clone())).is_err() {
                        break;
                    }
                    offset += n as u64;
                }
            }
        }
    });

    let stdout = io::stdout();
    let mut stdout = stdout.lock();
    let mut replies: Option<&mut dyn Write> = Some(&mut stdout);
    let mut out: Vec<(u64, String)> = Vec::new();
    let throttle = backend.opts().throttle_ms;
    loop {
        if stop_requested() || backend.halted() {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok((offset, line)) => {
                if throttle > 0 {
                    std::thread::sleep(Duration::from_millis(throttle));
                }
                backend.submit(0, offset, &line, &mut out)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                backend.pump(&mut out)?;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        write_replies(&mut out, &mut replies)?;
    }
    backend.settle(&mut out)?;
    write_replies(&mut out, &mut replies)?;
    Ok(())
}

/// Outcome of an in-process [`run_script`] call.
pub struct ScriptOutcome {
    /// One reply per non-blank request line, in order.
    pub replies: Vec<String>,
    /// The decision log, as written.
    pub log: String,
    /// Final accounting.
    pub summary: ServeSummary,
}

/// Runs a protocol script through an in-memory [`Backend`] with
/// `opts` (any `workers` value) — the entry point used by benches and
/// tests (no files, no sockets, no journal; wire one in through
/// [`Backend::new`] directly). All lines belong to one connection, and
/// the script stops at the first halt, like the file frontend.
pub fn run_script(script: &str, opts: ServeOptions) -> Result<ScriptOutcome, String> {
    let mut backend = Backend::new(opts, Sink::Mem(Vec::new()), None);
    let mut out: Vec<(u64, String)> = Vec::new();
    let mut offset = 0u64;
    for line in script.split_inclusive('\n') {
        backend.submit(0, offset, line, &mut out)?;
        offset += line.len() as u64;
        if backend.halted() {
            break;
        }
    }
    backend.settle(&mut out)?;
    let replies = out.into_iter().map(|(_, reply)| reply).collect();
    let (summary, log) = backend.finish()?;
    let log = String::from_utf8_lossy(log.mem().unwrap_or_default()).into_owned();
    Ok(ScriptOutcome {
        replies,
        log,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::service::ServeEvent;
    use fjs_core::supervise::with_quiet_panics;

    fn script_outcome(script: &str) -> ScriptOutcome {
        run_script(script, ServeOptions::default()).expect("script runs")
    }

    /// Feeds the first `take` lines of `script` to `backend` as one
    /// connection (all of them, even after a halt) and returns the
    /// replies.
    fn feed(backend: &mut Backend, script: &str, take: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut offset = 0u64;
        for line in script.split_inclusive('\n').take(take) {
            backend.submit(0, offset, line, &mut out).unwrap();
            offset += line.len() as u64;
        }
        backend.settle(&mut out).unwrap();
        out.into_iter().map(|(_, reply)| reply).collect()
    }

    #[test]
    fn multiplexes_sessions_and_streams_decisions() {
        let out = script_outcome(
            "# demo\n\
             open a eager\n\
             open b lazy\n\
             job a 0,0,2\n\
             job b 0,5,1\n\
             job a 1,3,1\n\
             stats a\n\
             close a\n\
             close b\n",
        );
        assert!(out.replies[0].starts_with("ok open a scheduler="));
        assert!(out.replies[1].starts_with("ok open b scheduler="));
        assert!(out.replies[2].starts_with("ok job a "));
        assert!(out.replies[5].starts_with("ok stats a "));
        assert!(out.replies[6].starts_with("ok close a "));
        assert_eq!(out.summary.opened, 2);
        assert_eq!(out.summary.closed, 2);
        assert_eq!(out.summary.jobs, 3);
        // Every session's stream appears in the log, prefixed by its sid,
        // and ends with a close line carrying the final span.
        assert!(out.log.lines().any(|l| l.starts_with("a start ")));
        assert!(out.log.lines().any(|l| l.starts_with("b start ")));
        assert!(out.log.lines().any(|l| l.starts_with("a close span=")));
        assert!(out.log.lines().any(|l| l.starts_with("b close span=")));
    }

    #[test]
    fn session_cap_sheds_with_structured_busy() {
        let opts = ServeOptions {
            max_sessions: 1,
            ..ServeOptions::default()
        };
        let out = run_script("open a eager\nopen b eager\nclose a\n", opts).unwrap();
        assert_eq!(out.replies[1], "busy open b sessions=1 max-sessions=1");
        assert_eq!(out.summary.shed, 1);
        assert_eq!(out.summary.opened, 1);
    }

    #[test]
    fn pending_cap_sheds_jobs_but_keeps_session_alive() {
        let opts = ServeOptions {
            max_pending: 2,
            ..ServeOptions::default()
        };
        // The lazy scheduler keeps jobs pending until their deadline, so
        // same-instant offers accumulate residents.
        let out = run_script(
            "open a lazy\n\
             job a 0,100,1\n\
             job a 0,100,1\n\
             job a 0,100,1\n\
             close a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[1].starts_with("ok job a "));
        assert!(out.replies[2].starts_with("ok job a "));
        assert_eq!(out.replies[3], "busy job a pending=2 max-pending=2");
        assert_eq!(out.summary.shed, 1);
        assert_eq!(out.summary.jobs, 2);
        // The shed job is gone but the session still closes cleanly.
        assert!(out.replies[4].contains("verdict=completed"));
    }

    #[test]
    fn poisoned_session_is_contained_and_neighbours_unaffected() {
        let out = with_quiet_panics(|| {
            script_outcome(
                "open good eager\n\
                 open bad poison:panic:eager\n\
                 job good 0,0,1\n\
                 job bad 0,0,1\n\
                 job bad 1,1,1\n\
                 job good 1,1,1\n\
                 close bad\n\
                 close good\n",
            )
        });
        // The poisoning offer gets a typed verdict in a structured reply...
        assert!(
            out.replies[3].starts_with("err job bad verdict=panicked:"),
            "{}",
            out.replies[3]
        );
        // ...further offers are refused with the terminal verdict...
        assert!(
            out.replies[4].starts_with("err job bad verdict=panicked"),
            "{}",
            out.replies[4]
        );
        // ...and the close line reports it.
        assert!(
            out.replies[6].contains("verdict=panicked"),
            "{}",
            out.replies[6]
        );
        // The healthy neighbour is untouched: same decisions as running alone.
        let alone = script_outcome(
            "open good eager\n\
             job good 0,0,1\n\
             job good 1,1,1\n\
             close good\n",
        );
        let good_lines = |log: &str| {
            log.lines()
                .filter(|l| l.starts_with("good "))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(good_lines(&out.log), good_lines(&alone.log));
    }

    #[test]
    fn hung_scheduler_is_contained_by_the_watchdog() {
        let opts = ServeOptions {
            watchdog_events: 200,
            ..ServeOptions::default()
        };
        let out = run_script(
            "open spin poison:hang:eager\n\
             job spin 0,5,1\n\
             job spin 1,6,1\n\
             close spin\n",
            opts,
        )
        .unwrap();
        assert!(
            out.replies.iter().any(|r| r.contains("verdict=timed-out")),
            "{:?}",
            out.replies
        );
    }

    #[test]
    fn malformed_lines_are_dead_lettered_with_provenance() {
        let script = "open a eager\njob a bogus\njob a 0,5,1\nclose a\n";
        let out = script_outcome(script);
        assert_eq!(out.summary.quarantined, 1);
        assert_eq!(out.summary.dead.len(), 1);
        let d = &out.summary.dead[0];
        assert_eq!((d.line, d.offset), (2, 13));
        assert_eq!(d.raw, "job a bogus");
        assert_eq!(
            d.to_string(),
            "line 2 (byte 13): job a bogus",
            "dead-letter rendering is the golden trace-reader format"
        );
        assert!(out.replies[1].starts_with("err line=2 offset=13: "));
        // The well-formed remainder of the stream still ran.
        assert_eq!(out.summary.jobs, 1);
        assert_eq!(out.summary.closed, 1);
    }

    #[test]
    fn halt_policy_stops_the_stream() {
        let opts = ServeOptions {
            quarantine: Quarantine::Halt,
            ..ServeOptions::default()
        };
        let out = run_script("open a eager\nnonsense\njob a 0,5,1\n", opts).unwrap();
        assert!(out.summary.halted.is_some());
        // Nothing after the halt line was processed.
        assert_eq!(out.summary.jobs, 0);
    }

    #[test]
    fn validation_errors_carry_line_and_offset() {
        let out = script_outcome(
            "open a eager\n\
             job a 0,5,1\n\
             job a 5,9,1\n\
             job a 2,9,1\n\
             close a\n",
        );
        // Arrival regression is a session-level reject attributed to the
        // protocol stream position (line 4 starts at byte 37).
        assert!(
            out.replies[3].starts_with("err job a line=4 offset=37: "),
            "{}",
            out.replies[3]
        );
        assert!(out.replies[3].contains("arrival"), "{}", out.replies[3]);
        // The reject did not damage the session.
        assert!(out.replies[4].contains("verdict=completed"));
    }

    #[test]
    fn resume_replays_to_byte_identical_log() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-serve-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        let script = "open a eager\n\
                      open b lazy\n\
                      job a 0,0,2\n\
                      job b 0,4,1\n\
                      job a 1,3,1\n\
                      job b 2,6,2\n\
                      close a\n\
                      close b\n";

        // Reference: one uninterrupted run, journaled.
        let journal = fjs_core::service::ServeJournal::create(&journal_path)
            .unwrap()
            .with_sync_every(1);
        let mut server = Backend::new(
            ServeOptions::default(),
            Sink::Mem(Vec::new()),
            Some(journal),
        );
        feed(&mut server, script, usize::MAX);
        let (_, sink) = server.finish().unwrap();
        let reference = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();

        // Crash simulation: replay the journal as written after only the
        // first 5 protocol lines, then feed the rest of the input past the
        // cursor — the resumed log must equal the reference byte for byte.
        let journal2_path = dir.join("serve2.journal");
        let journal2 = fjs_core::service::ServeJournal::create(&journal2_path)
            .unwrap()
            .with_sync_every(1);
        let mut first = Backend::new(ServeOptions::default(), Sink::Null, Some(journal2));
        feed(&mut first, script, 5);
        drop(first); // SIGKILL stand-in: no drain, no close events.

        let events = fjs_core::service::ServeJournal::load(&journal2_path).unwrap();
        let mut resumed = Backend::new(ServeOptions::default(), Sink::Mem(Vec::new()), None);
        resumed.resume(&events).unwrap();
        assert_eq!(resumed.cursor(), 5);
        feed(&mut resumed, script, usize::MAX);
        let (_, sink) = resumed.finish().unwrap();
        let resumed_log = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();
        assert_eq!(resumed_log, reference, "resume must be byte-identical");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed journal append answers its request `err fatal: …` and
    /// every later one `err halted`, never `ok`, at any worker count;
    /// nothing after it reaches the log, the drain's closes included.
    #[cfg(target_os = "linux")]
    #[test]
    fn unjournaled_requests_are_never_answered_ok() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-unjournaled-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let script = "open a eager\njob a 0,5,1\njob a 1,6,1\n";
        for workers in [1usize, 2] {
            // `open_append`, not `create`: `create` fsyncs, and fsync on
            // /dev/full fails with EINVAL before any append is tried.
            let journal = fjs_core::service::ServeJournal::open_append("/dev/full").unwrap();
            let opts = ServeOptions {
                workers,
                ..ServeOptions::default()
            };
            // A file log: `finish` fails on the journal's final sync,
            // after the log is flushed.
            let log_path = dir.join(format!("w{workers}.log"));
            let log = Sink::File(io::BufWriter::new(
                std::fs::File::create(&log_path).unwrap(),
            ));
            let mut backend = Backend::new(opts, log, Some(journal));
            let replies = feed(&mut backend, script, usize::MAX);
            assert_eq!(replies.len(), 3, "workers={workers}: {replies:?}");
            assert!(
                replies[0].starts_with("err fatal: journal: ")
                    && replies[0].contains("No space left on device"),
                "workers={workers}: {replies:?}"
            );
            assert_eq!(
                replies[1..],
                ["err halted", "err halted"],
                "workers={workers}"
            );
            assert!(backend.halted());
            assert!(backend.finish().is_err(), "workers={workers}");
            // The open failed before it was logged, and the jobs that ran
            // at two workers before the halt was seen never reach the
            // log: no session line at any width.
            assert_eq!(
                std::fs::read_to_string(&log_path).unwrap(),
                "",
                "workers={workers}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Many connections interleaved: each gets exactly its own replies,
    /// in its own order, and the log equals the single-connection run.
    #[test]
    fn replies_route_per_connection() {
        let conns = 40u64;
        let mut lines = Vec::new();
        for verb in ["open", "job", "close"] {
            for c in 0..conns {
                lines.push((
                    c,
                    match verb {
                        "open" => format!("open t{c}.s eager\n"),
                        "job" => format!("job t{c}.s 0,5,1\n"),
                        _ => format!("close t{c}.s\n"),
                    },
                ));
            }
        }
        let script: String = lines.iter().map(|(_, l)| l.as_str()).collect();
        for workers in [1usize, 2] {
            let opts = ServeOptions {
                workers,
                ..ServeOptions::default()
            };
            let reference = run_script(&script, opts.clone()).unwrap().log;
            let mut backend = Backend::new(opts, Sink::Mem(Vec::new()), None);
            let mut out = Vec::new();
            let mut offsets = vec![0u64; conns as usize];
            for (c, line) in &lines {
                backend
                    .submit(*c, offsets[*c as usize], line, &mut out)
                    .unwrap();
                offsets[*c as usize] += line.len() as u64;
            }
            backend.settle(&mut out).unwrap();
            assert_eq!(out.len(), lines.len(), "workers={workers}");
            for c in 0..conns {
                let mine: Vec<&str> = out
                    .iter()
                    .filter(|(k, _)| *k == c)
                    .map(|(_, r)| r.as_str())
                    .collect();
                assert_eq!(mine.len(), 3, "workers={workers} conn={c}: {mine:?}");
                for (reply, verb) in mine.iter().zip(["open", "job", "close"]) {
                    let want = format!("ok {verb} t{c}.s ");
                    assert!(reply.starts_with(&want), "workers={workers}: {mine:?}");
                }
            }
            let (_, sink) = backend.finish().unwrap();
            assert_eq!(
                String::from_utf8_lossy(sink.mem().unwrap()),
                reference,
                "workers={workers}"
            );
        }
    }

    /// A journaled open whose spec this build cannot parse fails the
    /// resume instead of silently dropping the session's events.
    #[test]
    fn resume_rejects_an_unknown_journaled_spec() {
        let events = [
            ServeEvent::Open {
                session: "a".into(),
                scheduler: "no-such-kind".into(),
                line: 1,
            },
            ServeEvent::Job {
                session: "a".into(),
                line: 2,
                arrival: 0.0,
                deadline: 5.0,
                length: 1.0,
            },
        ];
        for workers in [1usize, 2] {
            let opts = ServeOptions {
                workers,
                ..ServeOptions::default()
            };
            let mut backend = Backend::new(opts, Sink::Mem(Vec::new()), None);
            let err = backend.resume(&events).unwrap_err();
            assert_eq!(
                err, "resume: replaying open a: unknown scheduler 'no-such-kind'",
                "workers={workers}"
            );
        }
    }

    /// Replayed offers were admitted by the live run, so resuming under
    /// tighter limits must not shed them: the resumed log equals the
    /// log of an uninterrupted run at the limits the journal was written
    /// under.
    #[test]
    fn replay_ignores_admission_limits() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-replay-limits-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        // Lazy keeps same-instant jobs resident: three in t.a, one in t.b.
        let script = "open t.a lazy\n\
                      open t.b lazy\n\
                      job t.a 0,100,1\n\
                      job t.a 0,100,1\n\
                      job t.b 0,100,1\n\
                      job t.a 0,100,1\n";
        let journal = fjs_core::service::ServeJournal::create(&journal_path).unwrap();
        let mut live = Backend::new(
            ServeOptions::default(),
            Sink::Mem(Vec::new()),
            Some(journal),
        );
        feed(&mut live, script, usize::MAX);
        let (summary, sink) = live.finish().unwrap();
        assert_eq!(summary.jobs, 4);
        let reference = sink.mem().unwrap().to_vec();

        // A SIGKILL stand-in: the journal without the drain's closes.
        let events: Vec<_> = fjs_core::service::ServeJournal::load(&journal_path)
            .unwrap()
            .into_iter()
            .filter(|ev| !matches!(ev, ServeEvent::Close { .. }))
            .collect();
        assert_eq!(events.len(), 6);
        let tight = [
            ServeOptions {
                max_pending: 1,
                ..ServeOptions::default()
            },
            ServeOptions {
                tenant_quotas: TenantQuotas {
                    max_pending: 1,
                    max_bytes: 0,
                },
                ..ServeOptions::default()
            },
        ];
        for opts in tight {
            for workers in [1usize, 2] {
                let opts = ServeOptions {
                    workers,
                    ..opts.clone()
                };
                let mut resumed = Backend::new(opts.clone(), Sink::Mem(Vec::new()), None);
                resumed.resume(&events).unwrap();
                assert!(feed(&mut resumed, script, usize::MAX).is_empty());
                let (summary, sink) = resumed.finish().unwrap();
                assert_eq!(summary.shed + summary.tenant_shed, 0, "{opts:?}");
                assert_eq!(sink.mem().unwrap(), reference, "{opts:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_spec_understands_specs() {
        assert!(parse_spec("eager").is_ok());
        assert!(parse_spec("batch+").is_ok());
        assert!(parse_spec("poison:panic:eager").is_ok());
        assert!(parse_spec("poison:hang:lazy").is_ok());
        assert!(parse_spec("poison:frogs:eager").is_err());
        assert!(parse_spec("nonesuch").is_err());
        let session = parse_spec("poison:panic:eager").unwrap().build(1000);
        assert_eq!(session.scheduler_name(), "Poisoned[panic](Eager)");
    }

    #[test]
    fn tenant_session_cap_sheds_with_structured_busy() {
        let opts = ServeOptions {
            tenant_max_sessions: 1,
            ..ServeOptions::default()
        };
        let out = run_script(
            "open t.a eager\nopen t.b eager\nopen u.a eager\nclose t.a\nclose u.a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[0].starts_with("ok open t.a "));
        assert_eq!(
            out.replies[1],
            "busy open t.b tenant=t tenant-sessions=1 max-tenant-sessions=1"
        );
        // Another tenant is unaffected by t's cap.
        assert!(out.replies[2].starts_with("ok open u.a "));
        assert_eq!(out.summary.tenant_shed, 1);
        assert_eq!(out.summary.opened, 2);
    }

    #[test]
    fn tenant_pending_quota_spans_sibling_sessions() {
        let opts = ServeOptions {
            tenant_quotas: fjs_core::service::TenantQuotas {
                max_pending: 1,
                max_bytes: 0,
            },
            ..ServeOptions::default()
        };
        // Lazy keeps same-instant jobs resident, so t.a's admitted job
        // counts against the tenant when t.b offers its own.
        let out = run_script(
            "open t.a lazy\n\
             open t.b lazy\n\
             job t.a 0,100,1\n\
             job t.b 0,100,1\n\
             open u.a lazy\n\
             job u.a 0,100,1\n\
             close t.a\nclose t.b\nclose u.a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[2].starts_with("ok job t.a "));
        assert_eq!(
            out.replies[3],
            "busy job t.b tenant=t tenant-pending=1 max-tenant-pending=1"
        );
        // Tenant u is untouched by t's quota.
        assert!(out.replies[5].starts_with("ok job u.a "));
        assert_eq!(out.summary.tenant_shed, 1);
    }

    #[test]
    fn breaker_trips_refuses_and_recovers_end_to_end() {
        let opts = ServeOptions {
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 4,
            },
            ..ServeOptions::default()
        };
        let out = with_quiet_panics(|| {
            run_script(
                "open h.a poison:panic:eager\n\
                 job h.a 0,1,1\n\
                 close h.a\n\
                 open h.b poison:panic:eager\n\
                 job h.b 0,1,1\n\
                 close h.b\n\
                 open h.c eager\n\
                 open u.a eager\n\
                 job u.a 0,5,1\n\
                 job u.a 1,6,1\n\
                 close u.a\n\
                 open h.d eager\n\
                 job h.d 0,5,2\n\
                 close h.d\n\
                 open h.e eager\n\
                 close h.e\n",
                opts,
            )
            .unwrap()
        });
        // Two poisoned closes trip tenant h's breaker...
        assert_eq!(
            out.replies[6],
            "busy open h.c breaker-open tenant=h failures=2 retry-after-events=4"
        );
        // ...four healthy events later the cooldown elapses and h.d is
        // admitted as the half-open probe; its completed close re-closes
        // the breaker, so h.e is admitted without restriction.
        assert!(
            out.replies[11].starts_with("ok open h.d "),
            "{:?}",
            out.replies
        );
        assert!(out.replies[13].contains("verdict=completed"));
        assert!(out.replies[14].starts_with("ok open h.e "));
        assert_eq!(out.summary.breaker_trips, 1);
        assert_eq!(out.summary.breaker_refused, 1);
    }

    #[test]
    fn governor_output_is_byte_identical_across_worker_counts() {
        let script = "open t.a lazy\n\
                      open t.b lazy\n\
                      job t.a 0,100,1\n\
                      job t.b 0,100,1\n\
                      open h.a poison:panic:eager\n\
                      job h.a 0,1,1\n\
                      close h.a\n\
                      open h.b poison:panic:eager\n\
                      job h.b 0,1,1\n\
                      close h.b\n\
                      open h.c eager\n\
                      open u.a eager\n\
                      job u.a 0,5,1\n\
                      job u.a 1,6,1\n\
                      close u.a\n\
                      open h.d eager\n\
                      job h.d 0,5,2\n\
                      close h.d\n\
                      stats\n\
                      close t.a\n\
                      close t.b\n";
        let opts = |workers: usize| ServeOptions {
            workers,
            tenant_max_sessions: 3,
            tenant_quotas: fjs_core::service::TenantQuotas {
                max_pending: 1,
                max_bytes: 64,
            },
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 4,
            },
            ..ServeOptions::default()
        };
        // The golden fixtures were recorded from the single-threaded
        // server that `--workers 1` replaced.
        let golden = |ext: &str| match ext {
            "replies" => include_str!("../../tests/golden/serve/governor.replies"),
            "log" => include_str!("../../tests/golden/serve/governor.log"),
            _ => include_str!("../../tests/golden/serve/governor.summary.jsonl"),
        };
        assert_eq!(
            script,
            include_str!("../../tests/golden/serve/governor.script")
        );
        for workers in [1usize, 2, 8] {
            let out = with_quiet_panics(|| run_script(script, opts(workers)).unwrap());
            assert!(
                out.summary.breaker_trips > 0,
                "script must trip the breaker"
            );
            assert!(out.summary.tenant_shed > 0, "script must shed on quota");
            assert_eq!(
                out.replies.join("\n") + "\n",
                golden("replies"),
                "replies must be byte-identical at workers={workers}"
            );
            assert_eq!(
                out.log,
                golden("log"),
                "log must be byte-identical at workers={workers}"
            );
            assert_eq!(
                out.summary.to_jsonl() + "\n",
                golden("summary"),
                "summary must be byte-identical at workers={workers}"
            );
        }
    }

    #[test]
    fn breaker_state_survives_resume_identically() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-breaker-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        let opts = || ServeOptions {
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 100,
            },
            ..ServeOptions::default()
        };
        // Two poisoned sessions trip tenant h live; everything they did
        // is journaled (opens, the poisoning offers, the closes).
        let script = "open h.a poison:panic:eager\n\
                      job h.a 0,1,1\n\
                      close h.a\n\
                      open h.b poison:panic:eager\n\
                      job h.b 0,1,1\n\
                      close h.b\n";
        let journal = fjs_core::service::ServeJournal::create(&journal_path)
            .unwrap()
            .with_sync_every(1);
        let mut live = Backend::new(opts(), Sink::Null, Some(journal));
        with_quiet_panics(|| feed(&mut live, script, usize::MAX));
        let probe = "open h.z eager\n";
        let live_reply = feed(&mut live, probe, 1).remove(0);
        drop(live); // SIGKILL stand-in.

        // A resumed daemon must refuse the same open with the same bytes.
        // Re-feed the original input first: the resume cursor skips those
        // lines, then the probe lands at the same position as live.
        let events = fjs_core::service::ServeJournal::load(&journal_path).unwrap();
        let mut resumed = Backend::new(opts(), Sink::Null, None);
        with_quiet_panics(|| resumed.resume(&events).unwrap());
        assert!(feed(&mut resumed, script, usize::MAX).is_empty());
        let resumed_reply = feed(&mut resumed, probe, 1).remove(0);
        assert_eq!(
            resumed_reply, live_reply,
            "breaker state must replay bit-identically from the journal"
        );
        assert_eq!(
            resumed_reply,
            "busy open h.z breaker-open tenant=h failures=2 retry-after-events=100"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_jsonl_is_flat_schema_v1() {
        let out = script_outcome("open a eager\njob a 0,5,2\nclose a\n");
        let line = out.summary.to_jsonl();
        assert!(
            line.starts_with("{\"v\":1,\"kind\":\"serve-summary\""),
            "{line}"
        );
        for key in [
            "\"tenant_shed\":0",
            "\"breaker_refused\":0",
            "\"breaker_trips\":0",
            "\"oversize_disconnects\":0",
            "\"slow_disconnects\":0",
            "\"peak_writer_queue\":0",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(!line.contains('\n'), "one flat line for JSONL appends");
    }
}
