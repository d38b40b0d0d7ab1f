//! The dispatcher behind `fjs serve`, at every `--workers` value.
//!
//! [`Backend`] keeps the protocol-facing state machine (line numbering,
//! resume cursor, quarantine, admission control, journaling, rendering)
//! on the dispatching thread — where requests are still seen in input
//! order — and ships session work to a [`SessionPool`] sharded by stable
//! tenant hash. At one worker the pool runs its worker inline on this
//! thread, so `--workers 1` takes the same path with no thread and no
//! channel. Three ordering domains make the output independent of the
//! worker count without serializing the actual scheduling work:
//!
//! 1. **Per-session order** — all requests of one session go to one
//!    worker in FIFO order, so each session evolves the same way at any
//!    width (simulation time advances with offers, never with wall
//!    clock).
//! 2. **Global sequence order** — every dispatched request gets a dense
//!    sequence number and a slot in a ring; completed results wait in
//!    their slot until every earlier one is emitted, so decision-log and
//!    journal lines appear in input order: byte-identical at any worker
//!    count (the same index-ordered merge discipline as the sharded
//!    sweep executor).
//! 3. **Per-connection order** — replies are released as soon as all of
//!    the *same connection's* earlier requests have completed. One
//!    tenant's slow offer (a hung scheduler burning its watchdog budget)
//!    delays only its own connection's replies; siblings keep flowing
//!    even while the global log emission waits for the straggler.
//!
//! **Fatal errors.** A request whose decision-log write or journal append
//! fails is answered `err fatal: …` and halts the stream; every later
//! request is answered `err halted` and has no effect on the log or the
//! journal, and neither do the drain's closes. Both rewrites happen when
//! the request is emitted in global order. On a single connection (file,
//! stdin, [`run_script`]) a reply is never released before its request
//! is emitted, so no request there is ever answered `ok` without having
//! been journaled. Across socket connections, a sibling's reply may
//! leave before an earlier straggler fails.
//!
//! **Replay.** [`Backend::resume`] sends journaled requests through
//! [`SessionPool::replay`]: offers skip the admission checks (the live
//! run admitted them), nothing is re-journaled, no reply is rendered, and
//! each result is emitted as soon as it completes.
//!
//! Admission control that needs the *global* open-session set
//! (`--max-sessions`, duplicate opens, unknown sids, tenant session caps)
//! runs here against a session→worker directory maintained synchronously
//! in input order; the open spec is parsed here too, so directory
//! membership never depends on an asynchronous worker outcome.
//! Per-session checks (`--max-pending`, tenant quotas, terminal verdicts)
//! run on the owning worker, which sees the session's exact state after
//! all prior requests. The dispatch window (requests in flight across all
//! workers) is capped at `--max-pending`; hitting it blocks the frontend
//! instead of shedding, because shedding on a timing-dependent condition
//! would break determinism.
//!
//! [`run_script`]: super::run_script

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use fjs_core::service::{
    stable_shard, tenant_of, Decision, JobOffer, OpenDecision, PoolReply, PoolRequest, ServeEvent,
    ServeJournal, SessionPool, TenantBreakers,
};
use fjs_core::time::{dur, t, Dur};
use fjs_workloads::{DeadLetter, Quarantine};

use super::protocol::{parse_request, Request};
use super::{parse_spec, wire, ServeOptions, ServeSummary, Sink};

/// How long one blocking wait on the results channel lasts before the
/// pool is re-checked (requests always finish — watchdogs bound even
/// hung schedulers — so this only shapes shutdown latency).
const PUMP_TICK: Duration = Duration::from_millis(100);

/// A session id, shared between the directory and the requests in
/// flight so a request costs no copy of it.
type Sid = Rc<str>;

/// What a request asks of its session. Kept dispatcher-side while the
/// worker runs it; once admitted, it is also the request's journal
/// record.
enum Kind {
    Open {
        /// The scheduler spec, echoed into the journal record (empty when
        /// there is no journal, or for a replayed open, which is never
        /// re-journaled).
        spec: String,
    },
    Job {
        arrival: f64,
        deadline: f64,
        length: f64,
    },
    Close,
    Stats,
}

/// A request in flight on a worker.
struct Inflight {
    sid: Sid,
    line: u64,
    offset: u64,
    /// `(conn, conn_seq)` to route the reply; `None` for replay and
    /// drain, which are answered to nobody.
    reply_to: Option<(u64, u64)>,
    kind: Kind,
    replay: bool,
}

/// A completed request, waiting for its turn in global order.
struct Block {
    /// The session the request reached; `None` for a request answered
    /// without pool work.
    sid: Option<Sid>,
    line: u64,
    reply_to: Option<(u64, u64)>,
    decisions: Vec<Decision>,
    /// `(final span, verdict label, completed?)` when the session closed.
    closed: Option<(Dur, &'static str, bool)>,
    /// The journal-equivalent event this request was, if admitted. It
    /// ticks the breaker and the summary when emitted, and is appended to
    /// the journal unless `replay`.
    record: Option<Kind>,
    replay: bool,
    /// Stops the stream once emitted (a `halt`-policy quarantine).
    halts: Option<String>,
}

impl Block {
    fn reply_only(reply_to: Option<(u64, u64)>) -> Block {
        Block {
            sid: None,
            line: 0,
            reply_to,
            decisions: Vec::new(),
            closed: None,
            record: None,
            replay: false,
            halts: None,
        }
    }
}

/// One entry of the global sequence ring.
enum Entry {
    Waiting(Inflight),
    Done(Block),
    /// Transient: the entry's request is being rendered.
    Taken,
}

/// A connection's replies not yet released: `parked[i]` answers the
/// connection's request number `emit + i` once it is `Some`.
#[derive(Default)]
struct ConnRing {
    emit: u64,
    parked: VecDeque<Option<String>>,
}

/// Hashes connection ids: the frontends' own counters, never client
/// input, so one multiply spreads them well enough. SipHash on the three
/// ring lookups a request makes cost ~7% of `Backend::new` + 64 opens
/// (paired A/B on a 2-core Xeon).
#[derive(Default)]
struct ConnIdHasher(u64);

impl Hasher for ConnIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The serve backend: see the module docs for the ordering contract.
pub struct Backend {
    opts: ServeOptions,
    pool: SessionPool,
    /// sid → owning worker, maintained synchronously in input order.
    directory: HashMap<Sid, usize>,
    journal: Option<ServeJournal>,
    log: Sink,
    summary: ServeSummary,
    breakers: TenantBreakers,
    line_no: u64,
    /// Input lines `<= cursor` were already replayed from the journal
    /// and are skipped on re-read.
    cursor: u64,
    /// Sequence number of `window[0]`: the oldest request not yet
    /// emitted.
    next_emit: u64,
    window: VecDeque<Entry>,
    /// Reply rings of the live connections.
    conns: HashMap<u64, ConnRing, BuildHasherDefault<ConnIdHasher>>,
    /// Connections whose oldest unreleased reply was set since the last
    /// release, so releasing visits only them (stale or repeated entries
    /// are harmless).
    ready: Vec<u64>,
    /// Set by a failed log write or journal append: nothing is written
    /// after it.
    fatal: bool,
}

impl Backend {
    /// Builds the backend: decisions go to `log`, admitted requests to
    /// `journal` (if any), sessions to `opts.workers` workers.
    pub fn new(opts: ServeOptions, log: Sink, journal: Option<ServeJournal>) -> Backend {
        let watchdog = opts.watchdog_events;
        let factory = Arc::new(move |spec: &str| Ok(parse_spec(spec)?.build(watchdog)));
        let pool = SessionPool::new(opts.workers, opts.max_pending, opts.tenant_quotas, factory);
        let breakers = TenantBreakers::new(opts.breaker);
        // Opens below 1024 sessions never grow the directory; growing it
        // cost ~4% of `Backend::new` + 64 opens (paired A/B, 2-core Xeon).
        let directory = HashMap::with_capacity(opts.max_sessions.min(1024));
        Backend {
            opts,
            pool,
            directory,
            journal,
            log,
            summary: ServeSummary::default(),
            breakers,
            line_no: 0,
            cursor: 0,
            next_emit: 0,
            window: VecDeque::new(),
            conns: HashMap::default(),
            ready: Vec::new(),
            fatal: false,
        }
    }

    /// The options the backend runs with (frontends read the net caps
    /// and the throttle from here).
    pub fn opts(&self) -> &ServeOptions {
        &self.opts
    }

    /// `true` once the stream must stop (halt-policy quarantine or fatal
    /// I/O error); frontends poll this after every line.
    pub fn halted(&self) -> bool {
        self.summary.halted.is_some()
    }

    /// The resume cursor: input lines `<= cursor` are skipped.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    pub(crate) fn summary_mut(&mut self) -> &mut ServeSummary {
        &mut self.summary
    }

    /// True while any dispatched request has not yet been emitted — the
    /// frontend should poll the pool eagerly instead of idling.
    pub fn busy(&self) -> bool {
        !self.window.is_empty()
    }

    fn halt(&mut self, why: String) {
        if self.summary.halted.is_none() {
            self.summary.halted = Some(why);
        }
    }

    /// Sets (or overwrites) the reply to a connection's request; dropped
    /// if the connection was forgotten or the reply already released.
    fn set_reply(&mut self, (conn, conn_seq): (u64, u64), reply: String) {
        let Some(ring) = self.conns.get_mut(&conn) else {
            return;
        };
        let Some(i) = conn_seq.checked_sub(ring.emit) else {
            return;
        };
        if let Some(slot) = ring.parked.get_mut(i as usize) {
            *slot = Some(reply);
            if i == 0 {
                self.ready.push(conn);
            }
        }
    }

    /// Releases the contiguous completed replies of every ready
    /// connection into `out`.
    fn flush_replies(&mut self, out: &mut Vec<(u64, String)>) {
        for conn in self.ready.drain(..) {
            let Some(ring) = self.conns.get_mut(&conn) else {
                continue;
            };
            while let Some(Some(_)) = ring.parked.front() {
                if let Some(Some(reply)) = ring.parked.pop_front() {
                    out.push((conn, reply));
                }
                ring.emit += 1;
            }
        }
    }

    /// Emits the globally contiguous completed blocks at the head of the
    /// window.
    fn flush_blocks(&mut self) {
        while let Some(Entry::Done(_)) = self.window.front() {
            if let Some(Entry::Done(block)) = self.window.pop_front() {
                self.next_emit += 1;
                self.emit(block);
            }
        }
    }

    /// Emits one block in global order: a request answered after the
    /// stream halted becomes `err halted` with no effect; an I/O failure
    /// halts the stream and answers the request `err fatal: …`. After
    /// such a failure no block has any effect, the drain's closes
    /// included: at two or more workers, later requests may already have
    /// changed their sessions without reaching the log.
    fn emit(&mut self, block: Block) {
        let reply_to = block.reply_to;
        if self.halted() {
            if let Some(rt) = reply_to {
                self.set_reply(rt, "err halted".into());
                return;
            }
            if self.fatal {
                return;
            }
        }
        if let Err(why) = self.apply(block) {
            self.fatal = true;
            self.halt(why.clone());
            if let Some(rt) = reply_to {
                self.set_reply(rt, format!("err fatal: {why}"));
            }
        }
    }

    /// Writes a block's log lines, then ticks the breaker and the
    /// summary and appends the journal record — the order an offer takes
    /// effect in.
    fn apply(&mut self, b: Block) -> Result<(), String> {
        if let Some(why) = b.halts {
            self.halt(why);
        }
        let Some(sid) = b.sid else {
            return Ok(());
        };
        for d in &b.decisions {
            self.log_line(format_args!("{sid} {d}"))?;
        }
        if let Some((span, verdict, _)) = b.closed {
            self.log_line(format_args!("{sid} close span={span} verdict={verdict}"))?;
        }
        let Some(record) = b.record else {
            return Ok(());
        };
        match record {
            Kind::Open { .. } => {
                self.summary.opened += 1;
                self.breakers.note_event();
            }
            Kind::Job { .. } => {
                self.breakers.note_event();
                if !b.replay {
                    self.summary.jobs += 1;
                }
            }
            Kind::Close => {
                self.summary.closed += 1;
                let completed = b.closed.is_some_and(|(_, _, c)| c);
                self.breakers.note_close(&sid, completed);
                self.summary.breaker_trips = self.breakers.trips();
            }
            Kind::Stats => {}
        }
        if b.replay {
            return Ok(());
        }
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let (session, line) = (sid.to_string(), b.line);
        let ev = match record {
            Kind::Open { spec } => ServeEvent::Open {
                session,
                scheduler: spec,
                line,
            },
            Kind::Job {
                arrival,
                deadline,
                length,
            } => ServeEvent::Job {
                session,
                line,
                arrival,
                deadline,
                length,
            },
            Kind::Close => ServeEvent::Close { session, line },
            Kind::Stats => return Ok(()),
        };
        journal.append(&ev).map_err(|e| format!("journal: {e}"))
    }

    fn log_line(&mut self, line: std::fmt::Arguments<'_>) -> Result<(), String> {
        self.log
            .write_line(line)
            .map_err(|e| format!("decision log: {e}"))?;
        self.summary.decision_lines += 1;
        Ok(())
    }

    /// Reserves the next global sequence number (the caller pushes its
    /// slot) and, for a live request from `conn`, the connection's next
    /// reply slot.
    fn reserve(&mut self, conn: Option<u64>) -> (u64, Option<(u64, u64)>) {
        let seq = self.next_emit + self.window.len() as u64;
        let reply_to = conn.map(|c| {
            let ring = self.conns.entry(c).or_default();
            ring.parked.push_back(None);
            (c, ring.emit + ring.parked.len() as u64 - 1)
        });
        (seq, reply_to)
    }

    /// Completes a request that needs no pool work at its sequence slot.
    fn complete_immediate_block(&mut self, conn: u64, reply: String, halts: Option<String>) {
        let (_, reply_to) = self.reserve(Some(conn));
        if let Some(rt) = reply_to {
            self.set_reply(rt, reply);
        }
        self.window.push_back(Entry::Done(Block {
            halts,
            ..Block::reply_only(reply_to)
        }));
    }

    /// An immediately answerable request (admission shed, unknown sid,
    /// parse error).
    fn complete_immediate(&mut self, conn: u64, reply: String) {
        self.complete_immediate_block(conn, reply, None);
    }

    /// Waits for one worker result and renders it.
    fn pump_one_blocking(&mut self) {
        loop {
            if let Some((seq, reply)) = self.pool.recv_timeout(PUMP_TICK) {
                self.render(seq, reply);
                return;
            }
            if self.window.is_empty() {
                return;
            }
        }
    }

    /// Drains ready worker results and releases ordered output into
    /// `out` as `(conn, reply)` pairs.
    pub fn pump(&mut self, out: &mut Vec<(u64, String)>) -> Result<(), String> {
        // Every outstanding result has an entry in the window, so an
        // empty window means there is nothing to receive.
        while !self.window.is_empty() {
            let Some((seq, reply)) = self.pool.try_recv() else {
                break;
            };
            self.render(seq, reply);
        }
        self.flush_blocks();
        self.flush_replies(out);
        Ok(())
    }

    /// Emits what it can, waiting for worker results until at most
    /// `len` requests are left in the window. Replies are not released.
    fn shrink_window(&mut self, len: usize) {
        loop {
            self.flush_blocks();
            if self.window.len() <= len {
                return;
            }
            self.pump_one_blocking();
        }
    }

    /// Blocks until every submitted request has been emitted, without
    /// releasing replies. Afterwards the breaker and the summary reflect
    /// all prior input in order.
    fn settle_blocks(&mut self) {
        self.shrink_window(0);
    }

    /// Blocks until every submitted request has completed, then releases
    /// all ordered output.
    pub fn settle(&mut self, out: &mut Vec<(u64, String)>) -> Result<(), String> {
        self.settle_blocks();
        self.flush_replies(out);
        Ok(())
    }

    /// Drops a disconnected connection's reply state; replies still in
    /// flight for it are discarded on arrival.
    pub fn forget_conn(&mut self, conn: u64) {
        self.conns.remove(&conn);
    }

    /// Renders a worker reply into its block and the routed reply, and
    /// emits the block if every earlier request has been emitted.
    fn render(&mut self, seq: u64, reply: PoolReply) {
        let Some(i) = seq.checked_sub(self.next_emit).map(|i| i as usize) else {
            return;
        };
        let Some(Entry::Waiting(meta)) = self
            .window
            .get_mut(i)
            .map(|s| std::mem::replace(s, Entry::Taken))
        else {
            return;
        };
        let Inflight {
            sid,
            line,
            offset,
            reply_to,
            kind,
            replay,
        } = meta;
        // Replayed and drain requests are answered to nobody.
        let want = reply_to.is_some();
        let mut block = Block {
            reply_to,
            line,
            replay,
            ..Block::reply_only(None)
        };
        let text = match (kind, reply) {
            (kind @ Kind::Open { .. }, PoolReply::Opened { name }) => {
                block.record = Some(kind);
                want.then(|| wire::open_ok(&sid, &name))
            }
            (Kind::Open { .. }, PoolReply::OpenFailed { error }) => {
                // Can't happen after the spec check; keep the directory
                // honest.
                self.directory.remove(&*sid);
                Some(wire::open_err(&sid, &error))
            }
            (
                kind @ Kind::Job { .. },
                PoolReply::OfferAdmitted {
                    id,
                    span,
                    decisions,
                },
            ) => {
                block.decisions = decisions;
                block.record = Some(kind);
                want.then(|| wire::job_ok(&sid, id, span))
            }
            (kind @ Kind::Job { .. }, PoolReply::OfferPoisoned { verdict, decisions }) => {
                // The offer mutated the session before poisoning it, so
                // it is journaled exactly like an admitted job.
                block.decisions = decisions;
                block.record = Some(kind);
                want.then(|| wire::job_poisoned(&sid, &verdict))
            }
            (Kind::Job { .. }, PoolReply::OfferTerminal { verdict }) => {
                Some(wire::job_terminal(&sid, &verdict))
            }
            (Kind::Job { .. }, PoolReply::OfferShed { resident }) => {
                self.summary.shed += 1;
                Some(wire::job_busy(&sid, resident, self.opts.max_pending))
            }
            (
                Kind::Job { .. },
                PoolReply::OfferTenantShed {
                    tenant,
                    cause,
                    used,
                    limit,
                },
            ) => {
                self.summary.tenant_shed += 1;
                Some(wire::job_tenant_busy(&sid, &tenant, cause, used, limit))
            }
            (Kind::Job { .. }, PoolReply::OfferRejected { error, decisions }) => {
                block.decisions = decisions;
                Some(wire::job_rejected(&sid, line, offset, &error))
            }
            (
                Kind::Close,
                PoolReply::Closed {
                    verdict,
                    span,
                    jobs,
                    decisions,
                },
            ) => {
                block.decisions = decisions;
                block.closed = Some((span, verdict.label(), verdict.is_completed()));
                block.record = Some(Kind::Close);
                want.then(|| wire::close_ok(&sid, span, jobs, verdict.label()))
            }
            (Kind::Stats, PoolReply::Stats(s)) => Some(wire::stats_ok(
                &sid,
                s.span,
                s.pending,
                s.running,
                s.retained,
                s.peak_retained,
                s.events_total,
            )),
            (kind, PoolReply::NoSession) => {
                let verb = match kind {
                    Kind::Open { .. } => "open",
                    Kind::Job { .. } => "job",
                    Kind::Close => "close",
                    Kind::Stats => "stats",
                };
                Some(wire::no_session(verb, &sid))
            }
            (_, other) => {
                // A worker answered out of protocol — unrecoverable.
                self.halt(format!("worker protocol violation for {sid}: {other:?}"));
                None
            }
        };
        block.sid = Some(sid);
        if let (Some(rt), Some(text)) = (reply_to, text) {
            self.set_reply(rt, text);
        }
        if i == 0 {
            // Head of line: emit now instead of parking the block for
            // `flush_blocks` (~3% of `Backend::new` + 64 opens, paired
            // A/B on a 2-core Xeon).
            self.window.pop_front();
            self.next_emit += 1;
            self.emit(block);
        } else {
            self.window[i] = Entry::Done(block);
        }
    }

    /// Sends a request to `worker` under the next sequence slot, first
    /// waiting for room in the dispatch window.
    fn submit_pool(
        &mut self,
        conn: Option<u64>,
        worker: usize,
        req: PoolRequest,
        meta: Inflight,
    ) -> Result<(), String> {
        self.shrink_window(self.opts.max_pending.max(1) - 1);
        let replay = meta.replay;
        let (seq, reply_to) = self.reserve(conn);
        self.window
            .push_back(Entry::Waiting(Inflight { reply_to, ..meta }));
        let sent = if replay {
            self.pool.replay(worker, seq, req)
        } else {
            self.pool.submit(worker, seq, req)
        };
        sent.map_err(|e| format!("worker pool: {e}"))
    }

    /// Handles one raw input line from `conn` starting at byte `offset`
    /// in that connection's stream. Blank/comment lines and lines skipped
    /// by the resume cursor get no reply; completed replies (possibly for
    /// other connections) are appended to `out` as `(conn, reply)` pairs.
    /// `offset` and the line counter attribute quarantined lines exactly
    /// (same provenance contract as the batch trace reader's dead
    /// letters).
    pub fn submit(
        &mut self,
        conn: u64,
        offset: u64,
        raw: &str,
        out: &mut Vec<(u64, String)>,
    ) -> Result<(), String> {
        self.line_no += 1;
        self.summary.lines += 1;
        if self.line_no <= self.cursor {
            return self.pump(out);
        }
        if self.halted() {
            self.complete_immediate(conn, "err halted".into());
            return self.pump(out);
        }
        let raw = raw.trim_end_matches('\n').trim_end_matches('\r');
        match parse_request(raw) {
            Ok(None) => {}
            Ok(Some(req)) => {
                self.summary.requests += 1;
                self.dispatch(conn, offset, req)?;
            }
            Err(reason) => self.quarantine_line(conn, offset, raw, reason),
        }
        self.pump(out)
    }

    fn quarantine_line(&mut self, conn: u64, offset: u64, raw: &str, reason: String) {
        let line = self.line_no;
        let reply = format!("err line={line} offset={offset}: {reason}");
        match self.opts.quarantine {
            Quarantine::Halt => {
                let why = format!("line {line} (byte {offset}): {reason}");
                self.complete_immediate_block(conn, reply, Some(why));
                // Nothing after this line may start: wait until it is
                // emitted, so the halt is visible to the next line.
                self.settle_blocks();
                return;
            }
            Quarantine::Skip => self.summary.quarantined += 1,
            Quarantine::DeadLetter => {
                self.summary.quarantined += 1;
                self.summary.dead.push(DeadLetter {
                    line: line as usize,
                    offset,
                    raw: raw.to_string(),
                });
            }
        }
        self.complete_immediate(conn, reply);
    }

    fn dispatch(&mut self, conn: u64, offset: u64, req: Request) -> Result<(), String> {
        let line = self.line_no;
        let live = |sid: Sid, kind: Kind| Inflight {
            sid,
            line,
            offset,
            reply_to: None,
            kind,
            replay: false,
        };
        match req {
            Request::Open { sid, spec } => {
                // Admission order: duplicate → global cap → tenant cap →
                // breaker → spec validation.
                if self.directory.contains_key(sid.as_str()) {
                    self.complete_immediate(conn, wire::open_err(&sid, "session already open"));
                    return Ok(());
                }
                if self.directory.len() >= self.opts.max_sessions {
                    self.summary.shed += 1;
                    let reply = wire::open_busy(&sid, self.directory.len(), self.opts.max_sessions);
                    self.complete_immediate(conn, reply);
                    return Ok(());
                }
                let tenant = tenant_of(&sid);
                let cap = self.opts.tenant_max_sessions;
                if cap > 0 {
                    let open = self
                        .directory
                        .keys()
                        .filter(|k| tenant_of(k) == tenant)
                        .count();
                    if open >= cap {
                        self.summary.tenant_shed += 1;
                        let reply = wire::open_tenant_busy(&sid, tenant, open, cap);
                        self.complete_immediate(conn, reply);
                        return Ok(());
                    }
                }
                let breaker_checked = self.opts.breaker.threshold > 0;
                if breaker_checked {
                    // Opens are rare, so a pipeline barrier here is cheap;
                    // in exchange the breaker sees every prior event in
                    // input order.
                    self.settle_blocks();
                    if let OpenDecision::Refuse {
                        failures,
                        retry_after,
                    } = self.breakers.admit_open(&sid)
                    {
                        self.summary.breaker_refused += 1;
                        let reply = wire::open_breaker(&sid, tenant, failures, retry_after);
                        self.complete_immediate(conn, reply);
                        return Ok(());
                    }
                }
                if let Err(e) = parse_spec(&spec) {
                    // A failed open is not journaled; release the
                    // half-open probe reservation (if this sid took it).
                    if breaker_checked {
                        self.breakers.abort_open(&sid);
                    }
                    self.complete_immediate(conn, wire::open_err(&sid, &e));
                    return Ok(());
                }
                let worker = stable_shard(tenant, self.pool.workers());
                let key = Sid::from(sid.as_str());
                self.directory.insert(Rc::clone(&key), worker);
                self.summary.peak_sessions = self.summary.peak_sessions.max(self.directory.len());
                // The spec is kept only for the journal record.
                let kind = Kind::Open {
                    spec: match self.journal {
                        Some(_) => spec.clone(),
                        None => String::new(),
                    },
                };
                let req = PoolRequest::Open { sid, spec };
                self.submit_pool(Some(conn), worker, req, live(key, kind))
            }
            Request::Job {
                sid,
                arrival,
                deadline,
                length,
            } => {
                let Some((key, &worker)) = self.directory.get_key_value(sid.as_str()) else {
                    self.complete_immediate(conn, wire::no_session("job", &sid));
                    return Ok(());
                };
                let key = Rc::clone(key);
                let req = PoolRequest::Offer {
                    sid,
                    offer: JobOffer {
                        arrival: t(arrival),
                        deadline: t(deadline),
                        length: dur(length),
                    },
                };
                let kind = Kind::Job {
                    arrival,
                    deadline,
                    length,
                };
                self.submit_pool(Some(conn), worker, req, live(key, kind))
            }
            Request::Close { sid } => {
                let Some((key, worker)) = self.directory.remove_entry(sid.as_str()) else {
                    self.complete_immediate(conn, wire::no_session("close", &sid));
                    return Ok(());
                };
                let req = PoolRequest::Close { sid };
                self.submit_pool(Some(conn), worker, req, live(key, Kind::Close))
            }
            Request::Stats { sid } => {
                let Some((key, &worker)) = self.directory.get_key_value(sid.as_str()) else {
                    self.complete_immediate(conn, wire::no_session("stats", &sid));
                    return Ok(());
                };
                let key = Rc::clone(key);
                let req = PoolRequest::Stats { sid };
                self.submit_pool(Some(conn), worker, req, live(key, Kind::Stats))
            }
            Request::StatsDaemon => {
                // Daemon-wide counters must reflect every prior request in
                // input order.
                self.settle_blocks();
                self.complete_immediate(conn, wire::stats_daemon(&self.summary));
                Ok(())
            }
        }
    }

    /// Replays journal events recorded by a previous (killed) run:
    /// rebuilds every session to its exact pre-crash state, re-emitting
    /// the same decision-log lines, then arranges for input lines at or
    /// before the last journaled line to be skipped. See the module docs
    /// for how replay differs from live requests.
    pub fn resume(&mut self, events: &[ServeEvent]) -> Result<(), String> {
        let mut scratch = Vec::new();
        for ev in events {
            let line = ev.line();
            let replayed = |sid: Sid, kind: Kind| Inflight {
                sid,
                line,
                offset: 0,
                reply_to: None,
                kind,
                replay: true,
            };
            match ev {
                ServeEvent::Open {
                    session, scheduler, ..
                } => {
                    // A journal from a build with another scheduler
                    // registry may name a spec this one cannot build.
                    parse_spec(scheduler)
                        .map_err(|e| format!("resume: replaying open {session}: {e}"))?;
                    // Journaled opens were all admitted; re-running the
                    // breaker check replays its half-open probe marking
                    // (it admits again by determinism), with state
                    // current through all earlier events.
                    if self.opts.breaker.threshold > 0 {
                        self.settle_blocks();
                        let _ = self.breakers.admit_open(session);
                    }
                    let worker = stable_shard(tenant_of(session), self.pool.workers());
                    let key = Sid::from(session.as_str());
                    self.directory.insert(Rc::clone(&key), worker);
                    self.summary.peak_sessions =
                        self.summary.peak_sessions.max(self.directory.len());
                    let req = PoolRequest::Open {
                        sid: session.clone(),
                        spec: scheduler.clone(),
                    };
                    let meta = replayed(
                        key,
                        Kind::Open {
                            spec: String::new(),
                        },
                    );
                    self.submit_pool(None, worker, req, meta)
                        .map_err(|e| format!("resume: replaying open {session}: {e}"))?;
                }
                ServeEvent::Job {
                    session,
                    arrival,
                    deadline,
                    length,
                    ..
                } => {
                    if let Some((key, &worker)) = self.directory.get_key_value(session.as_str()) {
                        let key = Rc::clone(key);
                        let req = PoolRequest::Offer {
                            sid: session.clone(),
                            offer: JobOffer {
                                arrival: t(*arrival),
                                deadline: t(*deadline),
                                length: dur(*length),
                            },
                        };
                        let kind = Kind::Job {
                            arrival: *arrival,
                            deadline: *deadline,
                            length: *length,
                        };
                        self.submit_pool(None, worker, req, replayed(key, kind))?;
                    }
                }
                ServeEvent::Close { session, .. } => {
                    if let Some((key, worker)) = self.directory.remove_entry(session.as_str()) {
                        let req = PoolRequest::Close {
                            sid: session.clone(),
                        };
                        self.submit_pool(None, worker, req, replayed(key, Kind::Close))?;
                    }
                }
            }
            self.pump(&mut scratch)?;
            self.cursor = self.cursor.max(line);
        }
        self.settle(&mut scratch)?;
        self.line_no = 0;
        Ok(())
    }

    /// Graceful drain: closes every remaining session in alphabetical
    /// order (so drains are deterministic), waits for all workers,
    /// flushes the log and syncs the journal. Called on end-of-input and
    /// on `SIGINT`/`SIGTERM`.
    pub fn drain(&mut self) -> Result<(), String> {
        let line = self.line_no;
        let mut open: Vec<(Sid, usize)> = self.directory.drain().collect();
        open.sort_unstable();
        for (sid, worker) in open {
            let req = PoolRequest::Close {
                sid: sid.to_string(),
            };
            let meta = Inflight {
                sid,
                line,
                offset: 0,
                reply_to: None,
                kind: Kind::Close,
                replay: false,
            };
            self.submit_pool(None, worker, req, meta)?;
        }
        self.settle_blocks();
        self.log.flush().map_err(|e| format!("decision log: {e}"))?;
        if let Some(j) = self.journal.as_mut() {
            j.sync().map_err(|e| format!("journal: {e}"))?;
        }
        Ok(())
    }

    /// Drains, shuts the pool down (folding worker peak reports into the
    /// summary), and returns the final accounting and the log sink (so
    /// in-memory logs can be inspected).
    pub fn finish(mut self) -> Result<(ServeSummary, Sink), String> {
        self.drain()?;
        let report = self.pool.shutdown();
        self.summary.peak_retained = self.summary.peak_retained.max(report.peak_retained);
        self.summary.peak_live_segments = self
            .summary
            .peak_live_segments
            .max(report.peak_live_segments);
        Ok((self.summary, self.log))
    }
}
