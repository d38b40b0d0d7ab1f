//! A resident scheduling session: the batch engine's event core, fed one
//! job at a time.
//!
//! [`Session`] owns one scheduler and accepts jobs one at a time via
//! [`Session::offer`], in arrival order, with no bound on how many will
//! ever arrive. It wraps the very core [`crate::sim::run_static`] drains
//! (see [`crate::sim::engine`]): each offer drives the core through every
//! queued event that precedes the new arrival in the engine's
//! `(time, tie-order)` total order, then releases the job, and
//! [`Session::close`] drains the rest. Because there is no second loop, a
//! session fed a trace job-by-job makes the same decisions, in the same
//! order, and reaches the same span bit for bit as a batch run over the
//! whole trace — the determinism contract `fjs serve` advertises.
//!
//! What the wrapper adds to the core:
//!
//! * **Validation.** An offer that regresses the arrival frontier or
//!   carries a bad deadline or length is refused with a typed
//!   [`SessionError`] before it touches any state.
//! * **O(pending) memory.** The span is the core's
//!   [`RunningSpan`] (one open segment plus a
//!   closed scalar), and the session's sink drops completed job records by
//!   prefix compaction after each completion, so resident state is
//!   proportional to the jobs in flight, not the jobs ever seen.
//! * **Containment.** Every entry point runs the core under
//!   [`catch_unwind`] with a cumulative event budget; a panic, a runaway
//!   wakeup loop, or a horizon overflow poisons *this* session with a
//!   typed [`SessionVerdict`] (mirroring the supervise layer's verdicts)
//!   and leaves every other session untouched.
//! * **Incremental output.** Start/finish [`Decision`]s carry the running
//!   span and are drained by the caller as they happen; nothing waits for
//!   the end of the trace.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::interval::RunningSpan;
use crate::job::JobId;
use crate::sim::engine::{Core, EnvFault, Halt, Sink};
use crate::sim::env::{Clairvoyance, Environment, JobSpec};
use crate::sim::sched::OnlineScheduler;
use crate::sim::stats::RunStats;
use crate::sim::world::World;
use crate::supervise::{panic_message, DEFAULT_WATCHDOG_EVENTS};
use crate::time::{decimal_len, push_decimal, push_u64, Dur, Time};

/// A job offered to a session (the streaming analogue of a trace record).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JobOffer {
    /// Arrival time `a(J)`; must be ≥ every previously offered arrival.
    pub arrival: Time,
    /// Starting deadline `d(J)`; must be ≥ the arrival.
    pub deadline: Time,
    /// Processing length `p(J)`; must be positive. Sessions schedule fixed
    /// lengths only — adaptive adversaries need the batch engine's
    /// environment loop.
    pub length: Dur,
}

impl JobOffer {
    /// Canonical wire size of this offer's payload: the byte length of
    /// `"{a},{d},{l}"` rendered from the parsed values. The governor's
    /// per-tenant byte quota charges this — not the raw client bytes — so
    /// live admission and a journal replay (which re-parses the same
    /// canonical floats) account identically, and padding a payload with
    /// whitespace buys a client nothing.
    pub fn canonical_bytes(&self) -> u64 {
        decimal_len(self.arrival.get())
            + decimal_len(self.deadline.get())
            + decimal_len(self.length.get())
            + 2
    }
}

/// Why an offer (or close) was refused. The session state is unchanged
/// unless the variant is [`SessionError::Terminal`].
#[derive(Clone, PartialEq, Debug)]
pub enum SessionError {
    /// The session already reached a terminal verdict and accepts nothing.
    Terminal(SessionVerdict),
    /// The offer's arrival precedes an earlier offer — sessions consume
    /// arrival-ordered streams, exactly like the batch engine's
    /// environments (which fault a release into the past).
    ArrivalRegressed {
        /// The offending arrival.
        arrival: Time,
        /// The session's arrival frontier (largest arrival admitted).
        frontier: Time,
    },
    /// The starting deadline precedes the arrival.
    DeadlineBeforeArrival {
        /// The offer's arrival.
        arrival: Time,
        /// The offending deadline.
        deadline: Time,
    },
    /// The processing length is zero or negative.
    NonPositiveLength {
        /// The offending length.
        length: Dur,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Terminal(v) => write!(f, "session is terminal ({v})"),
            SessionError::ArrivalRegressed { arrival, frontier } => write!(
                f,
                "arrival {arrival} precedes the session frontier {frontier}"
            ),
            SessionError::DeadlineBeforeArrival { arrival, deadline } => {
                write!(f, "deadline {deadline} precedes arrival {arrival}")
            }
            SessionError::NonPositiveLength { length } => {
                write!(f, "non-positive length {length}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// How a session ended — the service-layer mirror of
/// [`SuperviseVerdict`](crate::supervise::SuperviseVerdict), with the same
/// stable labels.
#[derive(Clone, PartialEq, Debug)]
pub enum SessionVerdict {
    /// Drained cleanly: every admitted job started and completed.
    Completed,
    /// The cumulative event budget was exhausted (e.g. a wakeup loop from
    /// a hanging scheduler). Fields: events processed when the watchdog
    /// fired.
    TimedOut {
        /// Events processed when the budget ran out.
        events: usize,
    },
    /// The scheduler (or a containment-tripping world access) panicked.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The session hit a simulation fault (currently only horizon
    /// overflow: a start so late that `start + length` is not finite).
    Faulted {
        /// Human-readable fault description.
        message: String,
    },
}

impl SessionVerdict {
    /// Stable label used in replies, logs and reports; matches the
    /// supervise layer's verdict labels.
    pub fn label(&self) -> &'static str {
        match self {
            SessionVerdict::Completed => "completed",
            SessionVerdict::TimedOut { .. } => "timed-out",
            SessionVerdict::Panicked { .. } => "panicked",
            SessionVerdict::Faulted { .. } => "faulted",
        }
    }

    /// Whether this is the clean outcome.
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionVerdict::Completed)
    }
}

impl fmt::Display for SessionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionVerdict::Completed => f.write_str("completed"),
            SessionVerdict::TimedOut { events } => {
                write!(f, "timed-out after {events} events")
            }
            SessionVerdict::Panicked { message } => write!(f, "panicked: {message}"),
            SessionVerdict::Faulted { message } => write!(f, "faulted: {message}"),
        }
    }
}

/// What a decision stream entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecisionKind {
    /// A job started (scheduler action, ordered start firing, or deadline
    /// force-start — indistinguishable downstream, exactly as in a batch
    /// run's schedule).
    Start,
    /// A job ran to completion.
    Finish,
}

/// One entry of a session's incremental decision stream.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Decision {
    /// Start or finish.
    pub kind: DecisionKind,
    /// The job.
    pub id: JobId,
    /// When it happened (simulation time).
    pub at: Time,
    /// Running span of the session *after* this decision.
    pub span: Dur,
}

impl Decision {
    /// Appends the decision-log line `{sid} start J3 at=4 span=7.5\n`.
    /// `fjs serve`'s byte-identity contract is over exactly this
    /// rendering; the floats go through [`push_decimal`], so they read as
    /// `Display` prints them.
    pub fn render_line(&self, sid: &str, out: &mut Vec<u8>) {
        out.extend_from_slice(sid.as_bytes());
        out.push(b' ');
        self.render_body(out);
        out.push(b'\n');
    }

    fn render_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(match self.kind {
            DecisionKind::Start => b"start J",
            DecisionKind::Finish => b"done J",
        });
        push_u64(out, u64::from(self.id.0));
        out.extend_from_slice(b" at=");
        push_decimal(out, self.at.get());
        out.extend_from_slice(b" span=");
        push_decimal(out, self.span.get());
    }
}

impl fmt::Display for Decision {
    /// The decision-log line body without the session name and newline
    /// (`start J3 at=4 span=7.5`; see [`Decision::render_line`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut body = Vec::with_capacity(48);
        self.render_body(&mut body);
        f.write_str(&String::from_utf8_lossy(&body))
    }
}

/// The session core's environment: jobs arrive through [`Session::offer`],
/// never on a release schedule, and their lengths are fixed at the offer,
/// so the core never asks for a ruling.
struct Offers(Clairvoyance);

impl Environment for Offers {
    fn clairvoyance(&self) -> Clairvoyance {
        self.0
    }

    fn next_release_time(&mut self, _world: &World) -> Option<Time> {
        None
    }

    fn release_at(&mut self, _now: Time, _world: &World) -> Vec<JobSpec> {
        Vec::new()
    }
}

/// The session's sink: streams start/finish decisions and compacts the
/// completed prefix of the world after each completion. Violations and
/// rejected actions are only counted in [`RunStats`]; trace events are
/// dropped.
#[derive(Default)]
struct Decisions(Vec<Decision>);

impl Sink for Decisions {
    fn started(&mut self, id: JobId, at: Time, span: &RunningSpan) {
        self.0.push(Decision {
            kind: DecisionKind::Start,
            id,
            at,
            span: span.total(),
        });
    }

    fn completed(&mut self, id: JobId, at: Time, span: &RunningSpan, world: &mut World) {
        self.0.push(Decision {
            kind: DecisionKind::Finish,
            id,
            at,
            span: span.total(),
        });
        world.compact_completed_prefix();
    }
}

/// One resident scheduler instance (see module docs).
pub struct Session {
    core: Core<Offers, Box<dyn OnlineScheduler>, Decisions>,
    verdict: Option<SessionVerdict>,
    admitted_bytes: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("scheduler", &self.core.sched.name())
            .field("now", &self.core.world.now())
            .field("pending", &self.core.world.num_pending())
            .field("running", &self.core.world.num_running())
            .field("verdict", &self.verdict)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A fresh session around a scheduler. `clairvoyance` controls what
    /// `on_arrival` reveals, exactly as in batch runs; pass the
    /// scheduler's declared information model.
    pub fn new(sched: Box<dyn OnlineScheduler>, clairvoyance: Clairvoyance) -> Self {
        Session {
            core: Core::new(
                Offers(clairvoyance),
                sched,
                Decisions::default(),
                DEFAULT_WATCHDOG_EVENTS,
            ),
            verdict: None,
            admitted_bytes: 0,
        }
    }

    /// Caps the cumulative events this session may process (the watchdog
    /// budget; default [`DEFAULT_WATCHDOG_EVENTS`]).
    pub fn with_watchdog(mut self, max_events: usize) -> Self {
        self.core.max_events = max_events;
        self
    }

    /// The scheduler's self-reported name.
    pub fn scheduler_name(&self) -> String {
        self.core.sched.name()
    }

    /// Current simulation time (the time of the last processed event).
    pub fn now(&self) -> Time {
        self.core.world.now()
    }

    /// Running span: the measure of every busy interval started so far.
    pub fn span(&self) -> Dur {
        self.core.span.total()
    }

    /// Engine counters accumulated so far. One divergence from a batch run
    /// over the same trace is expected: the batch engine counts one
    /// release *event* per distinct arrival instant, a session counts one
    /// per offer. `jobs_released` and every decision-bearing counter
    /// match.
    pub fn stats(&self) -> &RunStats {
        &self.core.stats
    }

    /// Jobs admitted but not yet started.
    pub fn num_pending(&self) -> usize {
        self.core.world.num_pending()
    }

    /// Jobs currently running.
    pub fn num_running(&self) -> usize {
        self.core.world.num_running()
    }

    /// Job records currently materialized (history is compacted away).
    pub fn retained_records(&self) -> usize {
        self.core.world.num_retained()
    }

    /// High-water mark of materialized records — the bounded-memory
    /// witness: stays O(pending), not O(jobs ever offered).
    pub fn peak_retained_records(&self) -> usize {
        self.core.world.peak_retained()
    }

    /// High-water mark of live span segments: `0` before the first start,
    /// `1` after it (the running span never holds more than one).
    pub fn peak_live_segments(&self) -> usize {
        self.core.span.live_segments()
    }

    /// Cumulative [`JobOffer::canonical_bytes`] of every offer that got
    /// past validation (admitted jobs *and* the offer that poisoned the
    /// session — exactly the offers the journal records, so a replay
    /// reproduces this figure). The tenant byte quota sums it across a
    /// tenant's open sessions.
    pub fn admitted_payload_bytes(&self) -> u64 {
        self.admitted_bytes
    }

    /// Terminal verdict, if the session has one.
    pub fn verdict(&self) -> Option<&SessionVerdict> {
        self.verdict.as_ref()
    }

    /// Drains the decisions emitted since the last call, in order.
    pub fn take_decisions(&mut self) -> Vec<Decision> {
        std::mem::take(&mut self.core.sink.0)
    }

    /// Offers the next job of the arrival stream.
    ///
    /// Drives every queued event that precedes the arrival, releases the
    /// job, and dispatches `on_arrival` — all under panic containment and
    /// the event budget. On success returns the job's id (global release
    /// order). A validation failure rejects the offer without touching
    /// session state; a contained panic / budget exhaustion / fault
    /// poisons the session and reports [`SessionError::Terminal`].
    pub fn offer(&mut self, offer: JobOffer) -> Result<JobId, SessionError> {
        if let Some(v) = &self.verdict {
            return Err(SessionError::Terminal(v.clone()));
        }
        // The clock stops at each admitted arrival, so it is the frontier.
        let frontier = self.core.world.now();
        if offer.arrival < frontier {
            return Err(SessionError::ArrivalRegressed {
                arrival: offer.arrival,
                frontier,
            });
        }
        if offer.deadline < offer.arrival {
            return Err(SessionError::DeadlineBeforeArrival {
                arrival: offer.arrival,
                deadline: offer.deadline,
            });
        }
        if !offer.length.is_positive() {
            return Err(SessionError::NonPositiveLength {
                length: offer.length,
            });
        }
        self.admitted_bytes += offer.canonical_bytes();
        let spec = JobSpec::fixed(offer.deadline, offer.length);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.core.offer(offer.arrival, spec)));
        self.settle(outcome).map_err(SessionError::Terminal)
    }

    /// Declares the arrival stream finished and drains the session to
    /// quiescence (every admitted job started and completed), returning
    /// the terminal verdict. Idempotent: closing a terminal session just
    /// returns its verdict again.
    pub fn close(&mut self) -> SessionVerdict {
        if let Some(v) = &self.verdict {
            return v.clone();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.core.drive(None)));
        let verdict = match self.settle(outcome) {
            Ok(()) => SessionVerdict::Completed,
            Err(verdict) => verdict,
        };
        self.verdict = Some(verdict.clone());
        verdict
    }

    /// Maps a contained core step onto its value, or onto the verdict that
    /// poisons the session (recording it).
    fn settle<T>(
        &mut self,
        outcome: Result<Result<T, Halt>, Box<dyn std::any::Any + Send>>,
    ) -> Result<T, SessionVerdict> {
        let verdict = match outcome {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(Halt::EventCap)) => SessionVerdict::TimedOut {
                events: self.core.stats.events_total,
            },
            Ok(Err(Halt::Fault(fault))) => SessionVerdict::Faulted {
                message: self.fault_message(fault),
            },
            Err(payload) => SessionVerdict::Panicked {
                message: panic_message(payload.as_ref()),
            },
        };
        self.verdict = Some(verdict.clone());
        Err(verdict)
    }

    /// The session's wording of a core fault. A horizon overflow names the
    /// start and length that overflowed: the core marks the job started
    /// before it computes the completion, so both are on record.
    fn fault_message(&self, fault: EnvFault) -> String {
        let world = &self.core.world;
        if let EnvFault::HorizonOverflow { id } = fault {
            if let (Some(at), Some(length)) = (world.start_of(id), world.length_of(id)) {
                return format!("horizon overflow: {id} started at {at} with length {length}");
            }
        }
        fault.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};
    use crate::sim::run_static;
    use crate::sim::sched::{Arrival, Ctx};
    use crate::supervise::with_quiet_panics;
    use crate::time::{dur, t};

    fn offer(a: f64, d: f64, p: f64) -> JobOffer {
        JobOffer {
            arrival: t(a),
            deadline: t(d),
            length: dur(p),
        }
    }

    /// Starts every job the instant it arrives.
    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "test-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Commits every job to its deadline via an ordered start.
    struct Latest;
    impl OnlineScheduler for Latest {
        fn name(&self) -> String {
            "test-latest".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start_at(job.id, job.deadline);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Never acts: every job is force-started by its deadline alarm, and
    /// every arrival also books a wakeup (exercising the wakeup path).
    struct Sleeper;
    impl OnlineScheduler for Sleeper {
        fn name(&self) -> String {
            "test-sleeper".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.wake_at(job.deadline, job.id.0 as u64);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Panics on the `n`-th arrival.
    struct PanicOnNth {
        seen: usize,
        n: usize,
    }
    impl OnlineScheduler for PanicOnNth {
        fn name(&self) -> String {
            "test-panic".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            self.seen += 1;
            if self.seen == self.n {
                panic!("poisoned on arrival {}", self.seen);
            }
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Books a wakeup from every wakeup: a hang, contained only by the
    /// watchdog budget.
    struct Spinner;
    impl OnlineScheduler for Spinner {
        fn name(&self) -> String {
            "test-spinner".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
            ctx.wake_at(ctx.now(), 0);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            ctx.wake_at(ctx.now(), token + 1);
        }
    }

    fn deck() -> Vec<JobOffer> {
        vec![
            offer(0.0, 2.0, 3.0),
            offer(0.0, 4.0, 1.0),
            offer(1.0, 5.0, 2.0),
            offer(3.0, 3.0, 0.5),
            offer(7.0, 11.0, 2.0),
            offer(7.0, 9.0, 4.0),
            offer(15.0, 18.0, 1.0),
        ]
    }

    type MkSched = fn() -> Box<dyn OnlineScheduler>;

    /// Two zero-laxity jobs where the second starts exactly when the first
    /// completes. Their union is `[0.1, 1.1)`, measured as `1`; summing
    /// the two pieces separately gives `1.0000000000000002`.
    fn touching_pair() -> Vec<JobOffer> {
        vec![offer(0.1, 0.1, 0.1), offer(0.2, 0.2, 0.9)]
    }

    /// A zero-laxity chain on non-dyadic values, each arrival exactly the
    /// previous completion, whose piecewise sum (`1.3000000000000003`)
    /// differs from the measure of its union (`1.3`).
    fn touching_chain() -> Vec<JobOffer> {
        let mut a = 0.1;
        [0.2, 0.3, 0.7, 0.1]
            .into_iter()
            .map(|p| {
                let o = offer(a, a, p);
                a += p;
                o
            })
            .collect()
    }

    fn session_outcome(
        sched: Box<dyn OnlineScheduler>,
        offers: &[JobOffer],
    ) -> (Vec<Decision>, Dur, SessionVerdict) {
        let mut s = Session::new(sched, Clairvoyance::Clairvoyant);
        for &o in offers {
            s.offer(o).unwrap();
        }
        let verdict = s.close();
        (s.take_decisions(), s.span(), verdict)
    }

    /// The determinism contract: a session fed job-by-job reproduces the
    /// batch engine's starts and span exactly, for action-free, ordered-
    /// start, and force-start schedulers alike — down to the last bit on
    /// chains of touching intervals.
    #[test]
    fn decision_line_matches_display() {
        for (kind, at, span) in [
            (DecisionKind::Start, 4.0, 7.5),
            (DecisionKind::Finish, 0.1 + 0.2, 1e15),
            (DecisionKind::Finish, 1000.0001, -0.0),
        ] {
            let d = Decision {
                kind,
                id: JobId(31),
                at: t(at),
                span: dur(span),
            };
            let mut line = Vec::new();
            d.render_line("t.a", &mut line);
            assert_eq!(line, format!("t.a {d}\n").as_bytes());
            assert_eq!(
                d.to_string(),
                format!(
                    "{} J31 at={at} span={span}",
                    ["start", "done"][kind as usize]
                )
            );
        }
    }

    #[test]
    fn session_matches_batch_engine_decisions() {
        let scheds: Vec<(&str, MkSched)> = vec![
            ("eager", || Box::new(Eager)),
            ("latest", || Box::new(Latest)),
            ("sleeper", || Box::new(Sleeper)),
        ];
        for offers in [deck(), touching_pair(), touching_chain()] {
            session_matches_batch_on(&offers, &scheds);
        }
    }

    fn session_matches_batch_on(offers: &[JobOffer], scheds: &[(&str, MkSched)]) {
        let inst = Instance::new(
            offers
                .iter()
                .map(|o| Job::new(o.arrival, o.deadline, o.length))
                .collect::<Vec<_>>(),
        );
        for &(label, mk) in scheds {
            let batch = run_static(&inst, Clairvoyance::Clairvoyant, mk());
            assert!(batch.termination.is_completed(), "{label}: batch completed");
            let (decisions, span, verdict) = session_outcome(mk(), offers);
            assert_eq!(verdict, SessionVerdict::Completed, "{label}");
            assert_eq!(span, batch.span, "{label}: span");
            let starts: Vec<(JobId, Time)> = decisions
                .iter()
                .filter(|d| d.kind == DecisionKind::Start)
                .map(|d| (d.id, d.at))
                .collect();
            assert_eq!(starts.len(), offers.len(), "{label}: all jobs started");
            for &(id, at) in &starts {
                assert_eq!(batch.schedule.start(id), Some(at), "{label}: start of {id}");
            }
            // Final decision's running span equals the batch span.
            assert_eq!(
                decisions.last().map(|d| d.span),
                Some(batch.span),
                "{label}"
            );
        }
    }

    #[test]
    fn session_is_deterministic_byte_for_byte() {
        let offers = deck();
        let render = |ds: &[Decision]| ds.iter().map(|d| format!("{d}\n")).collect::<String>();
        let (a, _, _) = session_outcome(Box::new(Latest), &offers);
        let (b, _, _) = session_outcome(Box::new(Latest), &offers);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn offers_are_validated_without_state_damage() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        s.offer(offer(5.0, 6.0, 1.0)).unwrap();
        assert!(matches!(
            s.offer(offer(4.0, 9.0, 1.0)),
            Err(SessionError::ArrivalRegressed { .. })
        ));
        assert!(matches!(
            s.offer(offer(6.0, 5.0, 1.0)),
            Err(SessionError::DeadlineBeforeArrival { .. })
        ));
        assert!(matches!(
            s.offer(offer(6.0, 7.0, 0.0)),
            Err(SessionError::NonPositiveLength { .. })
        ));
        // The session is unpoisoned and still serves.
        s.offer(offer(6.0, 8.0, 1.0)).unwrap();
        assert_eq!(s.close(), SessionVerdict::Completed);
        assert_eq!(s.stats().jobs_completed, 2);
    }

    #[test]
    fn panic_is_contained_with_typed_verdict() {
        with_quiet_panics(|| {
            let mut s = Session::new(
                Box::new(PanicOnNth { seen: 0, n: 2 }),
                Clairvoyance::Clairvoyant,
            );
            s.offer(offer(0.0, 5.0, 1.0)).unwrap();
            let err = s.offer(offer(1.0, 6.0, 1.0)).unwrap_err();
            let SessionError::Terminal(SessionVerdict::Panicked { message }) = err else {
                panic!("want Panicked, got {err:?}");
            };
            assert_eq!(message, "poisoned on arrival 2");
            assert_eq!(s.verdict().map(|v| v.label()), Some("panicked"));
            // Terminal sessions refuse everything, idempotently.
            assert!(matches!(
                s.offer(offer(2.0, 7.0, 1.0)),
                Err(SessionError::Terminal(_))
            ));
            assert_eq!(s.close().label(), "panicked");
        });
    }

    #[test]
    fn watchdog_contains_wakeup_spin() {
        let mut s = Session::new(Box::new(Spinner), Clairvoyance::Clairvoyant).with_watchdog(500);
        s.offer(offer(0.0, 1.0, 1.0)).unwrap();
        let verdict = s.close();
        let SessionVerdict::TimedOut { events } = verdict else {
            panic!("want TimedOut, got {verdict:?}");
        };
        assert_eq!(events, 500);
        assert_eq!(s.verdict().map(|v| v.label()), Some("timed-out"));
    }

    /// A start whose completion leaves the finite `f64` range poisons the
    /// session with a `faulted` verdict naming the start and the length,
    /// and the offer that did it still counts as admitted payload.
    #[test]
    fn horizon_overflow_faults_the_session() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        let huge = offer(1e308, 1e308, 1e308);
        let err = s.offer(huge).unwrap_err();
        let want = format!(
            "horizon overflow: J0 started at {} with length {}",
            t(1e308),
            dur(1e308)
        );
        assert_eq!(
            err,
            SessionError::Terminal(SessionVerdict::Faulted {
                message: want.clone()
            })
        );
        assert_eq!(s.verdict().map(|v| v.label()), Some("faulted"));
        assert_eq!(s.close(), SessionVerdict::Faulted { message: want });
        assert_eq!(s.admitted_payload_bytes(), huge.canonical_bytes());
        assert!(s.admitted_payload_bytes() > 0);
    }

    #[test]
    fn peak_live_segments_is_zero_until_the_first_start() {
        let mut s = Session::new(Box::new(Latest), Clairvoyance::Clairvoyant);
        assert_eq!(s.peak_live_segments(), 0);
        s.offer(offer(0.0, 5.0, 1.0)).unwrap();
        assert_eq!(s.peak_live_segments(), 0, "committed, not yet started");
        s.offer(offer(6.0, 7.0, 1.0)).unwrap();
        assert_eq!(s.peak_live_segments(), 1);
        assert_eq!(s.close(), SessionVerdict::Completed);
        assert_eq!(s.peak_live_segments(), 1);
    }

    /// The O(pending) memory contract: a long sequential stream keeps one
    /// live span segment and retires its job records as it goes.
    #[test]
    fn resident_state_stays_bounded_on_long_streams() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        let n = 5_000;
        for i in 0..n {
            let a = 2.0 * i as f64;
            s.offer(offer(a, a + 1.0, 1.0)).unwrap();
        }
        assert_eq!(s.close(), SessionVerdict::Completed);
        assert_eq!(s.stats().jobs_completed, n);
        assert!(
            s.peak_retained_records() <= 8,
            "records grew: {}",
            s.peak_retained_records()
        );
        assert_eq!(s.peak_live_segments(), 1, "live segments grew");
        // Span is still exact over the whole history.
        assert_eq!(s.span(), dur(n as f64));
    }
}
