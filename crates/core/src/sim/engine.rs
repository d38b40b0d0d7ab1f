//! The event-driven simulation engine.
//!
//! Drives an [`OnlineScheduler`] against an [`Environment`] and produces a
//! [`SimOutcome`]: the materialized instance, the schedule, its span, and
//! any feasibility violations.
//!
//! # Event ordering
//!
//! Multiple events may share a timestamp; they are processed in a fixed kind
//! order chosen to match the paper's semantics of half-open active intervals
//! `[s, s+p)`:
//!
//! 1. **Completions** — a job is *not* running at its completion instant, so
//!    completions precede everything else (e.g. the Theorem 3.3 adversary
//!    releases iteration `i+1` exactly at the earmarked job's completion,
//!    and those arrivals must observe the job as finished).
//! 2. **Releases** — arrivals at this instant.
//! 3. **Ordered starts** — `Ctx::start_at` commitments falling due.
//! 4. **Length probes** — deferred adaptive-length rulings.
//! 5. **Deadline alarms** — last-chance notifications for pending jobs.
//! 6. **Wakeups** — scheduler-requested callbacks.
//!
//! Within a kind, ties break by insertion sequence (FIFO), which makes runs
//! fully deterministic.
//!
//! # One core for batch and serve
//!
//! The loop lives in a crate-private `Core` that can stop before any
//! `(time, kind-order)` bound and resume. [`run_with_config`] feeds it an
//! environment and drains it in one go; a resident
//! [`Session`](crate::service::Session) drives it up to each offered
//! arrival, releases the job, and drains it when the stream closes. A
//! compile-time sink picks what each keeps: batch runs retain violations,
//! rejected actions and the trace, sessions stream start/finish decisions
//! and compact completed records. The two paths therefore make the same
//! decisions and reach the same span, bit for bit, by construction.

use crate::interval::RunningSpan;
use crate::job::{Instance, JobId};
use crate::schedule::Schedule;
use crate::sim::calendar::{CalendarEvent, CalendarQueue};
use crate::sim::env::{Clairvoyance, Environment, JobSpec, LengthRuling, LengthSpec};
use crate::sim::sched::{Action, Arrival, Ctx, OnlineScheduler};
use crate::sim::stats::RunStats;
use crate::sim::trace::{TraceEvent, TraceKind, TraceMode};
use crate::sim::world::World;
use crate::time::{Dur, Time};
use std::fmt;
use std::time::Instant;

/// Engine limits and options.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard cap on processed events (guards against runaway adaptive
    /// environments or scheduler wakeup loops).
    pub max_events: usize,
    /// What to record into the outcome's [`TraceEvent`] log: nothing (the
    /// default) or the full chronology. See [`TraceMode`].
    pub trace: TraceMode,
    /// Measure wall-clock time spent inside scheduler callbacks and
    /// environment oracles ([`RunStats::wall_scheduler_s`] /
    /// [`RunStats::wall_environment_s`]). Costs two monotonic-clock reads
    /// per event, so it is off by default; counters are always collected.
    pub time_phases: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 50_000_000,
            trace: TraceMode::Off,
            time_phases: false,
        }
    }
}

/// A feasibility violation: the scheduler let a pending job pass its
/// starting deadline. The engine force-starts the job at the deadline so the
/// run can continue, but correct schedulers must never trigger this.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Violation {
    /// The job that was not started in time.
    pub id: JobId,
    /// The deadline at which the engine force-started it.
    pub at: Time,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} missed its starting deadline at {}",
            self.id, self.at
        )
    }
}

/// How a simulation run ended.
///
/// Every run — even one driven by a hostile environment or a misbehaving
/// scheduler — produces a [`SimOutcome`]; this status says whether the
/// outcome covers the full instance or is a partial schedule cut short by a
/// resource cap or an environment contract breach.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Termination {
    /// All events drained; the schedule is complete.
    Completed,
    /// The [`SimConfig::max_events`] budget ran out (runaway environment or
    /// scheduler wakeup loop). The outcome carries the partial schedule at
    /// the moment the cap tripped.
    EventCapExhausted {
        /// Events processed (equals the configured cap).
        events: usize,
    },
    /// The environment broke its contract; the run stopped at the breach
    /// with the partial schedule accumulated so far.
    EnvironmentFault(EnvFault),
}

impl Termination {
    /// Whether the run drained naturally.
    pub fn is_completed(&self) -> bool {
        matches!(self, Termination::Completed)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Completed => write!(f, "completed"),
            Termination::EventCapExhausted { events } => {
                write!(f, "event cap exhausted after {events} events")
            }
            Termination::EnvironmentFault(e) => write!(f, "environment fault: {e}"),
        }
    }
}

/// A breach of the [`Environment`] contract, detected and reported instead
/// of aborting the process.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EnvFault {
    /// `next_release_time` returned a time before the current instant.
    ReleaseInPast {
        /// The time the environment asked for.
        scheduled: Time,
        /// The simulation clock when it asked.
        now: Time,
    },
    /// A released job's starting deadline precedes its arrival.
    DeadlineBeforeArrival {
        /// The release instant (= arrival).
        arrival: Time,
        /// The offending deadline.
        deadline: Time,
    },
    /// A released job has a zero or negative fixed length.
    NonPositiveLength {
        /// The offending length.
        length: Dur,
    },
    /// An `Adaptive` length was released in a run that reveals lengths (or
    /// length classes) at arrival — there is nothing coherent to reveal.
    AdaptiveUnderClairvoyance,
    /// `rule_length` assigned a zero or negative length.
    RuledNonPositiveLength {
        /// The job whose length was ruled.
        id: JobId,
        /// The offending length.
        length: Dur,
    },
    /// `rule_length` assigned a length whose completion lies before the
    /// ruling instant (the job would have to finish in the past).
    RulingInPast {
        /// The job whose length was ruled.
        id: JobId,
        /// The implied completion time.
        completion: Time,
        /// The ruling instant.
        now: Time,
    },
    /// `rule_length` deferred to a time that is not in the future.
    ProbeNotDeferred {
        /// The job being probed.
        id: JobId,
        /// The non-advancing ask-again time.
        at: Time,
    },
    /// A start or ruling pushed a completion time beyond the finite `f64`
    /// range (degenerate timestamps on the order of `f64::MAX`).
    HorizonOverflow {
        /// The job whose completion overflowed.
        id: JobId,
    },
}

impl EnvFault {
    /// Whether a retry with a fresh environment could plausibly succeed.
    ///
    /// Transient faults are the clock-skew-shaped ones — a release or
    /// ruling that landed "in the past", or a probe that failed to advance —
    /// which an external job source can produce under load and which a
    /// re-run may not reproduce. Structural faults (bad deadlines, bad
    /// lengths, incoherent clairvoyance) are properties of the workload
    /// itself and will recur on every attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            EnvFault::ReleaseInPast { .. }
                | EnvFault::RulingInPast { .. }
                | EnvFault::ProbeNotDeferred { .. }
        )
    }
}

impl fmt::Display for EnvFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvFault::ReleaseInPast { scheduled, now } => {
                write!(f, "release scheduled in the past: {scheduled} < {now}")
            }
            EnvFault::DeadlineBeforeArrival { arrival, deadline } => {
                write!(
                    f,
                    "released job has deadline {deadline} before arrival {arrival}"
                )
            }
            EnvFault::NonPositiveLength { length } => {
                write!(f, "released job has non-positive length {length}")
            }
            EnvFault::AdaptiveUnderClairvoyance => {
                write!(f, "adaptive lengths require a fully non-clairvoyant run")
            }
            EnvFault::RuledNonPositiveLength { id, length } => {
                write!(f, "ruled non-positive length {length} for {id}")
            }
            EnvFault::RulingInPast {
                id,
                completion,
                now,
            } => {
                write!(
                    f,
                    "ruled length puts completion of {id} at {completion}, before {now}"
                )
            }
            EnvFault::ProbeNotDeferred { id, at } => {
                write!(
                    f,
                    "length probe for {id} re-asked at {at}, which is not in the future"
                )
            }
            EnvFault::HorizonOverflow { id } => {
                write!(f, "completion time of {id} overflows the finite time range")
            }
        }
    }
}

/// A scheduler action the engine refused to apply. The action is dropped
/// (the job in question remains pending and is force-started at its
/// deadline if the scheduler never issues a valid start), the run continues,
/// and the rejection is recorded in [`SimOutcome::rejected_actions`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RejectedAction {
    /// When the action was requested.
    pub at: Time,
    /// Why it was refused.
    pub fault: ActionFault,
}

impl fmt::Display for RejectedAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.at, self.fault)
    }
}

/// Why a scheduler action was refused.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ActionFault {
    /// A start was requested for a job that is not pending (already started,
    /// completed, or never released).
    StartNonPending {
        /// The requested job.
        id: JobId,
    },
    /// An immediate start was requested outside the job's `[a, d]` window.
    StartOutsideWindow {
        /// The requested job.
        id: JobId,
        /// The attempted start time (the current instant).
        at: Time,
    },
    /// A `start_at` was issued for a job that already has an ordered start.
    DuplicateOrderedStart {
        /// The requested job.
        id: JobId,
    },
    /// A `start_at` time lies in the past or outside the job's window.
    StartAtOutsideWindow {
        /// The requested job.
        id: JobId,
        /// The attempted start time.
        at: Time,
    },
    /// A wakeup was requested for a past instant.
    WakeupInPast {
        /// The requested wakeup time.
        at: Time,
    },
}

impl fmt::Display for ActionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionFault::StartNonPending { id } => {
                write!(f, "start of non-pending job {id}")
            }
            ActionFault::StartOutsideWindow { id, at } => {
                write!(f, "start of {id} at {at} outside its window")
            }
            ActionFault::DuplicateOrderedStart { id } => {
                write!(f, "duplicate ordered start for {id}")
            }
            ActionFault::StartAtOutsideWindow { id, at } => {
                write!(f, "ordered start of {id} at {at} outside [max(now, a), d]")
            }
            ActionFault::WakeupInPast { at } => write!(f, "wakeup at past instant {at}"),
        }
    }
}

/// The result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// All released jobs with their final lengths, in release order. For a
    /// run that did not complete ([`SimOutcome::termination`]), lengths of
    /// jobs listed in [`SimOutcome::unresolved`] are placeholders.
    pub instance: Instance,
    /// Start times chosen by the scheduler (complete when the run
    /// completed; partial otherwise).
    pub schedule: Schedule,
    /// Span of the schedule (cached from [`Schedule::span`]).
    pub span: Dur,
    /// Feasibility violations (empty for a correct scheduler).
    pub violations: Vec<Violation>,
    /// How the run ended.
    pub termination: Termination,
    /// Scheduler actions the engine refused to apply (empty for a correct
    /// scheduler).
    pub rejected_actions: Vec<RejectedAction>,
    /// Jobs whose adaptive lengths were never ruled because the run was cut
    /// short; their lengths in [`SimOutcome::instance`] are placeholders.
    /// Always empty when the run completed.
    pub unresolved: Vec<JobId>,
    /// Total events processed (diagnostics; equals
    /// [`RunStats::events_total`]).
    pub events_processed: usize,
    /// Engine counters for the run: events by kind, peak event-heap size,
    /// applied/rejected actions, force-starts and wall-clock phases.
    pub stats: RunStats,
    /// Chronological event log (empty unless [`SimConfig::trace`] asked
    /// for recording).
    pub trace: Vec<TraceEvent>,
}

impl SimOutcome {
    /// Whether the run finished without feasibility violations.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the run completed with no violations and no rejected
    /// actions — the strictest notion of a healthy run.
    pub fn is_clean(&self) -> bool {
        self.termination.is_completed()
            && self.violations.is_empty()
            && self.rejected_actions.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EventKind {
    Completion(JobId),
    // Releases are not queued; they are pulled from the environment (or
    // offered to a session) and slot in at priority `RELEASE_ORDER`.
    OrderedStart(JobId),
    LengthProbe(JobId),
    DeadlineAlarm(JobId),
    Wakeup(u64),
}

impl EventKind {
    pub(crate) fn order(&self) -> u8 {
        match self {
            EventKind::Completion(_) => 0,
            EventKind::OrderedStart(_) => 2,
            EventKind::LengthProbe(_) => 3,
            EventKind::DeadlineAlarm(_) => 4,
            EventKind::Wakeup(_) => 5,
        }
    }
}

/// Priority of a release pseudo-event at equal timestamps.
pub(crate) const RELEASE_ORDER: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Event {
    pub(crate) time: Time,
    pub(crate) order: u8,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.order, self.seq).cmp(&(other.time, other.order, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl CalendarEvent for Event {
    fn time(&self) -> Time {
        self.time
    }
}

/// Why [`Core::drive`] stopped before draining (the non-completed half of
/// [`Termination`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Halt {
    /// The event budget ran out.
    EventCap,
    /// The environment broke its contract.
    Fault(EnvFault),
}

impl From<EnvFault> for Halt {
    fn from(fault: EnvFault) -> Self {
        Halt::Fault(fault)
    }
}

/// What the core reports beyond its [`RunStats`] counters, fixed at
/// compile time. A batch run keeps violations, rejected actions and the
/// trace ([`Retain`]); a [`Session`](crate::service::Session) streams its
/// start/finish decisions and compacts its world after each completion.
/// Every hook defaults to a no-op, so a sink pays only for what it keeps.
pub(crate) trait Sink {
    /// A trace event at `at`.
    fn record(&mut self, _at: Time, _kind: TraceKind) {}
    /// A job force-started at its deadline.
    fn violation(&mut self, _violation: Violation) {}
    /// A scheduler action the core refused.
    fn rejected(&mut self, _rejected: RejectedAction) {}
    /// Job `id` started at `at`; `span` already covers its start.
    fn started(&mut self, _id: JobId, _at: Time, _span: &RunningSpan) {}
    /// Job `id` completed at `at`, before `on_completion` runs. The core
    /// reads nothing of the job's record afterwards, so the sink may
    /// compact it away.
    fn completed(&mut self, _id: JobId, _at: Time, _span: &RunningSpan, _world: &mut World) {}
}

/// The batch sink: everything a [`SimOutcome`] reports.
pub(crate) struct Retain {
    trace_mode: TraceMode,
    trace: Vec<TraceEvent>,
    violations: Vec<Violation>,
    rejected: Vec<RejectedAction>,
}

impl Sink for Retain {
    #[inline]
    fn record(&mut self, at: Time, kind: TraceKind) {
        match self.trace_mode {
            TraceMode::Off => {}
            TraceMode::Full => self.trace.push(TraceEvent { time: at, kind }),
        }
    }

    fn violation(&mut self, violation: Violation) {
        self.violations.push(violation);
    }

    fn rejected(&mut self, rejected: RejectedAction) {
        self.rejected.push(rejected);
    }
}

/// The event core shared by batch runs and resident sessions: the world,
/// the calendar queue, the running span and the counters, advanced in the
/// engine's `(time, kind-order, seq)` order. [`run_with_config`] drains it
/// in one [`Core::drive`]; a [`Session`](crate::service::Session) drives it
/// up to each offered arrival with [`Core::offer`] and drains it at close.
pub(crate) struct Core<E, S, K> {
    pub(crate) world: World,
    env: E,
    pub(crate) sched: S,
    queue: CalendarQueue<Event>,
    /// Busy-interval span maintained incrementally as starts and rulings
    /// happen, so completed runs never re-measure the `IntervalSet` union.
    pub(crate) span: RunningSpan,
    seq: u64,
    pub(crate) stats: RunStats,
    /// Events the core may process in total (see [`Halt::EventCap`]).
    pub(crate) max_events: usize,
    /// [`SimConfig::time_phases`].
    time_phases: bool,
    pub(crate) sink: K,
    /// Reused action buffer handed to each [`Ctx`] (one allocation per run,
    /// not per callback).
    scratch: Vec<Action>,
    /// Reused release buffer handed to [`Environment::release_into`] (one
    /// allocation per run, not one per release event).
    spec_scratch: Vec<JobSpec>,
}

impl<E: Environment, S: OnlineScheduler, K: Sink> Core<E, S, K> {
    /// A core at time zero with fresh allocations and a calendar ring
    /// allocated on first use (it grows itself), for a long-lived owner
    /// such as a session.
    pub(crate) fn new(env: E, sched: S, sink: K, max_events: usize) -> Self {
        let parts = EngineScratch {
            world: World::new(env.clairvoyance()),
            queue: CalendarQueue::new(),
            scratch: Vec::new(),
            spec_scratch: Vec::new(),
        };
        Core::with_parts(env, sched, sink, max_events, false, parts)
    }

    fn with_parts(
        env: E,
        sched: S,
        sink: K,
        max_events: usize,
        time_phases: bool,
        parts: EngineScratch,
    ) -> Self {
        let EngineScratch {
            world,
            queue,
            scratch,
            spec_scratch,
        } = parts;
        Core {
            world,
            env,
            sched,
            queue,
            span: RunningSpan::new(),
            seq: 0,
            stats: RunStats::default(),
            max_events,
            time_phases,
            sink,
            scratch,
            spec_scratch,
        }
    }

    #[inline]
    fn record(&mut self, kind: TraceKind) {
        self.sink.record(self.world.now(), kind);
    }

    #[inline]
    fn push(&mut self, time: Time, kind: EventKind) {
        self.queue.push(Event {
            time,
            order: kind.order(),
            seq: self.seq,
            kind,
        });
        self.seq += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    fn reject(&mut self, fault: ActionFault) {
        self.stats.actions_rejected += 1;
        self.sink.rejected(RejectedAction {
            at: self.world.now(),
            fault,
        });
    }

    /// Charges one event against the budget.
    #[inline]
    fn tick(&mut self) -> Result<(), Halt> {
        if self.stats.events_total >= self.max_events {
            return Err(Halt::EventCap);
        }
        self.stats.events_total += 1;
        Ok(())
    }

    /// Starts a phase-timing measurement when [`SimConfig::time_phases`]
    /// is set; [`Core::phase_done`] accumulates it.
    fn phase_start(&self) -> Option<Instant> {
        self.time_phases.then(Instant::now)
    }

    fn phase_done(t0: Option<Instant>, acc: &mut f64) {
        if let Some(t0) = t0 {
            *acc += t0.elapsed().as_secs_f64();
        }
    }

    /// The completion instant `at + p`, guarding against `f64` overflow from
    /// degenerate timestamps.
    fn completion_time(&self, id: JobId, at: Time, p: Dur) -> Result<Time, EnvFault> {
        let raw = at.get() + p.get();
        if !raw.is_finite() {
            return Err(EnvFault::HorizonOverflow { id });
        }
        Ok(Time::new(raw))
    }

    /// Starts a job at `at` and schedules its completion or length probe.
    ///
    /// Callers must have validated that the job is pending and `at` lies in
    /// its start window; this method only reports *environment* misbehavior
    /// (bad adaptive-length rulings) and horizon overflow.
    fn start_job(&mut self, id: JobId, at: Time) -> Result<(), EnvFault> {
        debug_assert!(self.world.is_pending(id), "starting non-pending job {id}");
        debug_assert!({
            let (a, d) = self.world.window_of(id);
            a <= at && at <= d
        });
        let known = self.world.length_of(id);
        self.world.mark_started(id, at);
        self.record(TraceKind::Started { id });
        match known {
            Some(p) => {
                let completion = self.completion_time(id, at, p)?;
                self.span.on_start(at, Some(completion));
                self.push(completion, EventKind::Completion(id));
            }
            None => {
                let t0 = self.phase_start();
                let ruling = self.env.rule_length(id, at, at, &self.world);
                Self::phase_done(t0, &mut self.stats.wall_environment_s);
                match ruling {
                    LengthRuling::Assign(p) => {
                        if !p.is_positive() {
                            return Err(EnvFault::RuledNonPositiveLength { id, length: p });
                        }
                        let completion = self.completion_time(id, at, p)?;
                        self.world.set_length(id, p);
                        self.record(TraceKind::LengthRuled { id, length: p });
                        self.span.on_start(at, Some(completion));
                        self.push(completion, EventKind::Completion(id));
                    }
                    LengthRuling::AskAgainAt(t) => {
                        if t <= at {
                            return Err(EnvFault::ProbeNotDeferred { id, at: t });
                        }
                        self.span.on_start(at, None);
                        self.push(t, EventKind::LengthProbe(id));
                    }
                }
            }
        }
        self.sink.started(id, at, &self.span);
        Ok(())
    }

    /// Runs one scheduler callback against a fresh [`Ctx`] (backed by the
    /// reusable scratch buffer) and applies the actions it requested.
    fn dispatch_callback(
        &mut self,
        call: impl FnOnce(&mut S, &mut Ctx<'_>),
    ) -> Result<(), EnvFault> {
        let mut ctx = Ctx::with_scratch(&self.world, std::mem::take(&mut self.scratch));
        let t0 = self.phase_start();
        call(&mut self.sched, &mut ctx);
        Self::phase_done(t0, &mut self.stats.wall_scheduler_s);
        let mut actions = ctx.into_actions();
        // No-op callbacks (the default on_completion, buffering on_arrival)
        // skip the apply machinery entirely.
        let applied = if actions.is_empty() {
            Ok(())
        } else {
            self.apply_actions(&mut actions)
        };
        actions.clear();
        self.scratch = actions;
        applied
    }

    /// Applies (by draining) the actions a scheduler requested during one
    /// callback. Invalid actions are rejected (counted, reported to the
    /// sink and dropped) rather than aborting the run: a dropped start
    /// leaves the job pending, where the deadline-alarm force-start
    /// guarantees it is eventually scheduled.
    fn apply_actions(&mut self, actions: &mut Vec<Action>) -> Result<(), EnvFault> {
        for action in actions.drain(..) {
            match action {
                Action::StartNow(id) => {
                    let now = self.world.now();
                    if !self.world.is_pending(id) {
                        self.reject(ActionFault::StartNonPending { id });
                        continue;
                    }
                    let (arrival, deadline) = self.world.window_of(id);
                    if now < arrival || now > deadline {
                        self.reject(ActionFault::StartOutsideWindow { id, at: now });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.start_job(id, now)?;
                }
                Action::StartAt(id, at) => {
                    let now = self.world.now();
                    if !self.world.is_pending(id) {
                        self.reject(ActionFault::StartNonPending { id });
                        continue;
                    }
                    if self.world.ordered_start_of(id).is_some() {
                        self.reject(ActionFault::DuplicateOrderedStart { id });
                        continue;
                    }
                    let (arrival, deadline) = self.world.window_of(id);
                    if at < now || at < arrival || at > deadline {
                        self.reject(ActionFault::StartAtOutsideWindow { id, at });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.world.set_ordered_start(id, at);
                    self.push(at, EventKind::OrderedStart(id));
                }
                Action::WakeAt(at, token) => {
                    if at < self.world.now() {
                        self.reject(ActionFault::WakeupInPast { at });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.push(at, EventKind::Wakeup(token));
                }
            }
        }
        Ok(())
    }

    /// Processes events in the engine's total order — queued events and
    /// the environment's releases, re-querying the environment after every
    /// event — until nothing is left that precedes `stop` (nothing at all
    /// when `stop` is `None`). Environment contract breaches and the event
    /// budget halt it; scheduler misbehavior is absorbed.
    pub(crate) fn drive(&mut self, stop: Option<(Time, u8)>) -> Result<(), Halt> {
        loop {
            let queued = self.queue.peek().map(|e| (e.time, e.order));
            let t0 = self.phase_start();
            let next_release = self.env.next_release_time(&self.world);
            Self::phase_done(t0, &mut self.stats.wall_environment_s);
            let release = match next_release {
                Some(rt) if rt < self.world.now() => {
                    return Err(Halt::Fault(EnvFault::ReleaseInPast {
                        scheduled: rt,
                        now: self.world.now(),
                    }))
                }
                Some(rt) => Some((rt, RELEASE_ORDER)),
                None => None,
            };
            let (next, is_release) = match (queued, release) {
                (None, None) => return Ok(()),
                (None, Some(r)) => (r, true),
                (Some(q), None) => (q, false),
                (Some(q), Some(r)) => {
                    if r < q {
                        (r, true)
                    } else {
                        (q, false)
                    }
                }
            };
            if stop.is_some_and(|s| next >= s) {
                return Ok(());
            }
            self.tick()?;
            if is_release {
                self.release_from_env(next.0)?;
            } else if let Some(event) = self.queue.pop() {
                self.dispatch_event(event)?;
            }
        }
    }

    /// Drives every event before `(now, RELEASE_ORDER)`, then admits `spec`
    /// as a release event of its own at `now` — the streaming counterpart
    /// of an environment release. Callers offer non-decreasing `now`s.
    pub(crate) fn offer(&mut self, now: Time, spec: JobSpec) -> Result<JobId, Halt> {
        self.drive(Some((now, RELEASE_ORDER)))?;
        self.tick()?;
        self.stats.release_events += 1;
        self.world.advance_to(now);
        Ok(self.admit(now, spec)?)
    }

    /// One environment release event at `now`: every job the environment
    /// releases at this instant, in order.
    fn release_from_env(&mut self, now: Time) -> Result<(), EnvFault> {
        self.stats.release_events += 1;
        self.world.advance_to(now);
        let mut specs = std::mem::take(&mut self.spec_scratch);
        let t0 = self.phase_start();
        self.env.release_into(now, &self.world, &mut specs);
        Self::phase_done(t0, &mut self.stats.wall_environment_s);
        for spec in specs.drain(..) {
            self.admit(now, spec)?;
        }
        // (On the error path above the buffer is simply dropped.)
        self.spec_scratch = specs;
        Ok(())
    }

    /// Releases one job at `now` (the clock is already there): validates
    /// its spec, queues its deadline alarm and dispatches `on_arrival`.
    fn admit(&mut self, now: Time, spec: JobSpec) -> Result<JobId, EnvFault> {
        let JobSpec { deadline, length } = spec;
        if deadline < now {
            return Err(EnvFault::DeadlineBeforeArrival {
                arrival: now,
                deadline,
            });
        }
        let clairvoyance = self.world.clairvoyance();
        let fixed = match length {
            LengthSpec::Fixed(p) => {
                if !p.is_positive() {
                    return Err(EnvFault::NonPositiveLength { length: p });
                }
                Some(p)
            }
            LengthSpec::Adaptive => {
                if clairvoyance.reveals_class() {
                    return Err(EnvFault::AdaptiveUnderClairvoyance);
                }
                None
            }
        };
        let id = self.world.release(now, deadline, fixed);
        self.stats.jobs_released += 1;
        self.record(TraceKind::Released { id, deadline });
        self.push(deadline, EventKind::DeadlineAlarm(id));
        let arrival = Arrival {
            id,
            arrival: now,
            deadline,
            length: if clairvoyance.is_clairvoyant() {
                fixed
            } else {
                None
            },
            length_class: if clairvoyance.reveals_class() {
                fixed.map(|p| crate::sim::env::geometric_class(p, 2.0, 1.0))
            } else {
                None
            },
        };
        self.dispatch_callback(|sched, ctx| sched.on_arrival(arrival, ctx))?;
        Ok(id)
    }

    /// Processes one popped queue event (the clock moves to its time).
    fn dispatch_event(&mut self, event: Event) -> Result<(), EnvFault> {
        self.world.advance_to(event.time);
        match event.kind {
            EventKind::Completion(id) => {
                self.stats.completions += 1;
                self.stats.jobs_completed += 1;
                self.world.mark_completed(id);
                self.record(TraceKind::Completed { id });
                let Some(length) = self.world.length_of(id) else {
                    // Unreachable: completions are only scheduled once a
                    // length is known (mark_completed checks too).
                    return Ok(());
                };
                self.sink
                    .completed(id, event.time, &self.span, &mut self.world);
                self.dispatch_callback(|sched, ctx| sched.on_completion(id, length, ctx))?;
            }
            EventKind::OrderedStart(id) => {
                self.stats.ordered_starts += 1;
                if self.world.is_pending(id) {
                    self.start_job(id, event.time)?;
                }
            }
            EventKind::LengthProbe(id) => {
                self.stats.length_probes += 1;
                let Some(started_at) = self.world.start_of(id) else {
                    // Unreachable: probes are only scheduled after a
                    // start; skip rather than abort.
                    return Ok(());
                };
                let t0 = self.phase_start();
                let ruling = self
                    .env
                    .rule_length(id, started_at, event.time, &self.world);
                Self::phase_done(t0, &mut self.stats.wall_environment_s);
                match ruling {
                    LengthRuling::Assign(p) => {
                        if !p.is_positive() {
                            return Err(EnvFault::RuledNonPositiveLength { id, length: p });
                        }
                        let completion = self.completion_time(id, started_at, p)?;
                        if completion < event.time {
                            return Err(EnvFault::RulingInPast {
                                id,
                                completion,
                                now: event.time,
                            });
                        }
                        self.world.set_length(id, p);
                        self.record(TraceKind::LengthRuled { id, length: p });
                        self.span.on_rule(completion);
                        self.push(completion, EventKind::Completion(id));
                    }
                    LengthRuling::AskAgainAt(at) => {
                        if at <= event.time {
                            return Err(EnvFault::ProbeNotDeferred { id, at });
                        }
                        self.push(at, EventKind::LengthProbe(id));
                    }
                }
            }
            EventKind::DeadlineAlarm(id) => {
                self.stats.deadline_alarms += 1;
                if !self.world.is_pending(id) {
                    return Ok(()); // already started
                }
                if self.world.ordered_start_of(id).is_some() {
                    // An ordered start exists; it can only be for this
                    // very instant (start_at validates t <= d), and the
                    // OrderedStart event sorts before remaining alarms,
                    // so reaching here means it was issued during this
                    // instant. Honor it now.
                    return self.start_job(id, event.time);
                }
                self.dispatch_callback(|sched, ctx| sched.on_deadline(id, ctx))?;
                if self.world.is_pending(id) && self.world.ordered_start_of(id).is_none() {
                    self.stats.force_starts += 1;
                    self.sink.violation(Violation { id, at: event.time });
                    self.record(TraceKind::ForcedStart { id });
                    self.start_job(id, event.time)?;
                }
            }
            EventKind::Wakeup(token) => {
                self.stats.wakeups += 1;
                self.record(TraceKind::Wakeup { token });
                self.dispatch_callback(|sched, ctx| sched.on_wakeup(token, ctx))?;
            }
        }
        Ok(())
    }
}

impl<E, S> Core<E, S, Retain> {
    /// Packages a drained (`halt == None`) or halted batch run as its
    /// [`SimOutcome`] and hands back the recyclable allocations.
    fn finish(mut self, halt: Option<Halt>) -> (SimOutcome, EngineScratch) {
        let termination = match halt {
            None => Termination::Completed,
            Some(Halt::EventCap) => Termination::EventCapExhausted {
                events: self.stats.events_total,
            },
            Some(Halt::Fault(fault)) => Termination::EnvironmentFault(fault),
        };

        if termination.is_completed() {
            debug_assert_eq!(self.world.num_running(), 0);
            debug_assert_eq!(self.world.num_pending(), 0);
        }

        let (instance, unresolved) = self.world.to_partial_instance();
        debug_assert!(unresolved.is_empty() || !termination.is_completed());
        let mut schedule = Schedule::with_len(instance.len());
        for (id, start) in self.world.starts() {
            if let Some(start) = start {
                schedule.set_start(id, start);
            }
        }
        // A drained run has every start's completion ruled, so the running
        // scalar is the exact span; aborted runs fall back to measuring the
        // partial schedule (placeholder lengths make the scalar meaningless).
        let span = match self.span.total_if_resolved() {
            Some(s) if termination.is_completed() => {
                debug_assert_eq!(
                    s.get().to_bits(),
                    schedule.span(&instance).get().to_bits(),
                    "incremental span must be bit-identical to the measured union"
                );
                s
            }
            _ => schedule.span(&instance),
        };
        self.stats.peak_retained = self.world.peak_retained();
        self.stats.arena_slots = self.world.arena_slots();
        let outcome = SimOutcome {
            instance,
            schedule,
            span,
            violations: self.sink.violations,
            termination,
            rejected_actions: self.sink.rejected,
            unresolved,
            events_processed: self.stats.events_total,
            stats: self.stats,
            trace: self.sink.trace,
        };
        let scratch = EngineScratch {
            world: self.world,
            queue: self.queue,
            scratch: self.scratch,
            spec_scratch: self.spec_scratch,
        };
        (outcome, scratch)
    }
}

/// The engine's recyclable allocations: the arena-backed world (eleven
/// column vectors), the calendar ring, and the two per-run scratch buffers.
/// `run_with_config` parks one of these per thread between runs, so
/// harness-shaped workloads — thousands of deck-sized runs back to back —
/// pay the malloc bill once per thread instead of once per run. Every part
/// is reset to its pristine state before reuse, so a recycled run is
/// observably identical to a fresh one (the equivalence and determinism
/// suites drive both paths).
struct EngineScratch {
    world: World,
    queue: CalendarQueue<Event>,
    scratch: Vec<Action>,
    spec_scratch: Vec<JobSpec>,
}

/// Arenas above this capacity (in records) are dropped rather than parked,
/// so one huge run does not pin megabytes to a long-lived thread.
const POOL_MAX_RECORDS: usize = 1 << 15;

thread_local! {
    static SCRATCH_POOL: std::cell::Cell<Option<Box<EngineScratch>>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `sched` against `env` until no events remain.
pub fn run<E: Environment, S: OnlineScheduler>(env: E, sched: S) -> SimOutcome {
    run_with_config(env, sched, SimConfig::default())
}

/// Runs with explicit [`SimConfig`]: feeds the environment through the
/// event core until it drains (or halts).
pub fn run_with_config<E: Environment, S: OnlineScheduler>(
    env: E,
    sched: S,
    config: SimConfig,
) -> SimOutcome {
    // Pre-sized: a typical run keeps a deadline alarm plus a completion in
    // flight per overlapping job, so `2n` calendar days absorb the common
    // case. The cap keeps huge runs from paying for a giant ring up front
    // (the queue grows itself), and the `2n` side keeps tiny runs — the
    // conformance decks and sweeps are dominated by 2–8 job instances —
    // on a few-bucket ring instead of the full default.
    let mut queue_hint = INITIAL_QUEUE_CAPACITY;
    let expected = env.expected_jobs();
    if let Some(n) = expected {
        queue_hint = queue_hint.min(2 * n.max(1));
    }
    // Recycle the previous run's allocations (this thread) or start fresh;
    // either way the parts are in their pristine state before the run.
    let mut parts = match SCRATCH_POOL.with(|p| p.take()) {
        Some(mut parts) => {
            parts.world.reset(env.clairvoyance());
            parts.queue.reset(queue_hint.min(config.max_events));
            parts.scratch.clear();
            parts.spec_scratch.clear();
            parts
        }
        None => Box::new(EngineScratch {
            world: World::new(env.clairvoyance()),
            queue: CalendarQueue::with_capacity(queue_hint.min(config.max_events)),
            scratch: Vec::new(),
            spec_scratch: Vec::new(),
        }),
    };
    if let Some(n) = expected {
        parts.world.reserve_jobs(n);
    }
    let sink = Retain {
        trace_mode: config.trace,
        trace: Vec::new(),
        violations: Vec::new(),
        rejected: Vec::new(),
    };
    let mut core = Core::with_parts(
        env,
        sched,
        sink,
        config.max_events,
        config.time_phases,
        *parts,
    );
    let run_start = Instant::now();
    let halt = core.drive(None).err();
    core.stats.wall_total_s = run_start.elapsed().as_secs_f64();
    let (outcome, used) = core.finish(halt);
    if used.world.capacity() <= POOL_MAX_RECORDS {
        SCRATCH_POOL.with(|p| p.set(Some(Box::new(used))));
    }
    outcome
}

/// Initial event-queue capacity (clamped to `max_events` for micro runs).
const INITIAL_QUEUE_CAPACITY: usize = 64;

/// Convenience: runs a scheduler on a static instance.
///
/// Note: the outcome's instance lists jobs in *release order* (sorted by
/// arrival), which may be a permutation of `inst`; spans are unaffected.
pub fn run_static<S: OnlineScheduler>(
    inst: &Instance,
    clairvoyance: Clairvoyance,
    sched: S,
) -> SimOutcome {
    let env = crate::sim::env::StaticEnv::new(inst, clairvoyance);
    run(env, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::time::{dur, t};

    /// Starts every job the moment it arrives.
    struct EagerTest;
    impl OnlineScheduler for EagerTest {
        fn name(&self) -> String {
            "eager-test".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {
            unreachable!("eager never leaves jobs pending");
        }
    }

    /// Starts every job at its deadline via the deadline alarm.
    struct LazyTest;
    impl OnlineScheduler for LazyTest {
        fn name(&self) -> String {
            "lazy-test".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
            ctx.start(id);
        }
    }

    /// Never starts anything voluntarily (exercises force-start violations).
    struct Broken;
    impl OnlineScheduler for Broken {
        fn name(&self) -> String {
            "broken".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn inst() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 2.0, 1.0),
            Job::adp(0.5, 3.0, 2.0),
            Job::adp(10.0, 12.0, 1.0),
        ])
    }

    #[test]
    fn eager_starts_at_arrivals() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.is_feasible());
        assert!(out.schedule.is_complete());
        // [0,1) ∪ [0.5,2.5) ∪ [10,11) → 2.5 + 1.
        assert_eq!(out.span, dur(3.5));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(0.5)));
        assert_eq!(out.schedule.start(JobId(2)), Some(t(10.0)));
        assert!(out.schedule.validate(&out.instance).is_ok());
    }

    #[test]
    fn lazy_starts_at_deadlines() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, LazyTest);
        assert!(out.is_feasible());
        // [2,3) ∪ [3,5) ∪ [12,13) → 3 + 1.
        assert_eq!(out.span, dur(4.0));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(3.0)));
    }

    #[test]
    fn broken_scheduler_is_force_started_with_violations() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Broken);
        assert_eq!(out.violations.len(), 3);
        assert!(!out.is_feasible());
        // Force-start happens at each deadline, so spans match Lazy.
        assert_eq!(out.span, dur(4.0));
    }

    #[test]
    fn start_at_commitment_honored() {
        /// Commits each arrival to start at its deadline via start_at.
        struct Committer;
        impl OnlineScheduler for Committer {
            fn name(&self) -> String {
                "committer".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {
                unreachable!("ordered start should pre-empt the alarm");
            }
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Committer);
        assert!(out.is_feasible());
        assert_eq!(out.span, dur(4.0));
    }

    #[test]
    fn wakeups_fire_with_tokens() {
        /// Starts each job 0.5 after its arrival using a wakeup.
        struct Waker;
        impl OnlineScheduler for Waker {
            fn name(&self) -> String {
                "waker".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.wake_at(job.arrival + dur(0.5), u64::from(job.id.0));
            }
            fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
                ctx.start(id);
            }
            fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                let id = JobId(token as u32);
                if ctx.is_pending(id) {
                    ctx.start(id);
                }
            }
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Waker);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.5)));
        assert_eq!(out.schedule.start(JobId(2)), Some(t(10.5)));
    }

    #[test]
    fn non_clairvoyant_masks_lengths_until_completion() {
        struct Observer {
            saw_length_at_arrival: bool,
            completion_lengths: Vec<Dur>,
        }
        impl OnlineScheduler for Observer {
            fn name(&self) -> String {
                "observer".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                self.saw_length_at_arrival |= job.length.is_some();
                ctx.start(job.id);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
            fn on_completion(&mut self, _id: JobId, length: Dur, _ctx: &mut Ctx<'_>) {
                self.completion_lengths.push(length);
            }
        }
        let mut obs = Observer {
            saw_length_at_arrival: false,
            completion_lengths: vec![],
        };
        {
            let env = crate::sim::env::StaticEnv::new(&inst(), Clairvoyance::NonClairvoyant);
            let out = run_with_config(env, &mut obs, SimConfig::default());
            assert!(out.is_feasible());
        }
        assert!(!obs.saw_length_at_arrival);
        assert_eq!(obs.completion_lengths.len(), 3);
    }

    #[test]
    fn adaptive_lengths_via_probe() {
        /// Environment releasing one adaptive job and ruling length 2.0 one
        /// time unit after start (the Theorem 3.3 adversary's cadence).
        struct OneAdaptive {
            released: bool,
        }
        impl Environment for OneAdaptive {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::NonClairvoyant
            }
            fn next_release_time(&mut self, _world: &World) -> Option<Time> {
                (!self.released).then(|| t(1.0))
            }
            fn release_at(&mut self, _now: Time, _world: &World) -> Vec<JobSpec> {
                self.released = true;
                vec![JobSpec::adaptive(t(4.0))]
            }
            fn rule_length(
                &mut self,
                _id: JobId,
                started_at: Time,
                now: Time,
                _world: &World,
            ) -> LengthRuling {
                if now == started_at {
                    LengthRuling::AskAgainAt(started_at + dur(1.0))
                } else {
                    LengthRuling::Assign(dur(2.0))
                }
            }
        }
        let out = run(OneAdaptive { released: false }, EagerTest);
        assert!(out.is_feasible());
        assert_eq!(out.instance.job(JobId(0)).length(), dur(2.0));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(1.0)));
        assert_eq!(out.span, dur(2.0));
    }

    #[test]
    fn outcome_instance_matches_release_order() {
        let source = Instance::new(vec![
            Job::adp(5.0, 6.0, 1.0), // released second
            Job::adp(0.0, 1.0, 2.0), // released first
        ]);
        let out = run_static(&source, Clairvoyance::Clairvoyant, EagerTest);
        assert_eq!(out.instance.job(JobId(0)).arrival(), t(0.0));
        assert_eq!(out.instance.job(JobId(1)).arrival(), t(5.0));
    }

    #[test]
    fn event_cap_yields_typed_termination_with_partial_schedule() {
        /// Wakes itself up forever.
        struct Spinner;
        impl OnlineScheduler for Spinner {
            fn name(&self) -> String {
                "spinner".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start(job.id);
                ctx.wake_at(job.arrival + dur(1.0), 0);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
            fn on_wakeup(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                ctx.wake_at(ctx.now() + dur(1.0), 0);
            }
        }
        let single = Instance::new(vec![Job::adp(0.0, 0.0, 1.0)]);
        let env = crate::sim::env::StaticEnv::new(&single, Clairvoyance::Clairvoyant);
        let out = run_with_config(
            env,
            Spinner,
            SimConfig {
                max_events: 100,
                ..SimConfig::default()
            },
        );
        assert_eq!(
            out.termination,
            Termination::EventCapExhausted { events: 100 }
        );
        assert!(!out.is_clean());
        // The partial schedule still carries everything that happened before
        // the cap: the one real job was started (and completed).
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
        assert_eq!(out.instance.len(), 1);
        assert!(out.unresolved.is_empty());
    }

    #[test]
    fn rejected_actions_are_dropped_and_job_force_started() {
        /// Issues a barrage of invalid actions, never a valid start.
        struct Hostile;
        impl OnlineScheduler for Hostile {
            fn name(&self) -> String {
                "hostile".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start(JobId(999)); // never released
                ctx.start_at(job.id, job.deadline + dur(5.0)); // past deadline
                ctx.wake_at(job.arrival - dur(1.0), 7); // in the past
            }
            fn on_deadline(&mut self, id: JobId, _ctx: &mut Ctx<'_>) {
                let _ = id; // refuse to start
            }
        }
        let single = Instance::new(vec![Job::adp(1.0, 3.0, 2.0)]);
        let out = run_static(&single, Clairvoyance::Clairvoyant, Hostile);
        assert!(out.termination.is_completed(), "run absorbs the abuse");
        assert_eq!(out.rejected_actions.len(), 3);
        assert!(matches!(
            out.rejected_actions[0].fault,
            ActionFault::StartNonPending { id: JobId(999) }
        ));
        assert!(matches!(
            out.rejected_actions[1].fault,
            ActionFault::StartAtOutsideWindow { .. }
        ));
        assert!(matches!(
            out.rejected_actions[2].fault,
            ActionFault::WakeupInPast { .. }
        ));
        // The job was force-started at its deadline, so the schedule is
        // complete despite the scheduler never issuing a valid start.
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.schedule.start(JobId(0)), Some(t(3.0)));
        assert!(out.schedule.validate(&out.instance).is_ok());
    }

    #[test]
    fn duplicate_ordered_start_rejected_but_first_honored() {
        struct DoubleCommit;
        impl OnlineScheduler for DoubleCommit {
            fn name(&self) -> String {
                "double-commit".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
                ctx.start_at(job.id, job.arrival); // duplicate → rejected
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        }
        let single = Instance::new(vec![Job::adp(0.0, 2.0, 1.0)]);
        let out = run_static(&single, Clairvoyance::Clairvoyant, DoubleCommit);
        assert!(out.termination.is_completed());
        assert_eq!(out.rejected_actions.len(), 1);
        assert!(matches!(
            out.rejected_actions[0].fault,
            ActionFault::DuplicateOrderedStart { id: JobId(0) }
        ));
        assert!(out.is_feasible(), "first commitment still honored");
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
    }

    #[test]
    fn environment_fault_terminates_with_partial_outcome() {
        /// Releases one good job, then one whose deadline precedes arrival.
        struct BadEnv {
            step: u8,
        }
        impl Environment for BadEnv {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::Clairvoyant
            }
            fn next_release_time(&mut self, _world: &World) -> Option<Time> {
                match self.step {
                    0 => Some(t(0.0)),
                    1 => Some(t(1.0)),
                    _ => None,
                }
            }
            fn release_at(&mut self, now: Time, _world: &World) -> Vec<JobSpec> {
                self.step += 1;
                match self.step {
                    1 => vec![JobSpec::fixed(now + dur(4.0), dur(1.0))],
                    _ => vec![JobSpec::fixed(now - dur(0.5), dur(1.0))],
                }
            }
        }
        let out = run(BadEnv { step: 0 }, EagerTest);
        assert!(matches!(
            out.termination,
            Termination::EnvironmentFault(EnvFault::DeadlineBeforeArrival { .. })
        ));
        assert!(!out.is_clean());
        // The first (legal) job made it into the partial outcome.
        assert!(!out.instance.is_empty());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
    }

    #[test]
    fn empty_instance_runs_to_empty_outcome() {
        let out = run_static(&Instance::empty(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.is_feasible());
        assert_eq!(out.span, Dur::ZERO);
        assert_eq!(out.instance.len(), 0);
    }

    #[test]
    fn trace_records_full_lifecycle() {
        let single = Instance::new(vec![Job::adp(0.0, 2.0, 1.0)]);
        let env = crate::sim::env::StaticEnv::new(&single, Clairvoyance::Clairvoyant);
        let out = run_with_config(
            env,
            LazyTest,
            SimConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        );
        use crate::sim::trace::TraceKind;
        let kinds: Vec<_> = out.trace.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Released {
                    id: JobId(0),
                    deadline: t(2.0)
                },
                TraceKind::Started { id: JobId(0) },
                TraceKind::Completed { id: JobId(0) },
            ]
        );
        assert_eq!(out.trace[1].time, t(2.0));
        assert_eq!(out.trace[2].time, t(3.0));
    }

    #[test]
    fn trace_empty_when_disabled() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn run_stats_count_events_exactly() {
        // Eager on the 3-job instance: every event is accounted for.
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        let s = out.stats;
        assert_eq!(s.release_events, 3, "one release instant per arrival");
        assert_eq!(s.jobs_released, 3);
        assert_eq!(s.completions, 3);
        assert_eq!(s.jobs_completed, 3);
        assert_eq!(s.deadline_alarms, 3, "alarms fire even for started jobs");
        assert_eq!(s.ordered_starts, 0);
        assert_eq!(s.length_probes, 0);
        assert_eq!(s.wakeups, 0);
        assert_eq!(s.events_total, 9);
        assert!(s.is_consistent());
        assert_eq!(s.events_total, out.events_processed);
        // J0 and J1 overlap in time: alarm0 + completion0 + alarm1 +
        // completion1 are all queued at once before anything pops.
        assert_eq!(s.peak_queue, 4);
        assert_eq!(s.actions_applied, 3, "three StartNow actions");
        assert_eq!(s.actions_rejected, 0);
        assert_eq!(s.force_starts, 0);
        assert!(s.wall_total_s >= 0.0 && s.wall_total_s.is_finite());
        // Phase timing is off by default.
        assert_eq!(s.wall_scheduler_s, 0.0);
        assert_eq!(s.wall_environment_s, 0.0);
    }

    #[test]
    fn run_stats_track_force_starts_and_rejections() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Broken);
        assert_eq!(out.stats.force_starts, 3);
        assert_eq!(out.stats.force_starts, out.violations.len());
        assert_eq!(out.stats.actions_applied, 0);
        assert_eq!(
            out.stats.jobs_completed, 3,
            "force-started jobs still complete"
        );
    }

    #[test]
    fn time_phases_populates_wall_splits_without_changing_counts() {
        let env = crate::sim::env::StaticEnv::new(&inst(), Clairvoyance::Clairvoyant);
        let timed = run_with_config(
            env,
            EagerTest,
            SimConfig {
                time_phases: true,
                ..SimConfig::default()
            },
        );
        let untimed = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        // Same deterministic counters either way; only wall clocks differ.
        assert_eq!(
            {
                let mut s = timed.stats;
                s.wall_total_s = 0.0;
                s.wall_scheduler_s = 0.0;
                s.wall_environment_s = 0.0;
                s
            },
            {
                let mut s = untimed.stats;
                s.wall_total_s = 0.0;
                s
            },
        );
        assert!(timed.stats.wall_scheduler_s >= 0.0);
        assert!(timed.stats.wall_environment_s >= 0.0);
        assert!(timed.stats.wall_total_s >= timed.stats.wall_scheduler_s);
    }

    #[test]
    fn run_stats_count_wakeups_and_ordered_starts() {
        /// Commits each arrival to its deadline and also asks for a wakeup.
        struct CommitAndWake;
        impl OnlineScheduler for CommitAndWake {
            fn name(&self) -> String {
                "commit-and-wake".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
                ctx.wake_at(job.deadline, u64::from(job.id.0));
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, CommitAndWake);
        assert!(out.is_feasible());
        assert_eq!(out.stats.ordered_starts, 3);
        assert_eq!(out.stats.wakeups, 3);
        assert_eq!(out.stats.actions_applied, 6, "3 start_at + 3 wake_at");
        assert!(out.stats.is_consistent());
    }

    #[test]
    fn simultaneous_deadline_alarms_after_batch_start() {
        /// Batch-like: on a deadline alarm, start every pending job.
        struct MiniBatch;
        impl OnlineScheduler for MiniBatch {
            fn name(&self) -> String {
                "mini-batch".into()
            }
            fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
            fn on_deadline(&mut self, _id: JobId, ctx: &mut Ctx<'_>) {
                let pending: Vec<JobId> = ctx.pending().collect();
                for id in pending {
                    ctx.start(id);
                }
            }
        }
        // Two jobs share a deadline; the first alarm starts both, the second
        // alarm must be a no-op.
        let two = Instance::new(vec![Job::adp(0.0, 2.0, 1.0), Job::adp(0.0, 2.0, 5.0)]);
        let out = run_static(&two, Clairvoyance::Clairvoyant, MiniBatch);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(2.0)));
        assert_eq!(out.span, dur(5.0));
    }
}
