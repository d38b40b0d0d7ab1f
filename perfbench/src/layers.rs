//! The traced run's layer probes. Each probe times calls into one
//! layer's public function over the workload's own inputs and records
//! them as spans; [`metrics`] turns the spans into the per-layer metrics.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fjs_cli::serve::protocol::{parse_request, Request};
use fjs_core::service::{
    stable_shard, tenant_of, JobOffer, PoolRequest, ServeEvent, ServeJournal, Session,
    SessionFactory, SessionPool, DEFAULT_SYNC_EVERY,
};
use fjs_core::sim::run_static;
use fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS;
use fjs_core::time::{dur, t};
use fjs_schedulers::SchedulerKind;

use crate::gen::{Script, HOSTILE_SID, TENANT_MAX_PENDING};
use crate::serve::{pooled_workers, recover, Cfg, Tally};
use crate::stats::{median, usage};
use crate::trace::Tracer;
use crate::{Checks, Metric};

fn kind(name: &str) -> SchedulerKind {
    SchedulerKind::from_short_name(name).expect("generator uses registry short names")
}

/// A session exactly as the serve layer builds one for a plain spec.
fn session(spec: &str) -> Result<Session, String> {
    let k = SchedulerKind::from_short_name(spec).ok_or_else(|| format!("unknown spec {spec}"))?;
    Ok(Session::new(k.build(), k.information_model()).with_watchdog(DEFAULT_WATCHDOG_EVENTS))
}

/// Counts the probes gather besides span durations.
#[derive(Default)]
pub struct Counts {
    job_requests: u64,
    shed: u64,
    offers: u64,
    decisions: u64,
    peak_retained: usize,
    journal_records: u64,
    journal_syncs: u64,
    sync_ns: Vec<f64>,
    pool_requests: u64,
    pool_ctx_switches: u64,
    pool_cpu_s: f64,
    pool_wall_s: f64,
    ingested_jobs: u64,
    engine_jobs: u64,
    engine_events: u64,
    engine_peak_queue: usize,
}

/// One pass of the script through a backend with `cfg`, each `submit`
/// followed by shadow replays of the work it does inside: parsing,
/// the session call and (for a journaled backend) the journal append.
/// For the serial backend those replays are the `submit` span's children,
/// so its self time is the residual; the pooled backend runs sessions on
/// its workers, so there the replays are roots of their own.
pub fn serve_probe(
    cfg: &Cfg,
    script: &Script,
    reference: &[u8],
    work: &std::path::Path,
    tr: &mut Tracer,
    n: &mut Counts,
    ck: &mut Checks,
) -> Result<(), String> {
    let live = work.join("probe-live.journal");
    let shadow_path = work.join("probe-shadow.journal");
    let mut b = cfg.backend(cfg.journaled.then_some(live.as_path()))?;
    let mut shadow_journal = ServeJournal::create(&shadow_path)
        .map_err(|e| format!("shadow journal: {e}"))?
        .with_sync_every(DEFAULT_SYNC_EVERY);
    let mut shadows: HashMap<String, Session> = HashMap::new();
    let serial = cfg.opts.workers <= 1;
    let mut hostile_admitted = 0usize;
    let mut out = Vec::new();
    let mut tally = Tally::default();
    let mut offset = 0u64;
    for (i, line) in script.lines().enumerate() {
        let req = i as u64;
        let line_no = req + 1;
        let sub = tr.open("backend.submit", req, None);
        b.submit(0, offset, line, &mut out)?;
        tr.close(sub);
        offset += line.len() as u64;
        for (_, r) in out.drain(..) {
            tally.note(&r);
        }
        let parent = serial.then_some(sub);
        let parsed = tr.span("protocol.parse", req, parent, || parse_request(line));
        let event = match parsed {
            Ok(Some(Request::Open { sid, spec })) => {
                let s = tr.span("session.open", req, parent, || session(&spec))?;
                shadows.insert(sid.clone(), s);
                Some(ServeEvent::Open {
                    session: sid,
                    scheduler: spec,
                    line: line_no,
                })
            }
            Ok(Some(Request::Job {
                sid,
                arrival,
                deadline,
                length,
            })) => {
                n.job_requests += 1;
                // The governor admits the hostile tenant up to its quota
                // (its jobs never leave the session) and sheds the rest.
                let admitted = if sid == HOSTILE_SID {
                    hostile_admitted += 1;
                    hostile_admitted <= TENANT_MAX_PENDING
                } else {
                    true
                };
                if admitted {
                    let s = shadows.get_mut(&sid).expect("job for an opened session");
                    let offer = JobOffer {
                        arrival: t(arrival),
                        deadline: t(deadline),
                        length: dur(length),
                    };
                    let d = tr.span("session.offer", req, parent, || {
                        let r = s.offer(offer);
                        (r, s.take_decisions().len())
                    });
                    ck.check(d.0.is_ok(), || format!("shadow offer refused: {:?}", d.0));
                    n.offers += 1;
                    n.decisions += d.1 as u64;
                    Some(ServeEvent::Job {
                        session: sid,
                        line: line_no,
                        arrival,
                        deadline,
                        length,
                    })
                } else {
                    None
                }
            }
            Ok(Some(Request::Close { sid })) => {
                let mut s = shadows.remove(&sid).expect("close of an opened session");
                let d = tr.span("session.close", req, parent, || {
                    s.close();
                    s.take_decisions().len()
                });
                n.decisions += d as u64;
                n.peak_retained = n.peak_retained.max(s.peak_retained_records());
                Some(ServeEvent::Close {
                    session: sid,
                    line: line_no,
                })
            }
            other => return Err(format!("script line {line_no} parsed as {other:?}")),
        };
        if let Some(ev) = event {
            let jp = cfg.journaled.then_some(sub);
            let id = tr.open("journal.append", req, jp);
            let r = shadow_journal.append(&ev);
            tr.close(id);
            r.map_err(|e| format!("shadow journal: {e}"))?;
            n.journal_records += 1;
            if shadow_journal.records_appended() % DEFAULT_SYNC_EVERY as u64 == 0 {
                n.journal_syncs += 1;
                n.sync_ns.push(tr.spans[id].dur_ns() as f64);
            }
        }
    }
    // The replays stand in for work done inside `submit`; if in total
    // they cost more than the calls themselves, the residual is no
    // longer a measure of anything.
    let submit = tr.totals()["backend.submit"];
    ck.check(submit.self_ns > 0, || {
        format!(
            "backend.submit self time {} ns: the shadow replays outweigh the calls",
            submit.self_ns
        )
    });
    let id = tr.open("backend.settle", 0, None);
    b.settle(&mut out)?;
    tr.close(id);
    for (_, r) in out.drain(..) {
        tally.note(&r);
    }
    let (summary, sink) = b.finish()?;
    tally.check(script, ck);
    n.shed += tally.shed as u64;
    ck.check(summary.halted.is_none(), || "probe backend halted".into());
    ck.check(sink.mem() == Some(reference), || {
        "probe decision log differs from the reference".into()
    });

    let id = tr.open("journal.sync", 0, None);
    shadow_journal
        .sync()
        .map_err(|e| format!("shadow journal: {e}"))?;
    tr.close(id);
    n.journal_syncs += 1;
    let events = tr
        .span("journal.load", 0, None, || ServeJournal::load(&shadow_path))
        .map_err(|e| format!("journal load: {e}"))?;
    ck.check(events.len() as u64 == n.journal_records, || {
        format!("loaded {} of {} records", events.len(), n.journal_records)
    });
    let id = tr.open("backend.resume", 0, None);
    let (_, records, log) = recover(cfg, &shadow_path)?;
    tr.close(id);
    ck.check(records as u64 == n.journal_records, || {
        "resume record count".into()
    });
    ck.check(log == reference, || "resumed probe log differs".into());
    Ok(())
}

/// `SessionPool::submit` through to the reply, with pre-parsed requests,
/// up to the backend's dispatch window; context switches and CPU time
/// are read around the whole pass.
pub fn pool_probe(
    cfg: &Cfg,
    script: &Script,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Result<(), String> {
    let reqs: Vec<PoolRequest> = script
        .lines()
        .map(|l| match parse_request(l) {
            Ok(Some(Request::Open { sid, spec })) => PoolRequest::Open { sid, spec },
            Ok(Some(Request::Job {
                sid,
                arrival,
                deadline,
                length,
            })) => PoolRequest::Offer {
                sid,
                offer: JobOffer {
                    arrival: t(arrival),
                    deadline: t(deadline),
                    length: dur(length),
                },
            },
            Ok(Some(Request::Close { sid })) => PoolRequest::Close { sid },
            other => panic!("generator emits only open/job/close, got {other:?}"),
        })
        .collect();
    // The pool runs at the gate's width on every workload, so the
    // multi-worker pool is measured even where the backend is serial.
    let workers = pooled_workers();
    let factory: SessionFactory = Arc::new(session);
    let pool = SessionPool::new(
        workers,
        cfg.opts.max_pending,
        cfg.opts.tenant_quotas,
        factory,
    );
    let window = cfg.opts.max_pending.max(1);
    let mut ids = Vec::with_capacity(reqs.len());
    let mut received = 0usize;
    let u0 = usage();
    let t0 = Instant::now();
    let receive = |tr: &mut Tracer, ids: &[usize], block: bool| {
        let got = if block {
            pool.recv_timeout(Duration::from_secs(5))
        } else {
            pool.try_recv()
        };
        got.map(|(seq, _)| tr.close(ids[seq as usize])).is_some()
    };
    for (seq, req) in reqs.into_iter().enumerate() {
        while ids.len() - received >= window {
            if !receive(tr, &ids, true) {
                return Err("pool reply timed out".into());
            }
            received += 1;
        }
        let sid = match &req {
            PoolRequest::Open { sid, .. }
            | PoolRequest::Offer { sid, .. }
            | PoolRequest::Close { sid }
            | PoolRequest::Stats { sid } => sid.clone(),
        };
        ids.push(tr.open("pool.roundtrip", seq as u64, None));
        pool.submit(stable_shard(tenant_of(&sid), workers), seq as u64, req)?;
        while receive(tr, &ids, false) {
            received += 1;
        }
    }
    while received < ids.len() {
        if !receive(tr, &ids, true) {
            return Err("pool reply timed out".into());
        }
        received += 1;
    }
    n.pool_wall_s = t0.elapsed().as_secs_f64();
    let u1 = usage();
    pool.shutdown();
    n.pool_requests = ids.len() as u64;
    n.pool_ctx_switches = u1.ctx_switches - u0.ctx_switches;
    n.pool_cpu_s = u1.cpu_s - u0.cpu_s;
    Ok(())
}

/// The research path on one job set: the workloads layer ingests the
/// CSV bytes, `opt` bounds the instance, and the engine runs each kind.
pub fn engine_probe(
    csv: &str,
    kinds: &[&str],
    tr: &mut Tracer,
    n: &mut Counts,
    ck: &mut Checks,
) -> Result<(), String> {
    let inst = tr
        .span("workloads.parse_trace", 0, None, || {
            fjs_workloads::parse_trace(csv)
        })
        .map_err(|e| format!("trace: {e}"))?
        .instance;
    n.ingested_jobs += inst.len() as u64;
    let lb = tr.span("opt.best_lower_bound", 0, None, || {
        fjs_opt::best_lower_bound(&inst)
    });
    for name in kinds {
        let k = kind(name);
        let out = tr.span("engine.run_static", 0, None, || {
            run_static(&inst, k.information_model(), k.build())
        });
        ck.check(out.is_feasible() && out.span >= lb, || {
            format!("{name}: infeasible or span below the lower bound")
        });
        n.engine_jobs += inst.len() as u64;
        n.engine_events += out.stats.events_total as u64;
        n.engine_peak_queue = n.engine_peak_queue.max(out.stats.peak_queue);
    }
    Ok(())
}

/// The per-layer metrics, from the spans and counts of the probes.
pub fn metrics(tr: &Tracer, n: &Counts, overhead_frac: f64) -> Vec<Metric> {
    let tot = tr.totals();
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let per = |ns: f64, count: u64| ns / count.max(1) as f64;
    let submit = get("backend.submit");
    vec![
        Metric::new(
            "protocol.parse_ns_per_req",
            per(
                get("protocol.parse").total_ns as f64,
                get("protocol.parse").count,
            ),
            "ns",
        ),
        Metric::new(
            "session.offer_ns_per_job",
            per(get("session.offer").total_ns as f64, n.offers),
            "ns",
        ),
        Metric::new(
            "session.decisions_per_job",
            per(n.decisions as f64, n.offers),
            "count",
        ),
        Metric::new(
            "session.peak_retained_records",
            n.peak_retained as f64,
            "count",
        ),
        Metric::new(
            "backend.submit_ns_per_req",
            per(submit.total_ns as f64, submit.count),
            "ns",
        ),
        Metric::new(
            "backend.residual_ns_per_req",
            per(submit.self_ns as f64, submit.count),
            "ns",
        ),
        Metric::new(
            "backend.settle_s",
            get("backend.settle").total_ns as f64 * 1e-9,
            "s",
        ),
        Metric::new(
            "governor.shed_frac",
            per(n.shed as f64, n.job_requests),
            "ratio",
        ),
        Metric::new(
            "pool.roundtrip_ns_per_req",
            per(n.pool_wall_s * 1e9, n.pool_requests),
            "ns",
        ),
        Metric::new(
            "pool.ctx_switches_per_kreq",
            per(n.pool_ctx_switches as f64 * 1000.0, n.pool_requests),
            "count",
        ),
        Metric::new("pool.cpu_util", n.pool_cpu_s / n.pool_wall_s, "ratio"),
        Metric::new(
            "journal.append_ns_per_rec",
            per(get("journal.append").total_ns as f64, n.journal_records),
            "ns",
        ),
        Metric::new(
            "journal.sync_us_p50",
            if n.sync_ns.is_empty() {
                0.0
            } else {
                median(&n.sync_ns) * 1e-3
            },
            "us",
        ),
        Metric::new(
            "journal.syncs_per_krec",
            per(n.journal_syncs as f64 * 1000.0, n.journal_records),
            "count",
        ),
        Metric::new(
            "journal.load_ns_per_rec",
            per(get("journal.load").total_ns as f64, n.journal_records),
            "ns",
        ),
        Metric::new(
            "resume.ns_per_rec",
            per(get("backend.resume").total_ns as f64, n.journal_records),
            "ns",
        ),
        Metric::new(
            "engine.ns_per_event",
            per(get("engine.run_static").total_ns as f64, n.engine_events),
            "ns",
        ),
        Metric::new(
            "engine.events_per_job",
            per(n.engine_events as f64, n.engine_jobs),
            "count",
        ),
        Metric::new("engine.peak_queue", n.engine_peak_queue as f64, "count"),
        Metric::new(
            "opt.lb_ns_per_job",
            per(get("opt.best_lower_bound").total_ns as f64, n.ingested_jobs),
            "ns",
        ),
        Metric::new(
            "workloads.gen_ns_per_job",
            per(
                get("workloads.parse_trace").total_ns as f64,
                n.ingested_jobs,
            ),
            "ns",
        ),
        Metric::new("trace.overhead_frac", overhead_frac, "ratio"),
    ]
}
