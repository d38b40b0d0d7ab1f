//! `batch-eval`: the research path. Every registry kind runs through
//! `sim::run_static` on seeded cloud-batch instances and is scored
//! against `fjs_opt::best_lower_bound`. No serve layer is involved.

use std::path::Path;
use std::time::{Duration, Instant};

use fjs_core::job::Instance;
use fjs_core::sim::{run_static, Termination};
use fjs_core::supervise::{Cell, CellResult, Journal};
use fjs_schedulers::SchedulerKind;

use crate::gen::{self, KINDS};
use crate::serve::{OVERHEAD_SLICES, TRIM};
use crate::stats::{percentile, trimmed_mean};
use crate::trace::Tracer;
use crate::{Checks, Metric};

pub struct Prepared {
    seed: u64,
    csv: Vec<String>,
    kinds: Vec<SchedulerKind>,
}

pub fn prepare(seed: u64) -> Prepared {
    Prepared {
        seed,
        csv: gen::batch_instances(seed)
            .iter()
            .map(|j| gen::csv(j))
            .collect(),
        kinds: KINDS
            .iter()
            .map(|k| SchedulerKind::from_short_name(k).expect("registry short name"))
            .collect(),
    }
}

/// Instance generation as a user of the program does it: the workloads
/// layer ingests the trace bytes.
fn ingest(p: &Prepared) -> Result<Vec<Instance>, String> {
    p.csv
        .iter()
        .map(|t| {
            fjs_workloads::parse_trace(t)
                .map(|t| t.instance)
                .map_err(|e| format!("batch trace: {e}"))
        })
        .collect()
}

/// One scored evaluation: `(span, lower bound, events)`.
type Eval = (f64, f64, usize);

fn evaluate(inst: &Instance, kind: &SchedulerKind, ck: &mut Checks) -> Eval {
    let out = run_static(inst, kind.information_model(), kind.build());
    let lb = fjs_opt::best_lower_bound(inst);
    let feasible = out.is_feasible()
        && matches!(out.termination, Termination::Completed)
        && out.schedule.validate(&out.instance).is_ok();
    ck.check(feasible, || {
        format!("{}: infeasible outcome", kind.short_name())
    });
    ck.check(out.span >= lb, || {
        format!("{}: span below best_lower_bound", kind.short_name())
    });
    (out.span.get(), lb.get(), out.stats.events_total)
}

/// Back-to-back recoveries of the cell journal after each pass. One
/// resume takes about a millisecond; the first after a pass runs with the
/// caches the pass left, and the trimmed mean over all of a run's samples
/// drops most of those cold ones.
const RECOVER_BURST: usize = 9;

struct Timed {
    /// Jobs simulated and scored, and the seconds they took.
    jobs: usize,
    secs: f64,
    /// Per pass, the p50 and the p99 of its evaluations' service times,
    /// microseconds. A pass is one latency chunk: the run reports the
    /// trimmed means over passes, so a slow spell of the host moves a few
    /// chunks instead of deciding the run's p99 outright.
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// The first pass's evaluations, `[instance][kind]`.
    first: Vec<Vec<Eval>>,
    evaluations: u64,
    /// Instance generation (ingest) time of each pass.
    setups: Vec<f64>,
    /// Cell-journal recovery times, [`RECOVER_BURST`] after each pass.
    recovers: Vec<f64>,
}

/// Passes over all (instance, kind) pairs until `seconds` have passed.
/// Each pass ingests the instances afresh (a set-up sample) and, with
/// `cells`, ends by recovering the cell journal [`RECOVER_BURST`] times
/// (recovery samples), so both spread over the whole run.
fn timed(
    p: &Prepared,
    seconds: f64,
    cells: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
    ck: &mut Checks,
) -> Result<Timed, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut t = Timed {
        jobs: 0,
        secs: 0.0,
        p50_us: Vec::new(),
        p99_us: Vec::new(),
        first: Vec::new(),
        evaluations: 0,
        setups: Vec::new(),
        recovers: Vec::new(),
    };
    let mut pass = 0;
    let mut lat = Vec::new();
    while pass == 0 || Instant::now() < deadline {
        let t0 = Instant::now();
        let insts = ingest(p)?;
        t.setups.push(t0.elapsed().as_secs_f64());
        for (i, inst) in insts.iter().enumerate() {
            let t0 = Instant::now();
            let mut evals = Vec::with_capacity(p.kinds.len());
            for kind in &p.kinds {
                let s = Instant::now();
                let span = tracer
                    .as_deref_mut()
                    .map(|tr| tr.open("batch.eval", i as u64, None));
                let e = evaluate(inst, kind, ck);
                if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
                    tr.close(id);
                }
                lat.push(s.elapsed().as_secs_f64() * 1e6);
                evals.push(e);
            }
            t.secs += t0.elapsed().as_secs_f64();
            t.jobs += inst.len() * p.kinds.len();
            t.evaluations += p.kinds.len() as u64;
            if pass == 0 {
                t.first.push(evals);
            } else {
                ck.check(evals == t.first[i], || {
                    format!("instance {i}: outcome changed between passes")
                });
            }
        }
        t.p50_us.push(percentile(&mut lat, 0.50));
        t.p99_us.push(percentile(&mut lat, 0.99));
        lat.clear();
        if let Some(path) = cells {
            for _ in 0..RECOVER_BURST {
                let t0 = Instant::now();
                let j = Journal::resume(path).map_err(|e| format!("cell journal: {e}"))?;
                t.recovers.push(t0.elapsed().as_secs_f64());
                ck.check(j.len() == p.csv.len() * p.kinds.len(), || {
                    format!("recovered {} cells", j.len())
                });
            }
        }
        pass += 1;
    }
    Ok(t)
}

/// The batch path's crash safety is the sweep checkpoint journal `fjs
/// soak` keeps: one record per scored (instance, kind) cell. Writes it
/// for `evals` and returns its size in bytes.
fn write_cells(p: &Prepared, evals: &[Vec<Eval>], path: &Path) -> Result<u64, String> {
    let mut journal = Journal::create(path).map_err(|e| format!("cell journal: {e}"))?;
    for (i, evals) in evals.iter().enumerate() {
        for (kind, e) in p.kinds.iter().zip(evals) {
            journal
                .record(CellResult {
                    cell: Cell {
                        target: kind.short_name().to_string(),
                        family: format!("perfbench-batch[{i}]"),
                        seed: p.seed,
                    },
                    verdict: "completed".into(),
                    span: e.0,
                    events: e.2,
                    retries: 0,
                })
                .map_err(|e| format!("cell journal: {e}"))?;
        }
    }
    Ok(std::fs::metadata(path)
        .map_err(|e| format!("cell journal: {e}"))?
        .len())
}

/// The untraced run: every end-to-end metric.
pub fn run(
    p: &Prepared,
    work: &Path,
    seconds: f64,
    ck: &mut Checks,
) -> Result<(Vec<Metric>, u64), String> {
    // One untimed pass scores every cell and writes the cell journal the
    // timed passes recover.
    let insts = ingest(p)?;
    let first: Vec<Vec<Eval>> = insts
        .iter()
        .map(|inst| p.kinds.iter().map(|k| evaluate(inst, k, ck)).collect())
        .collect();
    let path = work.join("batch-cells.jsonl");
    let bytes = write_cells(p, &first, &path)?;

    let t = timed(p, seconds, Some(&path), None, ck)?;
    ck.check(t.first == first, || {
        "timed pass differs from the scoring pass".into()
    });
    let span: f64 = first.iter().flatten().map(|e| e.0).sum();
    let lb: f64 = first.iter().flatten().map(|e| e.1).sum();
    let jobs_per_pass: usize = insts.iter().map(|i| i.len() * p.kinds.len()).sum();
    println!(
        "# batch-eval: {} jobs scored, {} evaluations in {} latency chunks, {} set-ups, {} recoveries",
        t.jobs,
        t.evaluations,
        t.p50_us.len(),
        t.setups.len(),
        t.recovers.len()
    );
    Ok((
        vec![
            Metric::new("jobs_per_s", t.jobs as f64 / t.secs, "1/s"),
            Metric::new("req_p50_us", trimmed_mean(&t.p50_us, TRIM), "us"),
            Metric::new("req_p99_us", trimmed_mean(&t.p99_us, TRIM), "us"),
            Metric::new("recover_s", trimmed_mean(&t.recovers, TRIM), "s"),
            Metric::new(
                "journal_bytes_per_job",
                bytes as f64 / jobs_per_pass as f64,
                "B",
            ),
            Metric::new("span_ratio", span / lb, "ratio"),
            Metric::new("setup_s", trimmed_mean(&t.setups, TRIM), "s"),
        ],
        t.evaluations,
    ))
}

/// The traced run's workload phase: `trace.overhead_frac` from slices
/// that alternate between untraced and a span around every evaluation.
pub fn overhead(p: &Prepared, seconds: f64, ck: &mut Checks) -> Result<(f64, u64), String> {
    // (jobs, seconds) untraced and traced.
    let mut sums = [(0usize, 0.0f64); 2];
    let mut attempted = 0;
    let mut scratch = Tracer::new();
    for slice in 0..OVERHEAD_SLICES {
        let traced = slice % 2;
        let tracer = (traced == 1).then_some(&mut scratch);
        let t = timed(p, seconds / OVERHEAD_SLICES as f64, None, tracer, ck)?;
        sums[traced].0 += t.jobs;
        sums[traced].1 += t.secs;
        attempted += t.evaluations;
        scratch.spans.clear();
    }
    let rate = |(jobs, secs): (usize, f64)| jobs as f64 / secs;
    Ok((1.0 - rate(sums[1]) / rate(sums[0]), attempted))
}

/// The instances' CSV bytes with the kinds each is run under.
pub fn engine_sets(p: &Prepared) -> impl Iterator<Item = (&str, &[&'static str])> {
    p.csv.iter().map(|c| (c.as_str(), &KINDS[..]))
}
