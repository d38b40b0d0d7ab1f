//! The `fjs bench` subcommand: a small, named suite of end-to-end timing
//! cases over the workspace's hot paths, emitted as a
//! [`fjs_analysis::benchjson`] schema-v1 report.
//!
//! The suite is the regression contract behind `BENCH_baseline.json` at the
//! repository root: CI re-runs `fjs bench --json` and gates the result with
//! `fjs bench-diff --max-regress 15`. The two sweep-shaped cases
//! (`conform-deck`, `exhaustive-sweep`) exercise the sharded executor and
//! the memoized exact-optimum cache; the component cases
//! (`engine-static-1k`, `interval-union-bulk`) watch the engine hot-path
//! diet and the bulk interval merge; `serve-throughput-1k` times the
//! resident daemon's whole service path over an in-memory loadgen script.

use crate::experiments::e10_exhaustive::{enumerate_instances, sample_instance, validate_on};
use fjs_analysis::benchjson::BenchReport;
use fjs_analysis::{time_case, BenchSample};
use fjs_core::interval::{Interval, IntervalSet};
use fjs_core::job::Instance;
use fjs_core::sim::{run_static, Clairvoyance};
use fjs_core::time::t;
use fjs_schedulers::{optimal_alpha, SchedulerKind, OPTIMAL_K};
use fjs_testkit::{all_targets, run_conformance, ConformConfig};

/// The scheduler set timed by the sweep cases (mirrors experiment E10).
fn bench_kinds() -> [SchedulerKind; 7] {
    [
        SchedulerKind::Batch,
        SchedulerKind::BatchPlus,
        SchedulerKind::Cdb {
            alpha: optimal_alpha(),
            base: 1.0,
        },
        SchedulerKind::Profit { k: OPTIMAL_K },
        SchedulerKind::Doubler { c: 1.0 },
        SchedulerKind::Eager,
        SchedulerKind::Lazy,
    ]
}

/// The `conform-deck` workload: a quick-mode conformance pass over every
/// registered scheduler — deck instance generation, every applicable
/// oracle, and the exact-DP ratio denominators.
fn conform_deck_case() -> BenchSample {
    let targets = all_targets();
    let config = ConformConfig {
        cases: 16,
        base_seed: 1,
        quick: true,
        ..ConformConfig::default()
    };
    time_case("conform-deck", || {
        let report = run_conformance(&targets, &config);
        assert!(report.is_clean(), "bench deck must stay clean");
        report.checks
    })
}

/// The `exhaustive-sweep` workload: experiment E10's validation loop — the
/// full ordered 2-job grid plus heavier sampled instances, each solved to
/// the exact optimum, for all seven scheduler kinds over the *same*
/// instance list (the sharing the optimum cache exploits).
fn exhaustive_sweep_case() -> BenchSample {
    let mut instances: Vec<Instance> = enumerate_instances(2, 3, 2, 2);
    instances.extend((0..24).map(|seed| sample_instance(seed, 8)));
    let kinds = bench_kinds();
    time_case("exhaustive-sweep", || {
        let mut worst: f64 = 0.0;
        for &kind in &kinds {
            worst = worst.max(validate_on(kind, &instances).max_ratio);
        }
        assert!(worst.is_finite() && worst >= 1.0 - 1e-9);
        worst
    })
}

/// The `engine-static-1k` workload: one full event-driven run of a
/// 1000-job cloud-batch instance under the default [`fjs_core::sim::SimConfig`]
/// — queue growth, action application and span assembly, no tracing.
fn engine_case() -> BenchSample {
    let inst = fjs_workloads::Scenario::CloudBatch.generate(1000, 3);
    time_case("engine-static-1k", || {
        let out = run_static(
            &inst,
            Clairvoyance::NonClairvoyant,
            fjs_schedulers::Batch::new(),
        );
        assert!(out.is_feasible());
        out.span.get()
    })
}

/// The `engine-static-10k` workload: the same shape at 10× scale, where
/// arena locality and calendar-queue O(1) pops dominate (a BinaryHeap or
/// an O(n) sorted-Vec removal shows up superlinearly here). The case also
/// pins the arena memory counters so regressions fail on footprint, not
/// just time.
fn engine_case_10k() -> BenchSample {
    let inst = fjs_workloads::Scenario::CloudBatch.generate(10_000, 3);
    time_case("engine-static-10k", || {
        let out = run_static(
            &inst,
            Clairvoyance::NonClairvoyant,
            fjs_schedulers::Batch::new(),
        );
        assert!(out.is_feasible());
        assert_eq!(out.stats.peak_retained, 10_000, "batch runs retain all");
        assert_eq!(out.stats.arena_slots, 10_000, "no slot churn on batch");
        out.span.get()
    })
}

/// The `interval-union-bulk` workload: merging many pre-built interval
/// sets into an accumulator (the busy-time union shape behind span and
/// concurrency metrics).
fn interval_union_case() -> BenchSample {
    let sets: Vec<IntervalSet> = (0..64)
        .map(|k| {
            (0..96)
                .map(|i| {
                    let x = (((k * 96 + i) as u64).wrapping_mul(2654435761) % 50_000) as f64 / 7.0;
                    Interval::new(t(x), t(x + 2.5))
                })
                .collect()
        })
        .collect();
    time_case("interval-union-bulk", || {
        let mut acc = IntervalSet::new();
        for s in &sets {
            acc.union_with(s);
        }
        acc.measure()
    })
}

/// The `serve-throughput-1k` workload: the resident daemon's whole
/// service path — protocol parsing, session multiplexing, incremental
/// span accounting, decision-log rendering — over a deterministic
/// 1000-job, 4-session loadgen script, no I/O beyond an in-memory log.
/// It runs the one serve backend at its default `--workers 1`, where the
/// single worker runs inline on the calling thread.
fn serve_throughput_case() -> BenchSample {
    let script = crate::loadgen::emit_script(&crate::loadgen::LoadgenOptions {
        jobs: 1000,
        sessions: 4,
        seed: 0x5eed_10ad,
        ..crate::loadgen::LoadgenOptions::default()
    });
    time_case("serve-throughput-1k", || {
        let out = crate::serve::run_script(&script, crate::serve::ServeOptions::default())
            .expect("bench script must run");
        assert_eq!(out.summary.jobs, 1000, "bench script must admit every job");
        assert!(out.summary.halted.is_none());
        out.summary.decision_lines as f64
    })
}

/// The `serve-throughput-1k-w4` workload: the same service path as
/// `serve-throughput-1k` but with 4 worker threads and 8 sessions, so the
/// per-session work shards across workers. On a multi-core runner this
/// should beat the one-worker case by roughly the worker count; on one
/// core it measures pool overhead.
fn serve_throughput_pooled_case() -> BenchSample {
    let script = crate::loadgen::emit_script(&crate::loadgen::LoadgenOptions {
        jobs: 1000,
        sessions: 8,
        seed: 0x5eed_10ad,
        ..crate::loadgen::LoadgenOptions::default()
    });
    let opts = crate::serve::ServeOptions {
        workers: 4,
        ..crate::serve::ServeOptions::default()
    };
    time_case("serve-throughput-1k-w4", || {
        let out = crate::serve::run_script(&script, opts.clone()).expect("bench script must run");
        assert_eq!(out.summary.jobs, 1000, "bench script must admit every job");
        assert!(out.summary.halted.is_none());
        out.summary.decision_lines as f64
    })
}

/// Runs the whole suite and returns the schema-v1 report.
pub fn run_bench_suite() -> BenchReport {
    let mut report = BenchReport::new(git_describe());
    report.upsert(conform_deck_case());
    report.upsert(exhaustive_sweep_case());
    report.upsert(engine_case());
    report.upsert(engine_case_10k());
    report.upsert(interval_union_case());
    report.upsert(serve_throughput_case());
    report.upsert(serve_throughput_pooled_case());
    report
}

/// `git describe --always --dirty` of the checkout, or `"unknown"`.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
