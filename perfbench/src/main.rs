//! End-to-end and per-layer benchmark of the `fjs` serve path and batch
//! engine. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <serve-mixed|serve-durable|batch-eval>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod batch;
mod gen;
mod layers;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serve::Mode;

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Correctness gates: each failed check, and each failed operation the
/// checks count, adds to `failed`.
#[derive(Default)]
pub struct Checks {
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail_ops(1, what);
        }
    }

    pub fn fail_ops(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A per-process work directory inside the current directory, removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let p = Path::new(".perfbench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(WorkDir(p))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The traced run: the workload's own phase for the overhead figure,
/// then every layer probe over the workload's inputs.
fn traced(args: &Args, work: &Path, ck: &mut Checks) -> Result<(Vec<Metric>, u64), String> {
    let mut tr = trace::Tracer::new();
    let mut n = layers::Counts::default();
    let (overhead, attempted, prepared) = match args.workload.as_str() {
        "batch-eval" => {
            let p = batch::prepare(args.seed);
            let (o, a) = batch::overhead(&p, args.seconds, ck)?;
            for (csv, kinds) in batch::engine_sets(&p) {
                layers::engine_probe(csv, kinds, &mut tr, &mut n, ck)?;
            }
            // The serve layers serve the batch instances on the default
            // (serial, journal-free) backend.
            let script = gen::batch_script(args.seed);
            (o, a, serve::prepare(Mode::Mixed, script, work)?)
        }
        name => {
            let mode = serve_mode(name)?;
            let p = serve::prepare(
                mode,
                gen::serve_script(args.seed, mode == Mode::Durable),
                work,
            )?;
            let (o, a) = serve::overhead(&p, args.seconds, ck)?;
            for s in &p.script.sessions {
                layers::engine_probe(&gen::csv(&s.jobs), &[s.kind], &mut tr, &mut n, ck)?;
            }
            (o, a, p)
        }
    };
    let p = prepared;
    layers::serve_probe(&p.cfg, &p.script, &p.reference, work, &mut tr, &mut n, ck)?;
    layers::pool_probe(&p.cfg, &p.script, &mut tr, &mut n)?;

    println!(
        "# layer self times (span minus its children), {} spans:",
        tr.spans.len()
    );
    for (name, t) in tr.totals() {
        println!(
            "#   {name:<24} count={:<8} total_ms={:<10.3} self_ms={:<10.3} negative_self={}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6,
            t.negative_self
        );
    }
    let out =
        Path::new(".perfbench_work").join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    tr.write(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# spans written to {}", out.display());
    Ok((layers::metrics(&tr, &n, overhead), attempted))
}

fn serve_mode(name: &str) -> Result<Mode, String> {
    Ok(match name {
        "serve-mixed" => Mode::Mixed,
        "serve-durable" => Mode::Durable,
        other => return Err(format!("unknown workload {other}")),
    })
}

fn untraced(args: &Args, work: &Path, ck: &mut Checks) -> Result<(Vec<Metric>, u64), String> {
    let peak_rss = || -> Result<Metric, String> {
        let kib = stats::peak_rss_kib()?;
        Ok(Metric::new("peak_rss_mb", kib as f64 / 1024.0, "MiB"))
    };
    if args.workload == "batch-eval" {
        let (mut metrics, attempted) =
            batch::run(&batch::prepare(args.seed), work, args.seconds, ck)?;
        metrics.push(peak_rss()?);
        return Ok((metrics, attempted));
    }
    let mode = serve_mode(&args.workload)?;
    let script = gen::serve_script(args.seed, mode == Mode::Durable);
    let p = serve::prepare(mode, script, work)?;
    let (mut metrics, attempted) = serve::run(&p, args.seconds, ck)?;
    // The peak is read before the w1 ≡ wN gate, so the pool's worker
    // threads and dispatch window stay out of serve-mixed's figure.
    metrics.push(peak_rss()?);
    if mode == Mode::Mixed {
        serve::pooled_gate(&p, ck)?;
    }
    Ok((metrics, attempted))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host nproc={} cpu=\"{}\" rustc=\"{}\" profile={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# pool workers={} (w1 = wN gate, pool probe) journal flush: fsync every {} records",
        serve::pooled_workers(),
        fjs_core::service::DEFAULT_SYNC_EVERY
    );
    let mut ck = Checks::default();
    let result = WorkDir::new().and_then(|work| {
        if args.trace {
            traced(&args, &work.0, &mut ck)
        } else {
            untraced(&args, &work.0, &mut ck)
        }
    });
    let (metrics, attempted) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &ck.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ck.failed == 0,
        attempted.max(1),
        ck.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
