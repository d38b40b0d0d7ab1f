//! Golden fixtures for `fjs serve`: the replies, decision log, summary
//! and journal bytes of fixed scripts, recorded from the single-threaded
//! server that `--workers 1` replaced (`tests/golden/serve/`). The one
//! backend must reproduce them byte for byte at 1, 2 and 8 workers.
//!
//! Each case is `<case>.script` plus the expected `<case>.replies` (one
//! reply per line), `<case>.log` and `<case>.summary.jsonl`; the resume
//! cases add `<case>.journal` (the live run's journal) and, for the
//! crash-cut run, `resume-cut.journal` and its resumed replies. The
//! `governor.*` case is checked by the governor test in `serve/mod.rs`.

use std::path::PathBuf;

use fjs_cli::serve::{run_script, Backend, ServeOptions, Sink};
use fjs_core::service::{BreakerConfig, ServeJournal};
use fjs_core::supervise::with_quiet_panics;
use fjs_schedulers::SchedulerKind;

const WORKERS: [usize; 3] = [1, 2, 8];

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/serve")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fjs-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lines(replies: &[String]) -> String {
    replies.iter().map(|r| format!("{r}\n")).collect()
}

/// Feeds the first `take` lines of `script` to `backend` as one
/// connection and returns the replies.
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

fn check_script_case(case: &str, opts: &ServeOptions) {
    let script = golden(&format!("{case}.script"));
    for workers in WORKERS {
        let opts = ServeOptions {
            workers,
            ..opts.clone()
        };
        let out = with_quiet_panics(|| run_script(&script, opts).unwrap());
        assert_eq!(
            lines(&out.replies),
            golden(&format!("{case}.replies")),
            "{case}: replies at workers={workers}"
        );
        assert_eq!(
            out.log,
            golden(&format!("{case}.log")),
            "{case}: decision log at workers={workers}"
        );
        assert_eq!(
            out.summary.to_jsonl() + "\n",
            golden(&format!("{case}.summary.jsonl")),
            "{case}: summary at workers={workers}"
        );
    }
}

#[test]
fn registry_scripts_match_golden_at_every_worker_count() {
    for kind in SchedulerKind::registered_set() {
        let case = format!("registry-{}", kind.short_name().replace('+', "-plus"));
        check_script_case(&case, &ServeOptions::default());
    }
    check_script_case("registry-all", &ServeOptions::default());
    check_script_case("fuzz-clean", &ServeOptions::default());
}

#[test]
fn poison_scripts_match_golden_at_every_worker_count() {
    let opts = ServeOptions {
        watchdog_events: 5_000,
        ..ServeOptions::default()
    };
    check_script_case("poison-panic", &opts);
    check_script_case("poison-hang", &opts);
}

/// A journaled run, the same run cut after five lines (SIGKILL stand-in:
/// no drain), and a resume of the golden cut journal: journal bytes,
/// replies and the resumed log all match at every worker count.
#[test]
fn resume_journals_match_golden_at_every_worker_count() {
    let script = golden("resume.script");
    let dir = scratch("resume");
    for workers in WORKERS {
        let opts = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        let path = dir.join(format!("full-w{workers}.journal"));
        let journal = ServeJournal::create(&path).unwrap();
        let mut live = Backend::new(opts.clone(), Sink::Mem(Vec::new()), Some(journal));
        let replies = feed(&mut live, &script, usize::MAX);
        let (summary, log) = live.finish().unwrap();
        assert_eq!(lines(&replies), golden("resume.replies"), "w{workers}");
        assert_eq!(
            log.mem().unwrap(),
            golden("resume.log").as_bytes(),
            "w{workers}"
        );
        assert_eq!(summary.to_jsonl() + "\n", golden("resume.summary.jsonl"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            golden("resume.journal"),
            "journal at workers={workers}"
        );

        let cut = dir.join(format!("cut-w{workers}.journal"));
        let mut first = Backend::new(
            opts.clone(),
            Sink::Null,
            Some(ServeJournal::create(&cut).unwrap()),
        );
        feed(&mut first, &script, 5);
        drop(first);
        assert_eq!(
            std::fs::read_to_string(&cut).unwrap(),
            golden("resume-cut.journal"),
            "cut journal at workers={workers}"
        );

        let golden_cut = dir.join("golden-cut.journal");
        std::fs::write(&golden_cut, golden("resume-cut.journal")).unwrap();
        let events = ServeJournal::load(&golden_cut).unwrap();
        let mut resumed = Backend::new(opts, Sink::Mem(Vec::new()), None);
        resumed.resume(&events).unwrap();
        let replies = feed(&mut resumed, &script, usize::MAX);
        let (_, log) = resumed.finish().unwrap();
        assert_eq!(lines(&replies), golden("resume-cut.replies"), "w{workers}");
        assert_eq!(
            log.mem().unwrap(),
            golden("resume.log").as_bytes(),
            "resumed log at workers={workers}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Breaker state rebuilt from the golden journal refuses the probe open
/// with the live run's bytes, at every worker count.
#[test]
fn breaker_resume_matches_golden_at_every_worker_count() {
    let script = golden("breaker-resume.script");
    let probe_reply = golden("breaker-resume.replies")
        .lines()
        .last()
        .unwrap()
        .to_string();
    let dir = scratch("breaker");
    for workers in WORKERS {
        let opts = ServeOptions {
            workers,
            breaker: BreakerConfig {
                threshold: 2,
                cooldown_events: 100,
            },
            ..ServeOptions::default()
        };
        let path = dir.join(format!("live-w{workers}.journal"));
        let journal = ServeJournal::create(&path).unwrap();
        let mut live = Backend::new(opts.clone(), Sink::Mem(Vec::new()), Some(journal));
        let replies = with_quiet_panics(|| feed(&mut live, &script, usize::MAX));
        let (summary, log) = live.finish().unwrap();
        assert_eq!(
            lines(&replies),
            golden("breaker-resume.replies"),
            "w{workers}"
        );
        assert_eq!(log.mem().unwrap(), golden("breaker-resume.log").as_bytes());
        assert_eq!(
            summary.to_jsonl() + "\n",
            golden("breaker-resume.summary.jsonl")
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            golden("breaker-resume.journal"),
            "journal at workers={workers}"
        );

        let golden_journal = dir.join("golden.journal");
        std::fs::write(&golden_journal, golden("breaker-resume.journal")).unwrap();
        let events = ServeJournal::load(&golden_journal).unwrap();
        let mut resumed = Backend::new(opts, Sink::Null, None);
        with_quiet_panics(|| resumed.resume(&events).unwrap());
        assert_eq!(
            feed(&mut resumed, &script, usize::MAX),
            vec![probe_reply.clone()]
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
