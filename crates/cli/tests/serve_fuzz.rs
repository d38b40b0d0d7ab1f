//! End-to-end chaos smoke against the real daemon binary.
//!
//! Spawns `fjs serve` on a unix socket with the governor active, runs the
//! seeded fuzz harness (torn frames, garbage, giant lines, partial
//! writes, disconnects, slow-loris, plus a hostile poison-tenant), then
//! checks the two resilience contracts from the design:
//!
//! 1. the daemon survives — the clean tenant saw only `ok` replies and a
//!    post-chaos probe schedules end-to-end;
//! 2. containment is perfect — the clean tenant's decision-log lines are
//!    byte-identical to the golden log of the same script, recorded from
//!    the single-threaded server (`tests/golden/serve/fuzz-clean.*`).
//!
//! CI runs the same harness at full scale (10k frames, unix + TCP); this
//! is the in-tree guard at a few hundred frames.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::Duration;

use fjs_cli::fuzz::{run_fuzz_serve, FuzzServeOptions};
use fjs_cli::DriveTarget;

#[test]
fn chaos_run_leaves_daemon_healthy_and_clean_tenant_untouched() {
    let dir = std::env::temp_dir().join(format!("fjs-serve-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("fjs.sock");
    let log_path = dir.join("daemon.log");
    let clean_path = dir.join("clean.script");
    let _ = std::fs::remove_file(&socket);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_fjs"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--workers",
            "2",
            "--max-sessions",
            "256",
            "--breaker-threshold",
            "2",
            "--breaker-cooldown",
            "64",
            "--tenant-max-pending",
            "512",
            "--tenant-max-bytes",
            "262144",
            "--log",
            log_path.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fjs serve");

    let mut ready = false;
    for _ in 0..400 {
        if socket.exists() {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(ready, "daemon never bound {}", socket.display());

    let opts = FuzzServeOptions {
        targets: vec![DriveTarget::Unix(socket.clone())],
        seed: 1905,
        connections: 4,
        frames: 600,
        scheduler: "eager".into(),
        emit_clean: Some(clean_path.clone()),
    };
    let report = run_fuzz_serve(&opts).expect("harness-level failure");
    assert!(report.healthy(), "daemon degraded under chaos:\n{report}");
    assert!(
        report.frames_sent >= opts.frames,
        "frame budget not met: {report}"
    );

    // Graceful drain flushes the buffered decision log before exit.
    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited {status}");

    // Clean-tenant containment: its log lines (sids `c0..c3`) must equal
    // the golden log of the emitted clean script, byte for byte, no
    // matter what the fuzz tenants did on neighbouring connections.
    let fuzz_log = std::fs::read_to_string(&log_path).unwrap();
    let clean_lines: String = fuzz_log
        .lines()
        .filter(|l| l.starts_with('c'))
        .map(|l| format!("{l}\n"))
        .collect();
    let script = std::fs::read_to_string(&clean_path).unwrap();
    assert_eq!(
        script,
        include_str!("golden/serve/fuzz-clean.script"),
        "the clean tenant's script is seeded"
    );
    let reference = include_str!("golden/serve/fuzz-clean.log");
    assert_eq!(
        clean_lines, reference,
        "clean tenant's log must be byte-identical to the golden log"
    );
    assert!(!reference.is_empty(), "golden log is empty");

    std::fs::remove_dir_all(&dir).unwrap();
}
