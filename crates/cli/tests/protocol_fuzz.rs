//! Seeded never-panic fuzz over the serve line protocol.
//!
//! Two generators feed [`parse_request`]: raw arbitrary bytes (lossily
//! decoded, as the daemon's reader does for non-UTF-8 input) and
//! structured mutations of known-good lines (byte flips, truncations,
//! splices, whitespace injection). The parser must never panic, and every
//! `Ok(Some(_))` it returns must satisfy the protocol invariants the
//! daemon relies on downstream: echo-safe session names and finite,
//! well-ordered job windows.
//!
//! The same generators drive a differential check of the job-payload
//! parser against the batch trace reader it replaced, kept here as the
//! reference.
//!
//! Deterministic by construction — fixed seeds through `fjs-prng`, no
//! time or OS entropy — so a failure reproduces exactly.

use fjs_cli::serve::protocol::{parse_job_payload, parse_request, Request};
use fjs_prng::SmallRng;
use fjs_workloads::TraceReader;

/// Asserts the invariants the serve dispatcher assumes about any request
/// the parser lets through.
fn check_invariants(line: &str, req: &Request) {
    if let Some(sid) = req.sid() {
        assert!(
            !sid.is_empty() && sid.len() <= 64,
            "sid length out of bounds for line {line:?}: {sid:?}"
        );
        assert!(
            sid.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')),
            "sid with unsafe chars leaked through for line {line:?}: {sid:?}"
        );
    }
    if let Request::Job {
        arrival,
        deadline,
        length,
        ..
    } = req
    {
        assert!(
            arrival.is_finite() && deadline.is_finite() && length.is_finite(),
            "non-finite job field for line {line:?}"
        );
        assert!(
            deadline >= arrival,
            "inverted window admitted for line {line:?}"
        );
        assert!(
            *length > 0.0,
            "non-positive length admitted for line {line:?}"
        );
    }
}

/// Raw arbitrary bytes, lossily decoded and framed on `'\n'` like the
/// daemon's reader.
fn arbitrary_lines() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0xF0D5_EC41_7A11_0001);
    let mut lines = Vec::new();
    for _ in 0..20_000 {
        let len = rng.usize_range(0, 200);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let line = String::from_utf8_lossy(&bytes);
        lines.extend(line.split('\n').map(str::to_string));
    }
    lines
}

/// Structured mutations of known-good lines.
fn mutated_lines() -> Vec<String> {
    const SEEDS: &[&str] = &[
        "open alpha eager",
        "open t.a poison:panic:eager",
        "job alpha 0,5,2",
        "job t.a 0.25,1e3,0.5",
        "close alpha",
        "stats alpha",
        "stats",
        "# comment line",
        "job alpha 0,inf,2",
        "open alpha batch+",
    ];
    const JUNK: &[u8] = b" \t,.-_:;!@#\x00\x7f\xffABCxyz0189";
    let mut rng = SmallRng::seed_from_u64(0xF0D5_EC41_7A11_0002);
    let mut lines = Vec::new();
    for _ in 0..20_000 {
        let mut bytes = rng.choose(SEEDS).as_bytes().to_vec();
        for _ in 0..rng.usize_range(1, 5) {
            match rng.usize_range(0, 5) {
                // Flip one byte to an arbitrary value.
                0 if !bytes.is_empty() => {
                    let at = rng.usize_range(0, bytes.len());
                    bytes[at] = (rng.next_u64() & 0xFF) as u8;
                }
                // Truncate at a random point.
                1 if !bytes.is_empty() => {
                    bytes.truncate(rng.usize_range(0, bytes.len()));
                }
                // Insert a junk byte.
                2 => {
                    let at = rng.usize_range(0, bytes.len() + 1);
                    bytes.insert(at, *rng.choose(JUNK));
                }
                // Duplicate a random slice (torn-frame splice).
                3 if bytes.len() > 1 => {
                    let start = rng.usize_range(0, bytes.len() - 1);
                    let end = rng.usize_range(start + 1, bytes.len() + 1);
                    let slice = bytes[start..end].to_vec();
                    bytes.extend_from_slice(&slice);
                }
                // Prepend/append whitespace the parser must trim.
                _ => {
                    bytes.insert(0, b' ');
                    bytes.push(b'\t');
                }
            }
        }
        lines.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    lines
}

#[test]
fn parser_never_panics_on_arbitrary_bytes() {
    for line in arbitrary_lines() {
        if let Ok(Some(req)) = parse_request(&line) {
            check_invariants(&line, &req);
        }
    }
}

#[test]
fn parser_never_panics_on_structured_mutations() {
    for line in mutated_lines() {
        if let Ok(Some(req)) = parse_request(&line) {
            check_invariants(&line, &req);
        }
    }
}

/// The job-payload parser before the direct one: a one-line stream
/// through the batch trace reader, its `line 1: ` prefix stripped.
fn reference_payload(payload: &str) -> Result<(f64, f64, f64), String> {
    match TraceReader::new(payload.as_bytes()).next() {
        Some(Ok(rec)) => Ok((
            rec.job.arrival().get(),
            rec.job.deadline().get(),
            rec.job.length().get(),
        )),
        Some(Err(e)) => {
            let text = e.to_string();
            Err(text
                .strip_prefix("line 1: ")
                .map(str::to_string)
                .unwrap_or(text))
        }
        None => Err("job payload is empty".into()),
    }
}

/// The payload `parse_request` hands to the payload parser, if `line` is
/// a `job` line that carries one.
fn job_payload(line: &str) -> Option<&str> {
    let mut parts = line.trim().splitn(3, char::is_whitespace);
    if parts.next()? != "job" {
        return None;
    }
    parts.next()?;
    Some(parts.next()?.trim()).filter(|rest| !rest.is_empty())
}

/// The direct payload parser agrees with the trace reader: bit-equal
/// jobs and equal errors. Two differences are by design. A payload the
/// reader skipped as a header or `#` comment (answered `job payload is
/// empty`) gets the column-count or number error any other malformed
/// payload gets. A payload spanning lines, which the reader cut at the
/// first line, is never accepted.
#[test]
fn direct_payload_parser_matches_the_trace_reader() {
    let edge = (0..10_000u64).map(|i| {
        let mut rng = SmallRng::seed_from_u64(0xF0D5_EC41_7A11_0004 ^ i);
        let field = |rng: &mut SmallRng| match rng.usize_range(0, 3) {
            0 => format!("{:.3}", rng.f64_range(-1e3, 1e3)),
            1 => format!("{}", rng.f64_range(0.0, 1e16)),
            _ => {
                (*rng.choose(&["0", "-0", "1", "inf", "x", " 2 ", "1e3", "0.0001", ""])).to_string()
            }
        };
        let cols = rng.usize_range(2, 6);
        let fields: Vec<String> = (0..cols).map(|_| field(&mut rng)).collect();
        format!("job s {}", fields.join(","))
    });
    let (mut accepted, mut compared) = (0, 0);
    for line in arbitrary_lines()
        .into_iter()
        .chain(mutated_lines())
        .chain(edge)
    {
        let Some(payload) = job_payload(&line) else {
            continue;
        };
        compared += 1;
        let got = parse_job_payload(payload);
        let want = reference_payload(payload);
        let bits = |r: &Result<(f64, f64, f64), String>| {
            r.clone()
                .map(|(a, d, p)| (a.to_bits(), d.to_bits(), p.to_bits()))
        };
        if payload.contains('\n') {
            assert!(got.is_err(), "multi-line payload {payload:?} accepted");
        } else if want.as_ref().is_err_and(|e| e == "job payload is empty") {
            let e = got.expect_err(payload);
            assert!(
                e.starts_with("expected 3 or 4 columns") || e.ends_with("is not a finite number"),
                "{payload:?}: {e}"
            );
        } else {
            assert_eq!(bits(&got), bits(&want), "{payload:?}");
            accepted += usize::from(got.is_ok());
        }
    }
    assert!(
        compared > 10_000 && accepted > 1_000,
        "{compared} / {accepted}"
    );
}

#[test]
fn job_payload_edge_numbers_never_panic_and_keep_window_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xF0D5_EC41_7A11_0003);
    const SPECIALS: &[&str] = &[
        "0",
        "-0",
        "1",
        "-1",
        "inf",
        "-inf",
        "nan",
        "NaN",
        "1e308",
        "-1e308",
        "1e-308",
        "9007199254740993",
        "0.1",
        "1e999",
        "0x10",
        "1_000",
        "",
        " ",
        "+5",
        "5.",
        ".5",
    ];
    for _ in 0..10_000 {
        let field = |rng: &mut SmallRng| -> String {
            if rng.bool_with(0.5) {
                (*rng.choose(SPECIALS)).to_string()
            } else {
                format!("{:.6}", rng.f64_range(-1e12, 1e12))
            }
        };
        let a = field(&mut rng);
        let d = field(&mut rng);
        let l = field(&mut rng);
        let line = format!("job s {a},{d},{l}");
        match parse_request(&line) {
            Ok(Some(req)) => check_invariants(&line, &req),
            Ok(None) => panic!("job line parsed as silence: {line:?}"),
            Err(reason) => {
                assert!(
                    !reason.starts_with("line "),
                    "reader position prefix leaked into {reason:?}"
                );
            }
        }
    }
}
