//! Line protocol for the resident scheduling daemon.
//!
//! One request per line, space-delimited verb first:
//!
//! ```text
//! open <sid> <scheduler-spec>     # create a session
//! job <sid> <arrival>,<deadline>,<length>
//! close <sid>                     # finish the session, flush its deltas
//! stats <sid>                     # read-only probe
//! stats                           # daemon-wide degradation counters
//! ```
//!
//! Blank lines and `#` comments are ignored (no reply). Every other line
//! gets exactly one reply line: `ok ...`, `busy ...` (admission shed) or
//! `err ...` (malformed or rejected). The job payload is one record of the
//! batch trace format, and [`parse_job_payload`] applies the batch trace
//! reader's record checks, in its order and with its error texts, without
//! building a reader per line.

use fjs_core::job::Job;

/// A parsed protocol request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// `open <sid> <spec>` — create a session running the given scheduler.
    Open {
        /// Session name.
        sid: String,
        /// Scheduler spec (registry short name, optionally `poison:`-wrapped).
        spec: String,
    },
    /// `job <sid> <a>,<d>,<p>` — offer one job to a session.
    Job {
        /// Session name.
        sid: String,
        /// Arrival time `a(J)`.
        arrival: f64,
        /// Starting deadline `d(J)`.
        deadline: f64,
        /// Processing length `p(J)`.
        length: f64,
    },
    /// `close <sid>` — finish the session and emit its final span.
    Close {
        /// Session name.
        sid: String,
    },
    /// `stats <sid>` — read-only session probe.
    Stats {
        /// Session name.
        sid: String,
    },
    /// Bare `stats` — daemon-wide degradation counters (sheds, breaker
    /// trips, disconnect causes). Addresses no session.
    StatsDaemon,
}

impl Request {
    /// The session the request addresses (`None` for daemon-wide
    /// requests).
    pub fn sid(&self) -> Option<&str> {
        match self {
            Request::Open { sid, .. }
            | Request::Job { sid, .. }
            | Request::Close { sid }
            | Request::Stats { sid } => Some(sid),
            Request::StatsDaemon => None,
        }
    }
}

/// `true` for names safe to echo in space-delimited replies and logs.
fn valid_sid(sid: &str) -> bool {
    !sid.is_empty()
        && sid.len() <= 64
        && sid
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parses one protocol line.
///
/// Returns `Ok(None)` for blank lines and `#` comments, `Ok(Some(_))` for a
/// well-formed request, and `Err(reason)` for anything else. The reason is
/// a short human-readable phrase without positional information — the
/// server attributes it to a line number and byte offset.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.splitn(3, char::is_whitespace);
    let verb = parts.next().unwrap_or_default();
    let sid = parts.next().map(str::trim).unwrap_or_default();
    let rest = parts.next().map(str::trim).unwrap_or_default();
    if verb != "open" && verb != "job" && verb != "close" && verb != "stats" {
        return Err(format!(
            "unknown verb '{verb}' (expected open/job/close/stats)"
        ));
    }
    if verb == "stats" && sid.is_empty() {
        return Ok(Some(Request::StatsDaemon));
    }
    if !valid_sid(sid) {
        return Err(format!(
            "bad session name '{sid}' (want 1-64 chars of [A-Za-z0-9._-])"
        ));
    }
    match verb {
        "open" => {
            if rest.is_empty() {
                return Err("open needs a scheduler spec".into());
            }
            Ok(Some(Request::Open {
                sid: sid.into(),
                spec: rest.into(),
            }))
        }
        "job" => {
            if rest.is_empty() {
                return Err("job needs an <arrival>,<deadline>,<length> payload".into());
            }
            let (arrival, deadline, length) = parse_job_payload(rest)?;
            Ok(Some(Request::Job {
                sid: sid.into(),
                arrival,
                deadline,
                length,
            }))
        }
        "close" | "stats" => {
            if !rest.is_empty() {
                return Err(format!("{verb} takes no payload (got '{rest}')"));
            }
            if verb == "close" {
                Ok(Some(Request::Close { sid: sid.into() }))
            } else {
                Ok(Some(Request::Stats { sid: sid.into() }))
            }
        }
        _ => unreachable!(),
    }
}

/// Parses a job payload: `<arrival>,<deadline>,<length>` plus an optional
/// `<size>` column, exactly one record of the batch trace format.
///
/// The checks, in order, each failing with the batch trace reader's text:
/// 3 or 4 comma-separated columns (`expected 3 or 4 columns, found N`),
/// each trimmed and a finite `f64` (`'<field>' is not a finite number`),
/// a valid [`Job::try_adp`] window, and a size in `(0, 1]`
/// (`size <s> outside (0, 1]`). The size is checked and dropped. A
/// payload is one line: fields are not trimmed of `\n`, so a payload
/// containing one never parses.
pub fn parse_job_payload(payload: &str) -> Result<(f64, f64, f64), String> {
    let mut fields = [""; 4];
    let mut cols = 0;
    for field in payload.split(',') {
        if let Some(slot) = fields.get_mut(cols) {
            *slot = field.trim_matches(|c: char| c.is_whitespace() && c != '\n');
        }
        cols += 1;
    }
    if cols != 3 && cols != 4 {
        return Err(format!("expected 3 or 4 columns, found {cols}"));
    }
    let mut nums = [0.0; 4];
    for (num, field) in nums.iter_mut().zip(&fields[..cols]) {
        *num = field
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("'{field}' is not a finite number"))?;
    }
    let [arrival, deadline, length, size] = nums;
    Job::try_adp(arrival, deadline, length).map_err(|e| e.to_string())?;
    if cols == 4 && !(size > 0.0 && size <= 1.0) {
        return Err(format!("size {size} outside (0, 1]"));
    }
    Ok((arrival, deadline, length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("open alpha eager").unwrap(),
            Some(Request::Open {
                sid: "alpha".into(),
                spec: "eager".into()
            })
        );
        assert_eq!(
            parse_request("  job alpha 0,5,2  ").unwrap(),
            Some(Request::Job {
                sid: "alpha".into(),
                arrival: 0.0,
                deadline: 5.0,
                length: 2.0
            })
        );
        assert_eq!(
            parse_request("close alpha").unwrap(),
            Some(Request::Close {
                sid: "alpha".into()
            })
        );
        assert_eq!(
            parse_request("stats alpha").unwrap(),
            Some(Request::Stats {
                sid: "alpha".into()
            })
        );
        assert_eq!(
            parse_request("stats").unwrap(),
            Some(Request::StatsDaemon),
            "bare stats is the daemon-wide probe"
        );
        assert_eq!(
            parse_request("  stats  ").unwrap(),
            Some(Request::StatsDaemon)
        );
    }

    #[test]
    fn blank_and_comment_lines_are_silent() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("   ").unwrap(), None);
        assert_eq!(parse_request("# a comment").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        assert!(parse_request("launch alpha").unwrap_err().contains("verb"));
        assert!(parse_request("open").unwrap_err().contains("session name"));
        assert!(parse_request("open bad!name eager")
            .unwrap_err()
            .contains("bad session name"));
        assert!(parse_request("job alpha").unwrap_err().contains("payload"));
        assert!(parse_request("close alpha extra")
            .unwrap_err()
            .contains("no payload"));
    }

    #[test]
    fn job_payload_inherits_trace_reader_validation() {
        // Non-finite number.
        let e = parse_request("job a 0,inf,2").unwrap_err();
        assert!(e.contains("not a finite number"), "{e}");
        // Window inverted.
        let e = parse_request("job a 5,1,2").unwrap_err();
        assert!(e.contains("deadline"), "{e}");
        // Non-positive length.
        let e = parse_request("job a 0,5,0").unwrap_err();
        assert!(e.contains("length"), "{e}");
        // Wrong arity.
        let e = parse_request("job a 0,5").unwrap_err();
        assert!(e.contains("columns"), "{e}");
        // No stale "line 1:" prefix leaks through.
        assert!(!parse_request("job a 0,5").unwrap_err().starts_with("line"));
    }

    #[test]
    fn job_payload_errors_keep_the_trace_reader_texts() {
        for (payload, want) in [
            ("0,5", "expected 3 or 4 columns, found 2"),
            ("0,5,2,0.5,9", "expected 3 or 4 columns, found 5"),
            ("0,abc,2", "'abc' is not a finite number"),
            ("0, nan ,2", "'nan' is not a finite number"),
            ("0,5,2,2.0", "size 2 outside (0, 1]"),
            ("0,5,2,0", "size 0 outside (0, 1]"),
        ] {
            assert_eq!(parse_job_payload(payload).unwrap_err(), want, "{payload}");
        }
        // Column count is checked before numbers.
        assert_eq!(
            parse_job_payload("x,y").unwrap_err(),
            "expected 3 or 4 columns, found 2"
        );
        assert_eq!(
            parse_job_payload(" 1.500 , 2e1 ,\t0.25,1"),
            Ok((1.5, 20.0, 0.25))
        );
    }

    #[test]
    fn non_numeric_payload_is_not_reported_empty() {
        // A one-line payload has no header or comment to skip: a
        // non-numeric field is reported like any other.
        assert_eq!(
            parse_request("job a x,y,z").unwrap_err(),
            "'x' is not a finite number"
        );
        assert_eq!(
            parse_request("job a #1,2,3").unwrap_err(),
            "'#1' is not a finite number"
        );
    }

    #[test]
    fn job_payload_is_one_line() {
        for payload in ["0,5,2\n0,6,2", "0\n,5,2", "x\n0,5,2", "0,5,2\n"] {
            assert!(parse_job_payload(payload).is_err(), "{payload:?}");
        }
    }
}
