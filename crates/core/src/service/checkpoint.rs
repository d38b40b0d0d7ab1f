//! Crash-safe checkpointing for `fjs serve` sessions.
//!
//! A [`ServeJournal`] is an append-only JSONL file in the same flat-object
//! line grammar as the supervise layer's sweep journal
//! ([`crate::supervise::journal`], whose escape/parse helpers it reuses):
//! one self-contained record per protocol request that changed session
//! state — `open`, `job`, `close`. Replaying those records through fresh
//! [`Session`](crate::service::Session)s reproduces the daemon's state
//! bit-for-bit, because sessions are deterministic functions of their
//! offer streams; the decision log of a killed-and-resumed daemon is
//! byte-identical to an uninterrupted run's.
//!
//! Durability contract (mirrors the sweep journal):
//!
//! * every record is written and flushed on append, and fsynced every
//!   [`ServeJournal::with_sync_every`] records (default
//!   [`DEFAULT_SYNC_EVERY`]) and on [`ServeJournal::sync`];
//! * a torn trailing line (the process died mid-write) is silently
//!   dropped on load — the corresponding request is simply re-consumed
//!   from the input stream;
//! * interior garbage is a hard [`ServeJournalError::Corrupt`] — that is
//!   data loss, not a crash artifact, and resuming from it would
//!   fabricate decisions.
//!
//! The governor's state (per-tenant admitted-byte usage, circuit-breaker
//! phases and failure streaks) is deliberately **not** journaled: every
//! governor transition is keyed off exactly the events recorded here —
//! admitted opens, admitted jobs, closes — so a resume replay re-derives
//! it bit-identically for free, with no new record kind and no version
//! bump. [`ServeEvent::payload_bytes`] is the replay-side hook for the
//! byte accounting.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::supervise::journal::{escape, parse_fields};
use crate::time::{push_decimal, push_u64};

/// Journal format version.
pub const SERVE_JOURNAL_VERSION: u32 = 1;

/// Default records between fsyncs.
pub const DEFAULT_SYNC_EVERY: usize = 32;

/// One replayable state-changing request.
///
/// `line` is the 1-based input-stream line that carried the request; on
/// resume the daemon replays journal records and then skips input lines up
/// to and including the largest journaled `line`, so requests are neither
/// lost nor double-applied.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeEvent {
    /// A session was opened.
    Open {
        /// Session name (protocol identifier).
        session: String,
        /// Scheduler spec the session was opened with (registry short
        /// name, possibly wrapped in a fault mode).
        scheduler: String,
        /// Input line that carried the request.
        line: u64,
    },
    /// A job was admitted into a session.
    Job {
        /// Session name.
        session: String,
        /// Input line that carried the request.
        line: u64,
        /// Arrival time (raw value; `Display`-rendered, so it round-trips
        /// exactly).
        arrival: f64,
        /// Starting deadline.
        deadline: f64,
        /// Processing length.
        length: f64,
    },
    /// A session was closed (drained to its verdict).
    Close {
        /// Session name.
        session: String,
        /// Input line that carried the request.
        line: u64,
    },
}

impl ServeEvent {
    /// The input line that carried this request.
    pub fn line(&self) -> u64 {
        match self {
            ServeEvent::Open { line, .. }
            | ServeEvent::Job { line, .. }
            | ServeEvent::Close { line, .. } => *line,
        }
    }

    /// The session the request addressed.
    pub fn session(&self) -> &str {
        match self {
            ServeEvent::Open { session, .. }
            | ServeEvent::Job { session, .. }
            | ServeEvent::Close { session, .. } => session,
        }
    }

    /// Canonical payload bytes this event charges against its tenant's
    /// byte quota (`None` for non-job events). Matches
    /// [`JobOffer::canonical_bytes`](crate::service::JobOffer::canonical_bytes)
    /// on the offer the record was journaled for, so live accounting and
    /// replay agree exactly.
    pub fn payload_bytes(&self) -> Option<u64> {
        match self {
            ServeEvent::Job {
                arrival,
                deadline,
                length,
                ..
            } => Some(
                crate::service::JobOffer {
                    arrival: crate::time::Time::new(*arrival),
                    deadline: crate::time::Time::new(*deadline),
                    length: crate::time::Dur::new(*length),
                }
                .canonical_bytes(),
            ),
            _ => None,
        }
    }

    /// Appends the record's journal line, newline included. Job records
    /// (the hot path) are rendered directly; their floats go through
    /// [`push_decimal`], so they read exactly as `Display` prints them.
    fn write_line(&self, out: &mut Vec<u8>) {
        match self {
            ServeEvent::Open {
                session,
                scheduler,
                line,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"v\":{SERVE_JOURNAL_VERSION},\"kind\":\"open\",\"session\":\"{}\",\"scheduler\":\"{}\",\"line\":{line}}}",
                    escape(session),
                    escape(scheduler),
                );
            }
            ServeEvent::Job {
                session,
                line,
                arrival,
                deadline,
                length,
            } => {
                out.extend_from_slice(b"{\"v\":");
                push_u64(out, u64::from(SERVE_JOURNAL_VERSION));
                out.extend_from_slice(b",\"kind\":\"job\",\"session\":\"");
                out.extend_from_slice(escape(session).as_bytes());
                out.extend_from_slice(b"\",\"line\":");
                push_u64(out, *line);
                out.extend_from_slice(b",\"arrival\":");
                push_decimal(out, *arrival);
                out.extend_from_slice(b",\"deadline\":");
                push_decimal(out, *deadline);
                out.extend_from_slice(b",\"length\":");
                push_decimal(out, *length);
                out.extend_from_slice(b"}\n");
            }
            ServeEvent::Close { session, line } => {
                let _ = writeln!(
                    out,
                    "{{\"v\":{SERVE_JOURNAL_VERSION},\"kind\":\"close\",\"session\":\"{}\",\"line\":{line}}}",
                    escape(session),
                );
            }
        }
    }

    fn parse(text: &str) -> Result<ServeEvent, String> {
        let fields = parse_fields(text)?;
        let get = |key: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("missing field '{key}'"))
        };
        let version: u32 = get("v")?.parse().map_err(|_| "bad version".to_string())?;
        if version != SERVE_JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        // `parse_fields` has already unescaped string values.
        let session = get("session")?.to_string();
        let line: u64 = get("line")?
            .parse()
            .map_err(|_| "bad line number".to_string())?;
        let num = |key: &str| -> Result<f64, String> {
            let v: f64 = get(key)?
                .parse()
                .map_err(|_| format!("bad number in '{key}'"))?;
            if !v.is_finite() {
                return Err(format!("non-finite '{key}'"));
            }
            Ok(v)
        };
        match get("kind")? {
            "open" => Ok(ServeEvent::Open {
                scheduler: get("scheduler")?.to_string(),
                session,
                line,
            }),
            "job" => Ok(ServeEvent::Job {
                session,
                line,
                arrival: num("arrival")?,
                deadline: num("deadline")?,
                length: num("length")?,
            }),
            "close" => Ok(ServeEvent::Close { session, line }),
            other => Err(format!("unknown kind '{other}'")),
        }
    }
}

/// Why a journal failed to load or persist.
#[derive(Debug)]
pub enum ServeJournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// An interior record is unreadable (not a torn tail).
    Corrupt {
        /// 1-based line in the journal file.
        line: usize,
        /// What the parser objected to.
        why: String,
    },
}

impl fmt::Display for ServeJournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeJournalError::Io(e) => write!(f, "journal io error: {e}"),
            ServeJournalError::Corrupt { line, why } => {
                write!(f, "journal corrupt at line {line}: {why}")
            }
        }
    }
}

impl std::error::Error for ServeJournalError {}

impl From<std::io::Error> for ServeJournalError {
    fn from(e: std::io::Error) -> Self {
        ServeJournalError::Io(e)
    }
}

/// Append-only checkpoint journal (see module docs).
#[derive(Debug)]
pub struct ServeJournal {
    path: PathBuf,
    file: File,
    sync_every: usize,
    since_sync: usize,
    records: u64,
    /// Reused buffer for the record being appended.
    buf: Vec<u8>,
}

impl ServeJournal {
    /// Creates (truncating) the journal at `path`. The empty file is
    /// persisted immediately, so "exists but empty" always means "a fresh
    /// daemon run that has checkpointed nothing yet".
    pub fn create(path: impl AsRef<Path>) -> Result<ServeJournal, ServeJournalError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        file.sync_all()?;
        Ok(ServeJournal {
            path,
            file,
            sync_every: DEFAULT_SYNC_EVERY,
            since_sync: 0,
            records: 0,
            buf: Vec::new(),
        })
    }

    /// Opens the journal at `path` for appending (resume continuation).
    pub fn open_append(path: impl AsRef<Path>) -> Result<ServeJournal, ServeJournalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        Ok(ServeJournal {
            path,
            file,
            sync_every: DEFAULT_SYNC_EVERY,
            since_sync: 0,
            records: 0,
            buf: Vec::new(),
        })
    }

    /// Sets how many records may accumulate between fsyncs (0 or 1 means
    /// every record).
    pub fn with_sync_every(mut self, n: usize) -> ServeJournal {
        self.sync_every = n.max(1);
        self
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle.
    pub fn records_appended(&self) -> u64 {
        self.records
    }

    /// Appends one record (write + flush; fsync per the sync policy).
    pub fn append(&mut self, event: &ServeEvent) -> Result<(), ServeJournalError> {
        self.buf.clear();
        event.write_line(&mut self.buf);
        self.file.write_all(&self.buf)?;
        self.records += 1;
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the journal to durable storage.
    pub fn sync(&mut self) -> Result<(), ServeJournalError> {
        self.file.sync_all()?;
        self.since_sync = 0;
        Ok(())
    }

    /// Loads every intact record from `path`. A missing file is an empty
    /// journal; a torn final line is dropped; interior garbage is
    /// [`ServeJournalError::Corrupt`].
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<ServeEvent>, ServeJournalError> {
        let text = match std::fs::read_to_string(path.as_ref()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(ServeJournalError::Io(e)),
        };
        let lines: Vec<&str> = text.split('\n').collect();
        let mut events = Vec::new();
        for (idx, raw) in lines.iter().enumerate() {
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                continue;
            }
            match ServeEvent::parse(trimmed) {
                Ok(ev) => events.push(ev),
                Err(why) => {
                    let is_tail = lines[idx + 1..].iter().all(|l| l.trim().is_empty());
                    if is_tail {
                        break; // torn final record: crash artifact, drop it
                    }
                    return Err(ServeJournalError::Corrupt { line: idx + 1, why });
                }
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::session::{Decision, JobOffer, Session, SessionVerdict};
    use crate::sim::env::Clairvoyance;
    use crate::sim::sched::{Arrival, Ctx, OnlineScheduler};
    use crate::time::{dur, t};

    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "test-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: crate::job::JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fjs-serve-journal-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_events() -> Vec<ServeEvent> {
        vec![
            ServeEvent::Open {
                session: "alpha".into(),
                scheduler: "eager".into(),
                line: 1,
            },
            ServeEvent::Job {
                session: "alpha".into(),
                line: 2,
                arrival: 0.0,
                deadline: 2.5,
                length: 1.25,
            },
            ServeEvent::Job {
                session: "alpha".into(),
                line: 3,
                arrival: 0.1,
                deadline: 7.0,
                length: 0.30000000000000004,
            },
            ServeEvent::Close {
                session: "alpha".into(),
                line: 4,
            },
        ]
    }

    #[test]
    fn roundtrips_all_record_kinds_exactly() {
        let path = scratch("roundtrip");
        let mut j = ServeJournal::create(&path).unwrap();
        for ev in sample_events() {
            j.append(&ev).unwrap();
        }
        j.sync().unwrap();
        assert_eq!(j.records_appended(), 4);
        assert_eq!(ServeJournal::load(&path).unwrap(), sample_events());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn golden_line_format_is_stable() {
        // The on-disk grammar is a compatibility surface: resume must read
        // journals written by earlier daemon runs.
        let golden = [
            "{\"v\":1,\"kind\":\"open\",\"session\":\"alpha\",\"scheduler\":\"eager\",\"line\":1}",
            "{\"v\":1,\"kind\":\"job\",\"session\":\"alpha\",\"line\":2,\"arrival\":0,\"deadline\":2.5,\"length\":1.25}",
            "{\"v\":1,\"kind\":\"job\",\"session\":\"alpha\",\"line\":3,\"arrival\":0.1,\"deadline\":7,\"length\":0.30000000000000004}",
            "{\"v\":1,\"kind\":\"close\",\"session\":\"alpha\",\"line\":4}",
        ];
        for (ev, want) in sample_events().iter().zip(golden) {
            let mut line = Vec::new();
            ev.write_line(&mut line);
            assert_eq!(line, format!("{want}\n").as_bytes());
            assert_eq!(&ServeEvent::parse(want).unwrap(), ev);
        }
    }

    #[test]
    fn missing_file_is_empty_and_create_persists_immediately() {
        let path = scratch("missing");
        assert_eq!(ServeJournal::load(&path).unwrap(), Vec::new());
        let _j = ServeJournal::create(&path).unwrap();
        assert!(path.exists(), "created journal persists even when empty");
        assert_eq!(ServeJournal::load(&path).unwrap(), Vec::new());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_interior_garbage_is_fatal() {
        let path = scratch("torn");
        let mut j = ServeJournal::create(&path).unwrap();
        for ev in sample_events() {
            j.append(&ev).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        // Torn tail: a crash mid-write leaves a half record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"kind\":\"job\",\"session\":\"al");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(ServeJournal::load(&path).unwrap(), sample_events());
        // Interior garbage: not a crash artifact, must refuse to resume.
        let broken = text.replacen("\"kind\":\"job\"", "\"kind\":\"jbo\"", 1);
        std::fs::write(&path, &broken).unwrap();
        let err = ServeJournal::load(&path).unwrap_err();
        let ServeJournalError::Corrupt { line, .. } = err else {
            panic!("want Corrupt, got {err:?}");
        };
        assert_eq!(line, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// The resume contract, in-process: replaying the journaled offer
    /// stream through a fresh session reproduces the decision stream
    /// byte-for-byte.
    #[test]
    fn replayed_journal_reproduces_decision_stream() {
        let path = scratch("replay");
        let offers = [
            JobOffer {
                arrival: t(0.0),
                deadline: t(3.0),
                length: dur(2.0),
            },
            JobOffer {
                arrival: t(1.5),
                deadline: t(4.0),
                length: dur(1.0),
            },
            JobOffer {
                arrival: t(6.0),
                deadline: t(6.5),
                length: dur(0.25),
            },
        ];
        let run = |offers: &[JobOffer]| -> (Vec<Decision>, SessionVerdict) {
            let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
            for &o in offers {
                s.offer(o).unwrap();
            }
            let v = s.close();
            (s.take_decisions(), v)
        };
        // Original daemon: journal every offer as it is admitted.
        let mut j = ServeJournal::create(&path).unwrap().with_sync_every(1);
        j.append(&ServeEvent::Open {
            session: "s".into(),
            scheduler: "eager".into(),
            line: 1,
        })
        .unwrap();
        for (i, o) in offers.iter().enumerate() {
            j.append(&ServeEvent::Job {
                session: "s".into(),
                line: 2 + i as u64,
                arrival: o.arrival.get(),
                deadline: o.deadline.get(),
                length: o.length.get(),
            })
            .unwrap();
        }
        drop(j); // killed before close: no close record
        let (original, verdict) = run(&offers);
        assert_eq!(verdict, SessionVerdict::Completed);
        // Resumed daemon: rebuild offers from the journal, replay.
        let mut replayed_offers = Vec::new();
        for ev in ServeJournal::load(&path).unwrap() {
            if let ServeEvent::Job {
                arrival,
                deadline,
                length,
                ..
            } = ev
            {
                replayed_offers.push(JobOffer {
                    arrival: t(arrival),
                    deadline: t(deadline),
                    length: dur(length),
                });
            }
        }
        let (replayed, _) = run(&replayed_offers);
        let render = |ds: &[Decision]| ds.iter().map(|d| format!("{d}\n")).collect::<String>();
        assert_eq!(render(&original), render(&replayed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn escaped_names_round_trip() {
        let session = "we\"ird\\name\nwith\tcontrol".to_string();
        let ev = ServeEvent::Job {
            session: session.clone(),
            line: 9,
            arrival: -0.0,
            deadline: 1e16,
            length: 0.1 + 0.2,
        };
        let mut line = Vec::new();
        ev.write_line(&mut line);
        let want = format!(
            "{{\"v\":1,\"kind\":\"job\",\"session\":\"{}\",\"line\":9,\"arrival\":-0,\"deadline\":10000000000000000,\"length\":0.30000000000000004}}\n",
            escape(&session)
        );
        assert_eq!(String::from_utf8(line).unwrap(), want);
        assert_eq!(ServeEvent::parse(want.trim_end()).unwrap(), ev);
        let open = ServeEvent::Open {
            session: session.clone(),
            scheduler: session,
            line: 1,
        };
        let mut line = Vec::new();
        open.write_line(&mut line);
        let text = String::from_utf8(line).unwrap();
        assert_eq!(ServeEvent::parse(text.trim_end()).unwrap(), open);
    }

    #[test]
    fn payload_bytes_matches_the_live_offer_accounting() {
        let ev = ServeEvent::Job {
            session: "t.a".into(),
            line: 7,
            arrival: 0.5,
            deadline: 2.0,
            length: 1.25,
        };
        let live = JobOffer {
            arrival: t(0.5),
            deadline: t(2.0),
            length: dur(1.25),
        };
        assert_eq!(ev.payload_bytes(), Some(live.canonical_bytes()));
        assert_eq!(ev.payload_bytes(), Some("0.5,2,1.25".len() as u64));
        let open = ServeEvent::Open {
            session: "t.a".into(),
            scheduler: "eager".into(),
            line: 1,
        };
        assert_eq!(open.payload_bytes(), None);
    }
}
