//! Write-ahead JSONL journal for checkpoint/resume.
//!
//! One line per completed unit: `{"unit": N, "payload": "..."}`. The
//! payload is an opaque string chosen by the caller (the engine prefixes
//! it with an outcome tag; `dda-core` serialises dataset entries into it
//! with its JSONL codec). Lines are flushed as they are written, so a
//! killed run loses at most the line being written — and
//! [`Journal::load`] tolerates exactly that by dropping a torn final
//! line.
//!
//! The lines go through the workspace's one JSON codec,
//! `dda_obs::event`: its escaper writes them and its flat-object parser
//! and torn-tail reader read them back. A line needs a `u64` `unit` and
//! a string `payload`; key order and extra fields do not matter.

use dda_obs::event::{escape_into, parse_object, read_jsonl, Value};
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// An append-only unit-outcome journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    out: BufWriter<File>,
}

impl Journal {
    /// Creates (truncating) a journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> io::Result<Journal> {
        Ok(Journal {
            path: path.to_path_buf(),
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for appending (creating it when missing) — the resume
    /// path: replayed units stay in place, new completions are appended.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(path: &Path) -> io::Result<Journal> {
        Ok(Journal {
            path: path.to_path_buf(),
            out: BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one unit outcome and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn record(&mut self, unit: usize, payload: &str) -> io::Result<()> {
        dda_fail::fail_io!("journal.append")?;
        let mut line = String::with_capacity(payload.len() + 32);
        let _ = write!(line, "{{\"unit\": {unit}, \"payload\": \"");
        escape_into(&mut line, payload);
        line.push_str("\"}\n");
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }

    /// Forces everything recorded so far down to the storage device
    /// (`fdatasync`), not just to the OS page cache.
    /// [`record`](Journal::record) alone survives a process crash; `sync` is for
    /// callers that must also survive a host crash before acknowledging
    /// work (the serve request journal syncs before accepting).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> io::Result<()> {
        dda_fail::fail_io!("journal.fsync")?;
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }

    /// Loads every `(unit, payload)` record from `path`.
    ///
    /// A torn **final** line (interrupted mid-write) is dropped silently;
    /// a malformed line anywhere else is a hard error, since it means the
    /// file is not one of our journals.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; reports corrupt non-final lines as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Vec<(usize, String)>> {
        let text = fs::read_to_string(path)?;
        Ok(read_jsonl(&text, path, "journal", parse_record)?.0)
    }

    /// Crash-recovery open: loads the records like [`Journal::load`],
    /// **truncates** a torn final line off the file, and reopens it for
    /// appending. The truncation is what makes continued appending safe —
    /// without it, the next record would be glued onto the torn bytes and
    /// the merged line would read as interior corruption on the *next*
    /// recovery. A missing file is an empty journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; reports corrupt non-final lines as
    /// [`io::ErrorKind::InvalidData`].
    pub fn recover(path: &Path) -> io::Result<(Journal, Vec<(usize, String)>)> {
        let mut records = Vec::new();
        if path.exists() {
            let text = fs::read_to_string(path)?;
            let (recs, good_len) = read_jsonl(&text, path, "journal", parse_record)?;
            records = recs;
            if good_len < text.len() {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(good_len as u64)?;
            }
        }
        Ok((Journal::append(path)?, records))
    }
}

/// Parses one journal line; `None` when malformed (torn write). Public
/// only so the codec differential tests can hold it to the old reader.
#[doc(hidden)]
pub fn parse_record(line: &str) -> Option<(usize, String)> {
    let (mut unit, mut payload) = (None, None);
    parse_object(line, |name, value| {
        match (name.as_str(), value) {
            ("unit", Value::U64(n)) => unit = Some(usize::try_from(n).ok()?),
            ("payload", Value::Str(s)) => payload = Some(s),
            ("unit" | "payload", _) => return None,
            _ => {}
        }
        Some(())
    })?;
    Some((unit?, payload?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dda-runtime-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = tmp("roundtrip");
        {
            let mut j = Journal::create(&path).unwrap();
            j.record(0, "plain").unwrap();
            j.record(3, "multi\nline\twith \"quotes\" and \\slashes\\")
                .unwrap();
            j.record(1, "\u{1}\u{7}control").unwrap();
        }
        let got = Journal::load(&path).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (0, "plain".to_string()));
        assert_eq!(
            got[1],
            (
                3,
                "multi\nline\twith \"quotes\" and \\slashes\\".to_string()
            )
        );
        assert_eq!(got[2], (1, "\u{1}\u{7}control".to_string()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_extends_an_existing_journal() {
        let path = tmp("append");
        Journal::create(&path).unwrap().record(0, "a").unwrap();
        Journal::append(&path).unwrap().record(1, "b").unwrap();
        let got = Journal::load(&path).unwrap();
        assert_eq!(got, vec![(0, "a".into()), (1, "b".into())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = tmp("torn");
        Journal::create(&path).unwrap().record(0, "done").unwrap();
        // Simulate a kill mid-write: an incomplete trailing record.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"unit\": 1, \"payload\": \"half").unwrap();
        drop(f);
        let got = Journal::load(&path).unwrap();
        assert_eq!(got, vec![(0, "done".into())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_truncates_the_torn_tail_so_appends_stay_parseable() {
        let path = tmp("recover");
        Journal::create(&path).unwrap().record(0, "done").unwrap();
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"unit\": 1, \"payload\": \"half").unwrap();
        drop(f);
        // Recover: the torn line is gone from disk, and appending after
        // recovery starts at a clean record boundary.
        let (mut j, records) = Journal::recover(&path).unwrap();
        assert_eq!(records, vec![(0, "done".into())]);
        j.record(2, "after").unwrap();
        drop(j);
        assert_eq!(
            Journal::load(&path).unwrap(),
            vec![(0, "done".into()), (2, "after".into())]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_of_a_missing_file_is_an_empty_journal() {
        let path = tmp("recover-missing");
        let _ = std::fs::remove_file(&path);
        let (mut j, records) = Journal::recover(&path).unwrap();
        assert!(records.is_empty());
        j.record(0, "first").unwrap();
        drop(j);
        assert_eq!(Journal::load(&path).unwrap(), vec![(0, "first".into())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_line_is_a_hard_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "garbage\n{\"unit\": 0, \"payload\": \"x\"}\n").unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_need_a_u64_unit_and_a_string_payload() {
        assert_eq!(
            parse_record(r#"{"unit": 4, "payload": "p"}"#),
            Some((4, "p".into()))
        );
        // Key order and extra fields are not part of the format.
        assert_eq!(
            parse_record(r#"{"payload": "p", "note": true, "unit": 4}"#),
            Some((4, "p".into()))
        );
        for bad in [
            r#"{"payload": "p"}"#,
            r#"{"unit": 4}"#,
            r#"{"unit": -4, "payload": "p"}"#,
            r#"{"unit": 4.0, "payload": "p"}"#,
            r#"{"unit": "4", "payload": "p"}"#,
            r#"{"unit": 4, "payload": 5}"#,
            r#"{"unit": 4, "payload": "p"} {"#,
        ] {
            assert_eq!(parse_record(bad), None, "accepted {bad}");
        }
    }

    #[test]
    fn sync_flushes_buffered_records() {
        let path = tmp("sync");
        let mut j = Journal::create(&path).unwrap();
        j.record(0, "durable").unwrap();
        j.sync().unwrap();
        // Visible on disk while the journal is still open for writing.
        assert_eq!(Journal::load(&path).unwrap(), vec![(0, "durable".into())]);
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unicode_payloads_survive() {
        let path = tmp("unicode");
        Journal::create(&path)
            .unwrap()
            .record(9, "§3.2 → ☃ モジュール")
            .unwrap();
        assert_eq!(
            Journal::load(&path).unwrap(),
            vec![(9, "§3.2 → ☃ モジュール".into())]
        );
        std::fs::remove_file(&path).ok();
    }
}
