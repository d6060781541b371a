//! Crash-durable job journal: an append-only WAL of accepted jobs.
//!
//! Every accepted [`JobSpec`] is appended (and fsync'd) before the
//! submitter hears "submitted"; every terminal transition appends a
//! mark. On restart the journal is replayed: accepts without a matching
//! terminal mark are exactly the jobs a crash orphaned, and the service
//! re-admits them under fresh ids — safe because results are a pure
//! function of the spec, so a re-run provably produces the same bytes
//! the lost run would have.
//!
//! Records are line-JSON with their own schema tag (`"j":1`),
//! independent of the wire protocol version:
//!
//! ```json
//! {"j":1,"op":"accept","id":3,"origin":"client","job":{...}}
//! {"j":1,"op":"accept","id":9,"origin":"journal","from":3,"job":{...}}
//! {"j":1,"op":"done","id":3}
//! {"j":1,"op":"failed","id":4}
//! {"j":1,"op":"cancelled","id":5}
//! ```
//!
//! A replayed acceptance *supersedes* its pre-crash record: the `from`
//! id is retired from the pending set, so a job orphaned by one crash
//! and re-admitted is not replayed a second time by the next restart.
//!
//! A torn final line (the crash happened mid-append) is expected and
//! skipped; corrupt interior lines are counted and skipped rather than
//! aborting the replay — durability degrades loudly, never silently.
//! Opening a journal whose last byte is not a newline first appends one,
//! so the torn line stays a line of its own and the next record starts
//! clean.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use trident_types::json::{self, Obj};

use crate::proto::{JobOrigin, JobSpec};

/// Schema version of journal records; bump on any record-shape change.
pub const JOURNAL_VERSION: u32 = 1;

/// The write side of the journal: an append-only, fsync-per-record log.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records appended since open (not counting replayed history).
    appended: u64,
}

/// What replaying an existing journal found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// Accepted-but-not-terminal jobs, in original acceptance order.
    pub pending: Vec<(u64, JobSpec)>,
    /// Well-formed records read (accepts + terminal marks).
    pub records: u64,
    /// Lines skipped as torn or corrupt.
    pub corrupt: u64,
    /// Highest job id any record named (0 when the journal was empty);
    /// the service resumes ids above this so an id is never reused.
    pub max_id: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying whatever is
    /// already there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening or reading the file.
    pub fn open(path: &Path) -> std::io::Result<(Journal, JournalReplay)> {
        let replay = match File::open(path) {
            Ok(file) => replay(BufReader::new(file)),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => JournalReplay {
                pending: Vec::new(),
                records: 0,
                corrupt: 0,
                max_id: 0,
            },
            Err(err) => return Err(err),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        // A crash mid-append leaves a torn final line with no newline;
        // end it before the first new record, or that record would be
        // glued onto the torn bytes and lost to the next replay.
        if file.metadata()?.len() > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                file.sync_data()?;
            }
        }
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                appended: 0,
            },
            replay,
        ))
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended since this process opened the journal.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends an acceptance record and syncs it to disk. `requeued_from`
    /// names the pre-crash id when this acceptance is a journal replay.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure.
    pub fn accept(
        &mut self,
        id: u64,
        spec: &JobSpec,
        origin: JobOrigin,
        requeued_from: Option<u64>,
    ) -> std::io::Result<()> {
        let line = json::object(|w| {
            w.version("j", &JOURNAL_VERSION)
                .tag("op", "accept")
                .req("id", &id)
                .req("origin", &origin)
                .opt("from", &requeued_from)
                .req("job", spec);
        });
        self.append(&line)
    }

    /// Appends a terminal mark (`"done"`, `"failed"`, `"cancelled"`)
    /// and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure.
    pub fn terminal(&mut self, id: u64, op: &'static str) -> std::io::Result<()> {
        self.append(&json::object(|w| {
            w.version("j", &JOURNAL_VERSION)
                .tag("op", op)
                .req("id", &id);
        }))
    }

    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        // Data-only sync: the record must survive a crash; the file's
        // metadata mtime does not.
        self.file.sync_data()?;
        self.appended += 1;
        Ok(())
    }
}

fn replay<R: BufRead>(reader: R) -> JournalReplay {
    let mut pending: Vec<(u64, JobSpec)> = Vec::new();
    let mut records = 0u64;
    let mut corrupt = 0u64;
    let mut max_id = 0u64;
    for line in reader.lines() {
        let Ok(line) = line else {
            corrupt += 1;
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match replay_line(&line) {
            Some((id, action)) => {
                records += 1;
                max_id = max_id.max(id);
                match action {
                    Action::Accept { spec, from } => {
                        // A re-accept supersedes the orphaned record it
                        // replays; without this, every restart would
                        // re-run it again.
                        if let Some(from) = from {
                            pending.retain(|(p, _)| *p != from);
                        }
                        pending.push((id, *spec));
                    }
                    Action::Terminal => pending.retain(|(p, _)| *p != id),
                }
            }
            None => corrupt += 1,
        }
    }
    JournalReplay {
        pending,
        records,
        corrupt,
        max_id,
    }
}

enum Action {
    Accept {
        spec: Box<JobSpec>,
        /// The pre-crash id this acceptance supersedes, when a replay.
        from: Option<u64>,
    },
    Terminal,
}

fn replay_line(line: &str) -> Option<(u64, Action)> {
    let o = Obj::parse(line).ok()?;
    o.version("j", JOURNAL_VERSION).ok()?;
    let id = o.req("id").ok()?;
    match o.req::<String>("op").ok()?.as_str() {
        "accept" => {
            let spec = Box::new(o.req("job").ok()?);
            let from = o.opt("from").ok()?;
            Some((id, Action::Accept { spec, from }))
        }
        "done" | "failed" | "cancelled" => Some((id, Action::Terminal)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "trident-journal-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn replay_returns_accepts_without_terminal_marks() {
        let path = temp_path("pending");
        let _ = std::fs::remove_file(&path);
        let (mut journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, 0);
        let spec = JobSpec::new("GUPS", "Trident");
        journal.accept(1, &spec, JobOrigin::Client, None).unwrap();
        journal.accept(2, &spec, JobOrigin::Client, None).unwrap();
        journal.terminal(1, "done").unwrap();
        journal.accept(3, &spec, JobOrigin::Client, None).unwrap();
        journal.terminal(3, "cancelled").unwrap();
        drop(journal);

        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.max_id, 3);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0], (2, spec));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).unwrap();
        let spec = JobSpec::new("Redis", "4KB");
        journal.accept(7, &spec, JobOrigin::Client, None).unwrap();
        drop(journal);
        // Simulate a crash mid-append: a half-written accept record.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"j\":1,\"op\":\"accept\",\"id\":8,\"ori")
            .unwrap();
        drop(file);

        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, 1);
        assert_eq!(replay.corrupt, 1);
        assert_eq!(replay.pending, vec![(7, spec)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_appended_after_a_torn_tail_survives_the_next_replay() {
        // Crash 1 tears the tail after accepting id 4; the restart
        // re-accepts 4 as 9. The second restart must see 9 alone: had
        // the re-accept been glued onto the torn bytes, 4 would replay
        // again and ids would be reused.
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        let spec = JobSpec::new("GUPS", "Trident");
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.accept(4, &spec, JobOrigin::Client, None).unwrap();
        drop(journal);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"j\":1,\"op\":\"acc").unwrap();
        drop(file);

        let (mut journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.pending, vec![(4, spec.clone())]);
        journal
            .accept(9, &spec, JobOrigin::Journal, Some(4))
            .unwrap();
        drop(journal);

        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.pending, vec![(9, spec)]);
        assert_eq!(replay.max_id, 9);
        assert_eq!(replay.corrupt, 1, "only the torn line is lost");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn requeue_records_carry_their_pre_crash_id() {
        let path = temp_path("requeue");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).unwrap();
        let spec = JobSpec::new("GUPS", "Trident");
        journal
            .accept(9, &spec, JobOrigin::Journal, Some(4))
            .unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"from\":4"), "{text}");
        assert!(text.contains("\"origin\":\"journal\""), "{text}");
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.pending, vec![(9, spec)]);
        assert_eq!(replay.max_id, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_requeued_accept_supersedes_its_orphan() {
        // Crash 1 orphans id 4; restart re-accepts it as id 9 and then
        // crashes again before 9 settles. The next replay must surface
        // id 9 exactly once — never 4 as well.
        let path = temp_path("supersede");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).unwrap();
        let spec = JobSpec::new("GUPS", "Trident");
        journal.accept(4, &spec, JobOrigin::Client, None).unwrap();
        journal
            .accept(9, &spec, JobOrigin::Journal, Some(4))
            .unwrap();
        drop(journal);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.pending, vec![(9, spec)]);
        let _ = std::fs::remove_file(&path);
    }
}
