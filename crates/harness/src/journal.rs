//! The write-ahead optimization journal: crash-tolerant resume for
//! `epre opt --best-effort --journal PATH`.
//!
//! As each function finishes its sandboxed pipeline, one self-delimiting
//! record — name, a fingerprint of the *input* text, a fingerprint of the
//! *output* text, and the output's serialized body — is appended and
//! flushed. A run killed mid-module (SIGKILL, OOM, power button) leaves a
//! journal whose tail may be torn mid-record; the loader tolerates exactly
//! that, keeping every complete record and discarding the torn tail. On
//! `--resume`, functions whose input fingerprint still matches skip the
//! pass pipeline and replay their journaled bodies, so the resumed run's
//! emitted module is byte-identical to what the uninterrupted run would
//! have produced.
//!
//! Records are written *before* the oracle stage (the sandbox is
//! per-function; the oracle needs the whole candidate module), so a resume
//! re-runs the oracle over reused and fresh functions alike — which is
//! precisely what makes the final output independent of where the crash
//! landed. The header binds the journal to the optimization level, fault
//! policy, and budget that produced it; resuming under a different
//! configuration is refused rather than silently mixed.
//!
//! ## Format
//!
//! Plain text, ASCII framing, length-prefixed bodies:
//!
//! ```text
//! EPRE-JOURNAL v2 level=distribution policy=best-effort iters=200000 growth=64 deadline-ms=none
//! fn <name>
//! in <16-hex input fingerprint>
//! out <16-hex output fingerprint>
//! at <decimal recency epoch>        (optional; absent means epoch 0)
//! body <byte length>
//! <exactly that many bytes of printed ILOC>
//! end
//! ```
//!
//! The `at` line is the serve-layer cache's LRU clock: each record carries
//! the logical epoch of its last touch so recency survives a restart. The
//! optimizer journal never writes it (its records are epoch 0, and a zero
//! epoch is serialized as *no line at all*), which keeps the optimizer's
//! journal bytes identical to the pre-epoch format.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use epre::Budget;

use crate::rng::fingerprint64;

/// The format-version magic every journal starts with. `v2` marks bodies
/// whose registers were compacted after every SSA round trip; a `v1`
/// journal's bodies use another register numbering, so resuming from one
/// is refused rather than splicing two numberings into one module.
pub const JOURNAL_MAGIC: &str = "EPRE-JOURNAL v2";

/// The header line binding a journal to the run configuration that wrote
/// it. Level, policy, and every budget dimension participate: a journal
/// written under different caps could hold bodies the current run would
/// have rolled back (or vice versa).
pub fn header_line(level_label: &str, policy_label: &str, budget: &Budget) -> String {
    let iters = budget.max_iters.map_or("none".to_string(), |n| n.to_string());
    let growth = budget.max_growth.map_or("none".to_string(), |g| format!("{g}"));
    let deadline = budget.deadline.map_or("none".to_string(), |d| format!("{}", d.as_millis()));
    format!(
        "{JOURNAL_MAGIC} level={level_label} policy={policy_label} \
         iters={iters} growth={growth} deadline-ms={deadline}"
    )
}

/// One complete journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The function the record belongs to.
    pub function: String,
    /// [`fingerprint64`] of the function's printed *input* text. A resume
    /// reuses the record only when the current input still matches.
    pub input_fp: u64,
    /// Logical recency epoch of the record's last touch (the serve cache's
    /// LRU clock). Zero for records written without an `at` line — every
    /// optimizer-journal record, and every pre-epoch cache file.
    pub epoch: u64,
    /// The post-pipeline function, serialized as printed ILOC.
    pub body: String,
}

/// What the loader recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Complete, checksum-valid records, keyed by function name (a name
    /// journaled twice keeps its latest record).
    pub entries: BTreeMap<String, JournalEntry>,
    /// The file ended mid-record — the signature of a killed run. The
    /// torn tail was discarded.
    pub torn_tail: bool,
    /// Records whose body failed its output-fingerprint check and were
    /// dropped.
    pub corrupt_dropped: usize,
}

/// The outcome of probing a journal path for resume.
#[derive(Debug)]
pub enum JournalLoad {
    /// No journal exists at the path: start fresh.
    Fresh,
    /// A journal exists but was written under a different configuration.
    Mismatch {
        /// The header found in the file.
        found: String,
    },
    /// A compatible journal with whatever records survived.
    Resumed(ResumeState),
}

/// Read one `\n`-terminated line starting at `*pos`, advancing past it.
fn take_line<'a>(text: &'a str, pos: &mut usize) -> Option<&'a str> {
    let rest = &text[*pos..];
    let nl = rest.find('\n')?;
    *pos += nl + 1;
    Some(&rest[..nl])
}

/// Load and validate the journal at `path` against `expected_header`.
///
/// Tolerant of a torn tail (see module docs); strict about the header.
///
/// Crash-before-first-record edge cases resolve to [`JournalLoad::Fresh`]
/// rather than a torn resume or an error: a zero-length file (killed
/// between `create` and the header write) and a file whose only content
/// is a partial header with no newline (killed mid-header) both carry no
/// records and no trustworthy header, so the run simply starts over. A
/// header-only file (the header landed, no records yet) resumes cleanly
/// with zero entries and `torn_tail == false`.
///
/// # Errors
/// Only real I/O errors. A missing file is [`JournalLoad::Fresh`]; any
/// malformed content is handled by tolerance or [`JournalLoad::Mismatch`].
pub fn load_journal(path: &Path, expected_header: &str) -> io::Result<JournalLoad> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalLoad::Fresh),
        Err(e) => return Err(e),
    };
    // ILOC and the framing are ASCII; a kill can still tear the file at
    // any byte, so decode leniently and let the framing checks below
    // discard whatever the tear mangled.
    let text = String::from_utf8_lossy(&bytes);
    let mut pos = 0usize;
    let Some(header) = take_line(&text, &mut pos) else {
        // Empty file, or a partial header the kill cut before its
        // newline: nothing was journaled, so there is nothing to resume
        // *or* to mourn — start fresh instead of reporting a torn tail
        // that never held a record.
        return Ok(JournalLoad::Fresh);
    };
    if header != expected_header {
        return Ok(JournalLoad::Mismatch { found: header.to_string() });
    }
    let mut state = ResumeState::default();
    loop {
        if pos >= text.len() {
            break; // clean end-of-journal
        }
        let parsed = (|| -> Option<(String, u64, u64, u64, String)> {
            let name = take_line(&text, &mut pos)?.strip_prefix("fn ")?.to_string();
            let input_fp =
                u64::from_str_radix(take_line(&text, &mut pos)?.strip_prefix("in ")?, 16).ok()?;
            let output_fp =
                u64::from_str_radix(take_line(&text, &mut pos)?.strip_prefix("out ")?, 16).ok()?;
            // The recency line is optional: records written before epochs
            // existed (and all optimizer-journal records) jump straight
            // from `out` to `body`.
            let mut epoch = 0u64;
            let mut line = take_line(&text, &mut pos)?;
            if let Some(at) = line.strip_prefix("at ") {
                epoch = at.parse().ok()?;
                line = take_line(&text, &mut pos)?;
            }
            let len: usize = line.strip_prefix("body ")?.parse().ok()?;
            let body = text.get(pos..pos + len)?.to_string();
            pos += len;
            if take_line(&text, &mut pos)? != "end" {
                return None;
            }
            Some((name, input_fp, output_fp, epoch, body))
        })();
        match parsed {
            None => {
                // Torn mid-record: the remainder is the crash artifact.
                // Keep what came before.
                state.torn_tail = true;
                break;
            }
            Some((function, input_fp, output_fp, epoch, body)) => {
                if fingerprint64(&body) != output_fp {
                    state.corrupt_dropped += 1;
                    continue;
                }
                state
                    .entries
                    .insert(function.clone(), JournalEntry { function, input_fp, epoch, body });
            }
        }
    }
    Ok(JournalLoad::Resumed(state))
}

/// An append-only journal writer, safe to share across worker threads.
///
/// Each [`JournalWriter::record`] call assembles its record in memory and
/// writes it with a single locked `write_all` + flush, so records from
/// concurrent workers interleave only at record granularity and a kill
/// tears at most the final record.
#[derive(Debug)]
pub struct JournalWriter {
    inner: Mutex<WriterInner>,
}

#[derive(Debug)]
struct WriterInner {
    file: File,
    bytes: u64,
}

/// Exact on-disk byte length of the record [`JournalWriter::record_at`]
/// would write for these arguments — the serve cache's byte-accurate
/// accounting unit (live bytes = header + Σ `record_len`, which is exactly
/// the file size a compaction will produce).
pub fn record_len(function: &str, epoch: u64, body: &str) -> u64 {
    let fixed = 4 + function.len()          // "fn <name>\n"
        + 20                                // "in <16 hex>\n"
        + 21                                // "out <16 hex>\n"
        + 6 + decimal_digits(body.len() as u64) // "body <len>\n"
        + body.len()
        + 4; // "end\n"
    let at = if epoch > 0 { 4 + decimal_digits(epoch) } else { 0 }; // "at <epoch>\n"
    (fixed + at) as u64
}

fn decimal_digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// The sibling path a crash-safe rewrite stages its replacement file at
/// before the atomic rename. Exposed so readers that inherit a crash can
/// clean the stale sibling up (the rename never happened, so the original
/// file at `path` is still the valid one).
pub fn rewrite_staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(".compact");
    path.with_file_name(name)
}

impl JournalWriter {
    /// Create (truncate) a journal at `path` and write `header`.
    ///
    /// # Errors
    /// File creation or the header write.
    pub fn create(path: &Path, header: &str) -> io::Result<JournalWriter> {
        let mut file = File::create(path)?;
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, bytes: header.len() as u64 + 1 }),
        })
    }

    /// Rewrite `path` from scratch with `header` and the given complete
    /// records, **crash-atomically**: the replacement is written to a
    /// staging sibling ([`rewrite_staging_path`]), fsynced, and renamed
    /// over `path` in one step. A kill at any instant leaves either the
    /// old file or the complete new file at `path` — never a torn hybrid.
    /// This is both the resume path's way of discarding a torn tail and
    /// the serve cache's online compaction. Returns the writer positioned
    /// for appending fresh records (its handle survives the rename: it
    /// points at the inode now living at `path`).
    ///
    /// # Errors
    /// File creation, any write, the fsync, or the rename.
    pub fn rewrite(
        path: &Path,
        header: &str,
        entries: &BTreeMap<String, JournalEntry>,
    ) -> io::Result<JournalWriter> {
        let staging = rewrite_staging_path(path);
        let w = JournalWriter::create(&staging, header)?;
        for e in entries.values() {
            w.record_at(&e.function, e.input_fp, e.epoch, &e.body)?;
        }
        {
            let inner = w.inner.lock().expect("journal file poisoned");
            // The rename below makes the new content *the* journal; fsync
            // first so the kill window between rename and writeback cannot
            // publish a name pointing at unwritten data.
            inner.file.sync_all()?;
        }
        std::fs::rename(&staging, path)?;
        Ok(w)
    }

    /// Append one record for `function` and flush it to the OS, making it
    /// kill-durable (surviving SIGKILL; full power-loss durability would
    /// need an fsync per record, a cost the journal's crash model does not
    /// ask for).
    ///
    /// # Errors
    /// The write or flush.
    pub fn record(&self, function: &str, input_fp: u64, body: &str) -> io::Result<()> {
        self.record_at(function, input_fp, 0, body)
    }

    /// [`JournalWriter::record`] with an explicit recency epoch. Epoch 0
    /// writes no `at` line at all, keeping pre-epoch journal bytes
    /// unchanged; the loader reads the absence back as epoch 0.
    ///
    /// # Errors
    /// The write or flush.
    pub fn record_at(
        &self,
        function: &str,
        input_fp: u64,
        epoch: u64,
        body: &str,
    ) -> io::Result<()> {
        let mut rec = String::with_capacity(body.len() + 96);
        rec.push_str("fn ");
        rec.push_str(function);
        rec.push('\n');
        rec.push_str(&format!("in {input_fp:016x}\n"));
        rec.push_str(&format!("out {:016x}\n", fingerprint64(body)));
        if epoch > 0 {
            rec.push_str(&format!("at {epoch}\n"));
        }
        rec.push_str(&format!("body {}\n", body.len()));
        rec.push_str(body);
        rec.push_str("end\n");
        let mut inner = self.inner.lock().expect("journal file poisoned");
        inner.file.write_all(rec.as_bytes())?;
        inner.file.flush()?;
        inner.bytes += rec.len() as u64;
        Ok(())
    }

    /// Bytes written through this writer since creation, header included —
    /// the journal file's size as long as nothing else touches the path.
    /// The serve cache's compaction trigger reads this instead of
    /// stat()ing the file on every insert.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().expect("journal file poisoned").bytes
    }

    /// Fsync the journal file itself (used by graceful drain to upgrade
    /// the final state from kill-durable to power-durable before exit).
    ///
    /// # Errors
    /// The fsync.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.lock().expect("journal file poisoned").file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> String {
        header_line("distribution", "best-effort", &Budget::governed())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("epre-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let path = tmp("roundtrip");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record("foo", 0xAB, "body of foo\n").unwrap();
        w.record("bar", 0xCD, "body of bar\nwith two lines\n").unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert!(!st.torn_tail);
        assert_eq!(st.corrupt_dropped, 0);
        assert_eq!(st.entries.len(), 2);
        assert_eq!(st.entries["foo"].input_fp, 0xAB);
        assert_eq!(st.entries["bar"].body, "body of bar\nwith two lines\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_complete_records() {
        let path = tmp("torn");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record("keep", 1, "kept body\n").unwrap();
        w.record("torn", 2, "this record will be cut mid-body\n").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut inside the second record's body, as a SIGKILL would.
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert!(st.torn_tail, "a cut file must be flagged torn");
        assert_eq!(st.entries.len(), 1);
        assert!(st.entries.contains_key("keep"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_body_is_dropped_not_trusted() {
        let path = tmp("corrupt");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record("good", 1, "good body\n").unwrap();
        w.record("bad", 2, "bad body\n").unwrap();
        // Flip a byte inside `bad`'s body without breaking the framing.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.windows(8).rposition(|w| w == b"bad body").unwrap();
        bytes[idx] = b'B';
        std::fs::write(&path, &bytes).unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert!(!st.torn_tail);
        assert_eq!(st.corrupt_dropped, 1);
        assert_eq!(st.entries.len(), 1);
        assert!(st.entries.contains_key("good"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_is_refused() {
        let path = tmp("mismatch");
        let other = header_line("baseline", "best-effort", &Budget::governed());
        JournalWriter::create(&path, &other).unwrap();
        match load_journal(&path, &header()).unwrap() {
            JournalLoad::Mismatch { found } => assert!(found.contains("level=baseline")),
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_fresh() {
        let path = tmp("definitely-not-created");
        assert!(matches!(load_journal(&path, &header()).unwrap(), JournalLoad::Fresh));
    }

    #[test]
    fn zero_length_file_is_fresh_not_torn() {
        // A kill between `File::create` and the header write leaves a
        // zero-length file: no header, no records, nothing torn.
        let path = tmp("zero-length");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(load_journal(&path, &header()).unwrap(), JournalLoad::Fresh));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_header_without_newline_is_fresh() {
        // A kill mid-header leaves a newline-less prefix. It must not be
        // treated as a mismatch (error) or a torn resume; it is a
        // crash-before-first-record and the run starts over.
        let path = tmp("partial-header");
        let h = header();
        std::fs::write(&path, &h.as_bytes()[..h.len() - 10]).unwrap();
        assert!(matches!(load_journal(&path, &header()).unwrap(), JournalLoad::Fresh));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_file_resumes_cleanly_with_no_entries() {
        // The header landed but the kill arrived before the first record:
        // a clean, empty resume — not torn, not an error.
        let path = tmp("header-only");
        JournalWriter::create(&path, &header()).unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert!(!st.torn_tail, "an empty journal has no torn tail");
        assert_eq!(st.corrupt_dropped, 0);
        assert!(st.entries.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn epoch_roundtrips_and_zero_epoch_writes_no_at_line() {
        let path = tmp("epoch");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record_at("hot", 1, 42, "hot body\n").unwrap();
        w.record_at("cold", 2, 0, "cold body\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\nat 42\n"), "nonzero epoch must serialize");
        assert_eq!(
            text.matches("\nat ").count(),
            1,
            "epoch 0 must write no at line (pre-epoch byte compatibility)"
        );
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert_eq!(st.entries["hot"].epoch, 42);
        assert_eq!(st.entries["cold"].epoch, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_len_matches_bytes_actually_written() {
        let path = tmp("record-len");
        let w = JournalWriter::create(&path, &header()).unwrap();
        let before = w.bytes_written();
        assert_eq!(before, header().len() as u64 + 1);
        w.record_at("f", 7, 0, "x\n").unwrap();
        w.record_at("long-name", 8, 123_456, "a longer body here\n").unwrap();
        let expected = before
            + record_len("f", 0, "x\n")
            + record_len("long-name", 123_456, "a longer body here\n");
        assert_eq!(w.bytes_written(), expected);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_journal_is_refused() {
        let path = tmp("v1");
        let v1 = header().replacen(JOURNAL_MAGIC, "EPRE-JOURNAL v1", 1);
        let w = JournalWriter::create(&path, &v1).unwrap();
        w.record("foo", 0xAB, "body of foo\n").unwrap();
        drop(w);
        match load_journal(&path, &header()).unwrap() {
            JournalLoad::Mismatch { found } => assert_eq!(found, v1),
            other => panic!("a v1 journal must not be resumed: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_before_rename_leaves_old_journal_valid() {
        // The compaction crash window: the staging sibling exists (complete
        // or torn — a kill can land anywhere in its write) but the rename
        // never happened. The file at `path` must still load as the valid
        // journal, staging sibling ignored.
        let path = tmp("crash-window");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record("survivor", 1, "old content\n").unwrap();
        let staging = rewrite_staging_path(&path);
        std::fs::write(&staging, b"EPRE-JOURNAL v1 torn garbage with no newline").unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert_eq!(st.entries.len(), 1);
        assert!(st.entries.contains_key("survivor"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&staging).ok();
    }

    #[test]
    fn rewrite_replaces_the_file_atomically_and_keeps_appending() {
        let path = tmp("atomic-rewrite");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record_at("keep", 1, 5, "kept body\n").unwrap();
        w.record_at("drop", 2, 1, "dropped body\n").unwrap();
        let JournalLoad::Resumed(mut st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        st.entries.remove("drop");
        let w = JournalWriter::rewrite(&path, &header(), &st.entries).unwrap();
        // The staging sibling must be gone (renamed over the original).
        assert!(!rewrite_staging_path(&path).exists(), "staging file must be renamed away");
        // The returned writer appends to the *new* file through the rename.
        w.record_at("fresh", 3, 9, "fresh body\n").unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), w.bytes_written());
        let JournalLoad::Resumed(st2) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert_eq!(st2.entries.len(), 2);
        assert_eq!(st2.entries["keep"].epoch, 5);
        assert_eq!(st2.entries["fresh"].epoch, 9);
        assert!(!st2.entries.contains_key("drop"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_discards_the_torn_tail_durably() {
        let path = tmp("rewrite");
        let w = JournalWriter::create(&path, &header()).unwrap();
        w.record("keep", 1, "kept body\n").unwrap();
        w.record("torn", 2, "cut mid-body\n").unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 6]).unwrap();
        let JournalLoad::Resumed(st) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        let w = JournalWriter::rewrite(&path, &header(), &st.entries).unwrap();
        w.record("fresh", 3, "fresh body\n").unwrap();
        let JournalLoad::Resumed(st2) = load_journal(&path, &header()).unwrap() else {
            panic!("expected resume");
        };
        assert!(!st2.torn_tail, "rewrite must leave a clean file");
        assert_eq!(st2.entries.len(), 2);
        assert!(st2.entries.contains_key("keep") && st2.entries.contains_key("fresh"));
        std::fs::remove_file(&path).ok();
    }
}
