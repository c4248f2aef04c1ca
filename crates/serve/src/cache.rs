//! The persistent, content-addressed result cache — the journal
//! machinery wearing a different hat.
//!
//! Every entry maps a *cache key* (a 16-hex-digit FNV-1a fingerprint
//! over the optimization configuration line plus one function's input
//! text) to that function's optimized body. Entries are appended
//! write-ahead-journal style through [`epre_harness::JournalWriter`]: one
//! locked write+flush per insert, **before** the response frame that
//! advertises the result leaves the server. A `kill -9` therefore loses
//! at most the entry being written; on restart
//! [`epre_harness::load_journal`] tolerates the torn tail, drops
//! corrupt records by their output fingerprint, and [`ResultCache::open`]
//! compacts the file clean.
//!
//! ## Size cap, eviction, online compaction
//!
//! An uncapped cache keeps the original append-forever behavior
//! (compaction only at open). With a byte cap, the cache self-limits:
//!
//! - Every entry carries a **recency epoch** from a monotone logical
//!   clock; lookups touch it. The epoch is persisted per record (the
//!   journal's `at` line), so recency survives a restart.
//! - When live bytes exceed ⅞ of the cap, the least-recently-touched
//!   entries are **evicted** from memory until back under — the ⅛
//!   headroom keeps appends from re-triggering maintenance on every
//!   insert.
//! - Evicted entries still occupy dead journal bytes, so when the *file*
//!   outgrows the cap an **online compaction** rewrites it from the live
//!   map — staged beside the old file, fsynced, atomically renamed
//!   (see [`epre_harness::JournalWriter::rewrite`]). A `kill -9` at any
//!   instant during compaction leaves either the complete old file or
//!   the complete new file, never a hybrid.
//!
//! A cache entry is only ever *advisory*: bodies are fingerprint-
//! verified when the journal loads, re-parsed and name-checked on every
//! replay, and only ever inserted after passing the differential oracle
//! under the identical (config, input) key. A wrong cache entry degrades
//! to a miss and a fresh, oracle-checked run; it cannot change an
//! answer.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use epre_harness::{
    fingerprint64, load_journal, record_len, rewrite_staging_path, JournalEntry, JournalLoad,
    JournalWriter,
};

/// The cache file's header line. Versioned separately from the journal
/// magic: a cache written by an incompatible server version is discarded
/// wholesale, never misread. `v1` answers predate register compaction and
/// differ byte for byte from the answers this server computes.
pub const CACHE_HEADER: &str = "EPRE-SERVE-CACHE v2";

/// What [`ResultCache::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRecovery {
    /// Entries recovered from the file.
    pub recovered: usize,
    /// The file carried a torn tail (the signature of a kill) that was
    /// discarded during compaction.
    pub resumed_torn: bool,
    /// Records dropped because their output fingerprint did not match
    /// their body (torn or bit-rotted mid-file).
    pub corrupt_dropped: usize,
    /// The file existed but carried an incompatible header and was
    /// discarded wholesale.
    pub discarded_incompatible: bool,
}

/// One resident entry: the body plus its LRU bookkeeping.
#[derive(Debug)]
struct CacheEntry {
    body: String,
    /// Logical time of the last touch (insert or lookup hit).
    epoch: u64,
    /// Exact on-disk record size at the current epoch.
    cost: u64,
}

/// Everything eviction and compaction must see atomically. One lock:
/// an insert's append, map update, eviction sweep, and (rarely) its
/// compaction happen as a unit, so a concurrent compaction can never
/// snapshot the map *before* an append it then renames away — which
/// would silently drop an already-advertised write-ahead record.
#[derive(Debug)]
struct CacheInner {
    entries: BTreeMap<String, CacheEntry>,
    /// Append-only writer; `None` for an in-memory cache.
    writer: Option<JournalWriter>,
    /// Header plus the exact record bytes of every *resident* entry —
    /// the file size a compaction right now would produce.
    live_bytes: u64,
    /// Next epoch to hand out; starts above every recovered epoch.
    clock: u64,
}

/// A persistent (or purely in-memory) content-addressed result cache,
/// optionally bounded by a byte cap with LRU-ish eviction and crash-safe
/// online compaction.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    /// Where the journal lives; `None` for an in-memory cache.
    path: Option<PathBuf>,
    /// The byte cap; `None` means unbounded (legacy behavior).
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    compactions: AtomicU64,
    recovery: CacheRecovery,
}

/// Header line plus its newline — the fixed overhead of any journal file.
fn header_bytes() -> u64 {
    CACHE_HEADER.len() as u64 + 1
}

/// Eviction keeps live bytes at or under ⅞ of the cap, so the ⅛
/// headroom absorbs fresh appends without re-running maintenance on
/// every insert.
fn cap_target(cap: u64) -> u64 {
    cap - cap / 8
}

impl ResultCache {
    /// Open (or create) the cache file at `path`, replaying surviving
    /// entries and compacting away any torn tail. An incompatible or
    /// unreadable-as-a-journal file is discarded and recreated — a cache
    /// may always be rebuilt, so recovery never refuses to start.
    ///
    /// # Errors
    /// Real I/O errors only (open, read, rewrite).
    pub fn open(path: &Path) -> io::Result<ResultCache> {
        ResultCache::open_capped(path, None)
    }

    /// [`ResultCache::open`] with a byte cap. Recovered entries beyond
    /// the cap are evicted oldest-epoch-first before the startup
    /// compaction, so the file is within the cap from the first insert.
    ///
    /// # Errors
    /// Real I/O errors only (open, read, rewrite).
    pub fn open_capped(path: &Path, max_bytes: Option<u64>) -> io::Result<ResultCache> {
        // A stale staging sibling means a compaction died before its
        // rename: the file at `path` is authoritative, the sibling is
        // garbage. Clear it so it cannot accumulate.
        let _ = std::fs::remove_file(rewrite_staging_path(path));
        let mut recovery = CacheRecovery::default();
        let (writer, journal_entries) = match load_journal(path, CACHE_HEADER)? {
            JournalLoad::Fresh => (JournalWriter::create(path, CACHE_HEADER)?, BTreeMap::new()),
            JournalLoad::Mismatch { .. } => {
                recovery.discarded_incompatible = true;
                (JournalWriter::create(path, CACHE_HEADER)?, BTreeMap::new())
            }
            JournalLoad::Resumed(st) => {
                recovery.recovered = st.entries.len();
                recovery.resumed_torn = st.torn_tail;
                recovery.corrupt_dropped = st.corrupt_dropped;
                let w = JournalWriter::rewrite(path, CACHE_HEADER, &st.entries)?;
                (w, st.entries)
            }
        };
        let mut clock = 1;
        let mut live_bytes = header_bytes();
        let mut entries = BTreeMap::new();
        for (key, e) in journal_entries {
            clock = clock.max(e.epoch + 1);
            let cost = record_len(&key, e.epoch, &e.body);
            live_bytes += cost;
            entries.insert(key, CacheEntry { body: e.body, epoch: e.epoch, cost });
        }
        let mut cache = ResultCache {
            inner: Mutex::new(CacheInner { entries, writer: Some(writer), live_bytes, clock }),
            path: Some(path.to_path_buf()),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            recovery,
        };
        // A recovered file may exceed a newly-imposed (or tightened) cap:
        // evict down and compact the residue away immediately.
        if let Some(cap) = max_bytes {
            let inner = cache.inner.get_mut().expect("cache poisoned");
            let evicted = evict_to(inner, cap_target(cap));
            cache.evictions.fetch_add(evicted, Ordering::Relaxed);
            if inner.writer.as_ref().is_some_and(|w| w.bytes_written() > cap) {
                compact_locked(inner, path)?;
                cache.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(cache)
    }

    /// A cache that lives only as long as the server (no file).
    pub fn in_memory() -> ResultCache {
        ResultCache::in_memory_capped(None)
    }

    /// An in-memory cache with a byte cap: eviction applies, compaction
    /// is moot (there is no file to grow).
    pub fn in_memory_capped(max_bytes: Option<u64>) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                entries: BTreeMap::new(),
                writer: None,
                live_bytes: header_bytes(),
                clock: 1,
            }),
            path: None,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            recovery: CacheRecovery::default(),
        }
    }

    /// The content-addressed key: configuration line (level, policy,
    /// keyed budget — exactly the journal header line) plus one
    /// function's input text.
    pub fn key(config_line: &str, function_text: &str) -> String {
        format!("{:016x}", fingerprint64(&format!("{config_line}\n{function_text}")))
    }

    /// Look up a key, counting the hit or miss. A hit touches the
    /// entry's recency epoch (in memory; the refreshed epoch reaches
    /// disk at the next compaction or flush).
    pub fn lookup(&self, key: &str) -> Option<String> {
        let mut inner = self.inner.lock().expect("cache map poisoned");
        let clock = inner.clock;
        let touched = inner.entries.get_mut(key).map(|e| {
            e.epoch = clock;
            // The touch can change the record's `at`-line width; keep the
            // byte accounting exact.
            let new_cost = record_len(key, clock, &e.body);
            let delta = new_cost as i64 - e.cost as i64;
            e.cost = new_cost;
            (e.body.clone(), delta)
        });
        let found = touched.map(|(body, delta)| {
            inner.live_bytes = inner.live_bytes.checked_add_signed(delta).expect("cost underflow");
            inner.clock += 1;
            body
        });
        drop(inner);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert write-ahead: the entry is on disk (written and flushed)
    /// before this returns, so a crash after the caller's response frame
    /// can never lose a result the client already saw advertised. Under a
    /// byte cap the insert may evict least-recently-touched entries and,
    /// when the journal file itself outgrows the cap, trigger a
    /// crash-safe online compaction — all before returning.
    ///
    /// An entry that alone would not fit the cap is not cached at all
    /// (counted as an eviction): caching it would immediately evict
    /// everything else for a body that can never be retained.
    ///
    /// # Errors
    /// The journal append, or the compaction's staging write/rename.
    pub fn insert(&self, key: &str, body: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("cache map poisoned");
        let epoch = inner.clock;
        inner.clock += 1;
        let cost = record_len(key, epoch, body);
        if let Some(cap) = self.max_bytes {
            if header_bytes() + cost > cap_target(cap) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        if let Some(w) = &inner.writer {
            w.record_at(key, fingerprint64(body), epoch, body)?;
        }
        let old = inner
            .entries
            .insert(key.to_string(), CacheEntry { body: body.to_string(), epoch, cost });
        inner.live_bytes = inner.live_bytes + cost - old.map_or(0, |o| o.cost);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.max_bytes {
            let evicted = evict_to(&mut inner, cap_target(cap));
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            let file_over = inner.writer.as_ref().is_some_and(|w| w.bytes_written() > cap);
            if file_over {
                let path = self.path.as_deref().expect("writer implies path");
                compact_locked(&mut inner, path)?;
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Compact and fsync the journal — graceful drain's final act, which
    /// also persists every in-memory recency touch and upgrades the file
    /// from kill-durable to power-durable. A no-op for in-memory caches.
    ///
    /// # Errors
    /// The staging write, rename, or fsync.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("cache map poisoned");
        if inner.writer.is_none() {
            return Ok(());
        }
        let path = self.path.as_deref().expect("writer implies path");
        compact_locked(&mut inner, path)?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        inner.writer.as_ref().expect("writer present").sync()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries inserted by this process (excludes recovered ones).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries evicted under the byte cap (including inserts refused
    /// because the entry alone would overflow it).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Online + drain compactions performed by this process (startup
    /// compaction at `open` is part of recovery, not counted here unless
    /// the cap forced an immediate re-compaction).
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Current journal file size in bytes (0 for in-memory caches) —
    /// tracked by the writer, not stat()ed.
    pub fn file_bytes(&self) -> u64 {
        let inner = self.inner.lock().expect("cache map poisoned");
        inner.writer.as_ref().map_or(0, JournalWriter::bytes_written)
    }

    /// Header plus exact record bytes of the resident entries — what the
    /// file would shrink to if compacted right now.
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().expect("cache map poisoned").live_bytes
    }

    /// The configured byte cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache map poisoned").entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What `open` found on disk (all-zero for in-memory caches).
    pub fn recovery(&self) -> CacheRecovery {
        self.recovery
    }
}

/// Evict least-recently-touched entries until live bytes are at or under
/// `target`. Returns how many were evicted.
fn evict_to(inner: &mut CacheInner, target: u64) -> u64 {
    let mut evicted = 0;
    while inner.live_bytes > target {
        let Some(victim) =
            inner.entries.iter().min_by_key(|(_, e)| e.epoch).map(|(k, _)| k.clone())
        else {
            break;
        };
        let e = inner.entries.remove(&victim).expect("victim resident");
        inner.live_bytes -= e.cost;
        evicted += 1;
    }
    evicted
}

/// Rewrite the journal from the live map — staged, fsynced, renamed —
/// and swap the writer to the new file. The caller holds the inner lock,
/// so no append can land between the snapshot and the rename.
fn compact_locked(inner: &mut CacheInner, path: &Path) -> io::Result<()> {
    let snapshot: BTreeMap<String, JournalEntry> = inner
        .entries
        .iter()
        .map(|(k, e)| {
            (
                k.clone(),
                JournalEntry {
                    function: k.clone(),
                    input_fp: fingerprint64(&e.body),
                    epoch: e.epoch,
                    body: e.body.clone(),
                },
            )
        })
        .collect();
    let w = JournalWriter::rewrite(path, CACHE_HEADER, &snapshot)?;
    // The fresh file holds exactly the live records: re-anchor the byte
    // accounting on the writer's count to squeeze out any drift.
    inner.live_bytes = w.bytes_written();
    inner.writer = Some(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("epre-serve-cache-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn keys_separate_config_from_content() {
        let k1 = ResultCache::key("cfg-a", "function f\n");
        let k2 = ResultCache::key("cfg-b", "function f\n");
        let k3 = ResultCache::key("cfg-a", "function g\n");
        assert_ne!(k1, k2, "same function under a different config is a different key");
        assert_ne!(k1, k3);
        assert_eq!(k1, ResultCache::key("cfg-a", "function f\n"), "keys are stable");
        assert_eq!(k1.len(), 16);
    }

    #[test]
    fn in_memory_cache_counts_hits_and_misses() {
        let c = ResultCache::in_memory();
        assert_eq!(c.lookup("k"), None);
        c.insert("k", "body\n").unwrap();
        assert_eq!(c.lookup("k").as_deref(), Some("body\n"));
        assert_eq!((c.hits(), c.misses(), c.inserts(), c.len()), (1, 1, 1, 1));
        assert!(!c.is_empty());
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("persist");
        let _ = fs::remove_file(&path);
        {
            let c = ResultCache::open(&path).unwrap();
            c.insert("aaaa", "function f()\nbody\n").unwrap();
            c.insert("bbbb", "function g()\nbody\n").unwrap();
        }
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.recovery().recovered, 2);
        assert!(!c.recovery().resumed_torn);
        assert_eq!(c.lookup("aaaa").as_deref(), Some("function f()\nbody\n"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_compacted() {
        let path = tmp("torn");
        let _ = fs::remove_file(&path);
        {
            let c = ResultCache::open(&path).unwrap();
            c.insert("aaaa", "kept body\n").unwrap();
            c.insert("bbbb", "to be torn\n").unwrap();
        }
        // Tear the file mid-final-record, as a kill would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert!(c.recovery().resumed_torn);
        assert_eq!(c.recovery().recovered, 1);
        assert_eq!(c.lookup("aaaa").as_deref(), Some("kept body\n"));
        assert_eq!(c.lookup("bbbb"), None, "the torn entry is gone");
        // Compaction rewrote the file clean: reopening sees no tear.
        drop(c);
        let c2 = ResultCache::open(&path).unwrap();
        assert!(!c2.recovery().resumed_torn);
        assert_eq!(c2.recovery().recovered, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn incompatible_header_is_discarded_not_fatal() {
        let path = tmp("incompat");
        fs::write(&path, "SOME-OTHER-FORMAT v9\njunk\n").unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert!(c.recovery().discarded_incompatible);
        assert_eq!(c.len(), 0);
        c.insert("aaaa", "body\n").unwrap();
        drop(c);
        let c2 = ResultCache::open(&path).unwrap();
        assert_eq!(c2.recovery().recovered, 1);
        assert!(!c2.recovery().discarded_incompatible);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn v1_cache_is_discarded() {
        let path = tmp("v1");
        {
            let c = ResultCache::open(&path).unwrap();
            c.insert("aaaa", "body\n").unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        let old = text.replacen(CACHE_HEADER, "EPRE-SERVE-CACHE v1", 1);
        assert_ne!(old, text);
        fs::write(&path, old).unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert!(c.recovery().discarded_incompatible);
        assert_eq!(c.recovery().recovered, 0);
        assert_eq!(c.lookup("aaaa"), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn zero_length_cache_file_opens_fresh() {
        let path = tmp("zero");
        fs::write(&path, "").unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.recovery(), CacheRecovery::default());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn eviction_prefers_least_recently_touched() {
        // Each record costs ~189 bytes (120-byte body); the 700-byte cap
        // holds three of them under its 613-byte eviction target. A
        // lookup touch must save an old entry while untouched peers die.
        let body_a = format!("a{}\n", "x".repeat(119));
        let body_fresh = format!("f{}\n", "x".repeat(119));
        let c = ResultCache::in_memory_capped(Some(700));
        c.insert("key-a", &body_a).unwrap();
        c.insert("key-b", &body_fresh).unwrap();
        c.insert("key-c", &body_fresh).unwrap();
        assert_eq!(c.lookup("key-a").as_deref(), Some(body_a.as_str()), "touch a");
        c.insert("key-d", &body_fresh).unwrap();
        c.insert("key-e", &body_fresh).unwrap();
        assert_eq!(c.evictions(), 2, "each filler insert evicts exactly one entry");
        assert!(
            c.lookup("key-b").is_none() && c.lookup("key-c").is_none(),
            "untouched oldest entries evicted first"
        );
        assert!(c.lookup("key-a").is_some(), "the touched entry survived");
        assert!(c.live_bytes() <= 700);
    }

    #[test]
    fn oversized_entry_is_refused_not_cached() {
        let c = ResultCache::in_memory_capped(Some(256));
        let huge = "x".repeat(512);
        c.insert("giant", &huge).unwrap();
        assert_eq!(c.lookup("giant"), None, "an entry that cannot fit is never resident");
        assert_eq!(c.evictions(), 1, "the refusal is counted");
        assert_eq!(c.inserts(), 0);
    }

    #[test]
    fn online_compaction_keeps_file_at_or_under_cap() {
        let path = tmp("online-compact");
        let _ = fs::remove_file(&path);
        let cap = 2048u64;
        let c = ResultCache::open_capped(&path, Some(cap)).unwrap();
        for i in 0..200 {
            c.insert(&format!("{i:016x}"), &format!("optimized body number {i}\n")).unwrap();
            assert!(
                c.file_bytes() <= cap,
                "file exceeded cap after insert {i}: {} > {cap}",
                c.file_bytes()
            );
            assert_eq!(fs::metadata(&path).unwrap().len(), c.file_bytes());
        }
        assert!(c.compactions() > 0, "sustained inserts must have compacted online");
        assert!(c.evictions() > 0);
        // The survivors are the most recent inserts, and a reopen agrees.
        let survivors = c.len();
        assert!(survivors > 0);
        drop(c);
        let c2 = ResultCache::open_capped(&path, Some(cap)).unwrap();
        assert_eq!(c2.len(), survivors);
        assert_eq!(c2.lookup("00000000000000c7").as_deref(), Some("optimized body number 199\n"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn recency_survives_restart_via_persisted_epochs() {
        let path = tmp("recency-restart");
        let _ = fs::remove_file(&path);
        let cap = 420u64;
        {
            let c = ResultCache::open_capped(&path, Some(cap)).unwrap();
            c.insert("key-old", "old body\n").unwrap();
            c.insert("key-mid", "mid body\n").unwrap();
            c.insert("key-hot", "hot body\n").unwrap();
            assert_eq!(c.lookup("key-old").as_deref(), Some("old body\n"), "touch old");
            // Persist the in-memory recency touches.
            c.flush().unwrap();
        }
        let c = ResultCache::open_capped(&path, Some(cap)).unwrap();
        // Evict one entry: the untouched key-mid must die before the
        // touched key-old, proving the epoch came back from disk.
        for i in 0..3 {
            c.insert(&format!("filler-{i}"), "filler body\n").unwrap();
        }
        assert!(c.evictions() > 0);
        assert!(c.lookup("key-old").is_some(), "touched entry survived the restart");
        assert!(c.lookup("key-mid").is_none(), "untouched entry evicted first");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn stale_compaction_staging_is_cleared_at_open() {
        let path = tmp("stale-staging");
        let _ = fs::remove_file(&path);
        {
            let c = ResultCache::open(&path).unwrap();
            c.insert("aaaa", "kept body\n").unwrap();
        }
        // Simulate a compaction killed between staging write and rename.
        let staging = epre_harness::rewrite_staging_path(&path);
        fs::write(&staging, "EPRE-SERVE-CACHE v1\ntorn half-written staging").unwrap();
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.recovery().recovered, 1, "the original file is authoritative");
        assert!(!staging.exists(), "stale staging sibling cleaned up");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flush_persists_and_fsyncs_without_data_loss() {
        let path = tmp("flush");
        let _ = fs::remove_file(&path);
        {
            let c = ResultCache::open(&path).unwrap();
            c.insert("aaaa", "body a\n").unwrap();
            c.insert("bbbb", "body b\n").unwrap();
            c.flush().unwrap();
            assert_eq!(c.compactions(), 1);
            assert_eq!(c.file_bytes(), c.live_bytes());
        }
        let c = ResultCache::open(&path).unwrap();
        assert_eq!(c.recovery().recovered, 2);
        let _ = fs::remove_file(&path);
    }
}
