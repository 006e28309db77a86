//! Content-addressed result cache with bounded size and LRU eviction.
//!
//! Results live as `<dir>/<key>.jsonl` where the key is the canonical spec
//! digest ([`crate::request`]), so the filesystem *is* the index: a restart
//! rescans the directory and seeds recency from file mtimes. Entries are
//! whole observable files written by [`psr_engine::atomic_put`], and
//! because a trajectory is a pure function of its spec, a hit returns bytes
//! identical to what a fresh run would produce — the bit-identity tests pin
//! this.
//!
//! The total footprint is bounded: inserting past `max_bytes` evicts
//! least-recently-used entries (never the one just inserted, so a single
//! oversized result still lands and ages out later).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::UNIX_EPOCH;

struct Entry {
    bytes: u64,
    /// Logical clock value of the last touch (larger = more recent).
    used: u64,
}

struct State {
    entries: HashMap<String, Entry>,
    clock: u64,
    total: u64,
}

/// The cache handle (thread-safe).
pub struct ResultCache {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<State>,
}

impl ResultCache {
    /// Open (creating if needed) the cache directory, rescanning existing
    /// entries and seeding recency from their mtimes. Only regular
    /// `<key>.jsonl` files are entries; a `<key>.tmp` left by a crash
    /// between write and rename is deleted, and an entry that vanishes
    /// mid-scan is skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the scan.
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(String, u64, u128)> = Vec::new();
        for e in std::fs::read_dir(dir)? {
            let e = e?;
            let meta = match e.metadata() {
                Ok(meta) if meta.is_file() => meta,
                Ok(_) => continue,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => continue,
                Err(err) => return Err(err),
            };
            let name = e.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(e.path());
                continue;
            }
            let Some(key) = name.strip_suffix(".jsonl") else {
                continue;
            };
            let mtime = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            found.push((key.to_owned(), meta.len(), mtime));
        }
        found.sort_by_key(|(_, _, mtime)| *mtime);
        let mut state = State {
            entries: HashMap::new(),
            clock: 0,
            total: 0,
        };
        for (key, bytes, _) in found {
            state.clock += 1;
            state.total += bytes;
            state.entries.insert(
                key,
                Entry {
                    bytes,
                    used: state.clock,
                },
            );
        }
        Ok(ResultCache {
            dir: dir.to_owned(),
            max_bytes,
            inner: Mutex::new(state),
        })
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.jsonl"))
    }

    /// Whether `key` is cached (does not touch recency).
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .expect("cache lock")
            .entries
            .contains_key(key)
    }

    /// The cached bytes for `key`, bumping its recency; `None` on a miss.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let mut state = self.inner.lock().expect("cache lock");
        if !state.entries.contains_key(key) {
            return None;
        }
        match std::fs::read(self.path(key)) {
            Ok(bytes) => {
                state.clock += 1;
                let clock = state.clock;
                state.entries.get_mut(key).expect("present").used = clock;
                Some(bytes)
            }
            Err(_) => {
                // The file vanished underneath us (manual deletion): drop
                // the index entry and report a miss.
                if let Some(e) = state.entries.remove(key) {
                    state.total -= e.bytes;
                }
                None
            }
        }
    }

    /// Insert (or replace) `key`, evicting LRU entries past `max_bytes`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn put(&self, key: &str, bytes: &[u8]) -> std::io::Result<()> {
        psr_engine::atomic_put(&self.path(key), bytes)?;
        let mut state = self.inner.lock().expect("cache lock");
        state.clock += 1;
        let clock = state.clock;
        if let Some(old) = state.entries.insert(
            key.to_owned(),
            Entry {
                bytes: bytes.len() as u64,
                used: clock,
            },
        ) {
            state.total -= old.bytes;
        }
        state.total += bytes.len() as u64;
        while state.total > self.max_bytes {
            let victim = state
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                break; // only the fresh insert remains; keep it
            };
            if let Some(e) = state.entries.remove(&victim) {
                state.total -= e.bytes;
            }
            let _ = std::fs::remove_file(self.path(&victim));
        }
        Ok(())
    }

    /// `(entry count, total bytes)` — for metrics and tests.
    pub fn stats(&self) -> (usize, u64) {
        let state = self.inner.lock().expect("cache lock");
        (state.entries.len(), state.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str, max_bytes: u64) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("psr_serve_cache_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir, max_bytes).expect("open")
    }

    #[test]
    fn put_get_roundtrip() {
        let cache = temp_cache("roundtrip", 1024);
        assert_eq!(cache.get("k"), None);
        cache.put("k", b"line1\nline2\n").expect("put");
        assert!(cache.contains("k"));
        assert_eq!(cache.get("k").as_deref(), Some(&b"line1\nline2\n"[..]));
        assert_eq!(cache.stats(), (1, 12));
    }

    #[test]
    fn lru_eviction_spares_recently_used() {
        let cache = temp_cache("lru", 25);
        cache.put("a", &[1u8; 10]).expect("a");
        cache.put("b", &[2u8; 10]).expect("b");
        assert!(cache.get("a").is_some()); // a is now more recent than b
        cache.put("c", &[3u8; 10]).expect("c"); // 30 > 25: evict LRU = b
        assert!(cache.contains("a"));
        assert!(!cache.contains("b"));
        assert!(cache.contains("c"));
        assert_eq!(cache.stats(), (2, 20));
    }

    #[test]
    fn oversized_insert_survives_alone() {
        let cache = temp_cache("oversized", 5);
        cache.put("big", &[0u8; 100]).expect("put");
        assert!(cache.contains("big"));
        cache.put("next", &[0u8; 100]).expect("put");
        assert!(!cache.contains("big"));
        assert!(cache.contains("next"));
    }

    #[test]
    fn restart_rescans_the_directory() {
        let dir = std::env::temp_dir().join("psr_serve_cache_rescan");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::open(&dir, 1024).expect("open");
            cache.put("persist", b"data\n").expect("put");
        }
        let reopened = ResultCache::open(&dir, 1024).expect("reopen");
        assert_eq!(reopened.get("persist").as_deref(), Some(&b"data\n"[..]));
        assert_eq!(reopened.stats(), (1, 5));
    }

    #[test]
    fn reopen_after_a_crash_indexes_regular_entries_only() {
        let dir = std::env::temp_dir().join("psr_serve_cache_crashed");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("subdir.jsonl")).expect("mkdir");
        std::fs::write(dir.join("subdir.jsonl/inner.jsonl"), [0u8; 64]).expect("inner");
        std::fs::write(dir.join("done.jsonl"), b"data\n").expect("entry");
        std::fs::write(dir.join("torn.tmp"), [0u8; 64]).expect("torn put");
        let cache = ResultCache::open(&dir, 1024).expect("open");
        assert_eq!(cache.stats(), (1, 5));
        assert_eq!(cache.get("done").as_deref(), Some(&b"data\n"[..]));
        assert!(!dir.join("torn.tmp").exists(), "orphaned temp file kept");
    }

    #[test]
    fn replacing_an_entry_updates_accounting() {
        let cache = temp_cache("replace", 1024);
        cache.put("k", &[0u8; 10]).expect("put");
        cache.put("k", &[0u8; 4]).expect("replace");
        assert_eq!(cache.stats(), (1, 4));
    }
}
