//! The shared frontend parse cache.
//!
//! Batch and serve workloads hammer the compiler with *repeated* inputs
//! — the same generated kernel compiled to several backends, the same
//! file re-requested across serve connections. The cache keys each parse
//! by `(frontend fingerprint, content digest)` and stores the parsed
//! program itself: `Context` is `Send + Sync`, so one parse is shared by
//! every worker, and a hit costs one `Context::clone` instead of a
//! frontend run.
//!
//! Lookups are single-flight: each key owns a slot, the first caller
//! parses while holding it, and identical jobs arriving meanwhile wait
//! for that result instead of parsing again.

use calyx_core::ir::Context;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The cache shares parsed programs across worker threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Context>();
};

/// FNV-1a 64-bit digest of `bytes` — the cache's content key. Stable
/// across runs and platforms (no randomized hasher), cheap, and
/// collision-resistant enough for a cache whose worst case is a spurious
/// miss... which cannot happen either: a digest collision would serve
/// the wrong program, so the full fingerprint keeps the frontend name
/// and options alongside it and entries are only shared for equal
/// digests *and* equal fingerprints.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Running hit/miss counters, readable while workers are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the frontend.
    pub misses: u64,
}

/// One key's entry: empty until a parse of that key succeeds.
type Slot = Arc<Mutex<Option<Arc<Context>>>>;

/// A thread-safe map from `(frontend fingerprint, source digest)` to the
/// parsed program.
#[derive(Debug, Default)]
pub struct ParseCache {
    map: Mutex<HashMap<(String, u64), Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ParseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key's frontend half: the frontend's name plus its
    /// canonicalized options (sorted by key, last occurrence winning —
    /// matching `FrontendOpts` lookup semantics), so `n=8,kernel=gemm`
    /// and `kernel=gemm,n=8` share an entry while `n=8` and `n=16` do
    /// not.
    pub fn fingerprint(frontend: &str, fopts: &[(String, String)]) -> String {
        let mut last: Vec<(&str, &str)> = Vec::new();
        for (k, v) in fopts {
            match last.iter_mut().find(|(lk, _)| *lk == k) {
                Some(slot) => slot.1 = v,
                None => last.push((k, v)),
            }
        }
        last.sort_unstable_by_key(|(k, _)| *k);
        let mut fp = String::from(frontend);
        for (k, v) in last {
            // `\x1f` (unit separator) cannot appear in flag text parsed
            // from `key=value`, so the fingerprint is injective.
            fp.push('\x1f');
            fp.push_str(k);
            fp.push('\x1f');
            fp.push_str(v);
        }
        fp
    }

    /// The program parsed for `(fingerprint, digest)`, running `parse`
    /// on a miss. The second component is `true` for a hit.
    ///
    /// A caller that finds another parse of the same key in flight waits
    /// for it and counts as a hit. A failed parse caches nothing, so the
    /// next identical lookup is a miss that parses again.
    ///
    /// # Errors
    ///
    /// Returns `parse`'s error.
    pub fn get_or_parse<E>(
        &self,
        fingerprint: &str,
        digest: u64,
        parse: impl FnOnce() -> Result<Context, E>,
    ) -> Result<(Context, bool), E> {
        let slot = Arc::clone(
            self.map
                .lock()
                .entry((fingerprint.to_string(), digest))
                .or_default(),
        );
        let mut entry = slot.lock();
        if let Some(parsed) = entry.clone() {
            drop(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Context::clone(&parsed), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The slot is written only after a successful parse, so a parse
        // that fails — or panics, poisoning the lock — leaves it empty.
        let parsed = Arc::new(parse()?);
        *entry = Some(Arc::clone(&parsed));
        drop(entry);
        Ok((Context::clone(&parsed), false))
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Pinned FNV-1a test vector: an accidental algorithm change
        // would silently invalidate every cross-run expectation.
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest64(b"component a"), digest64(b"component b"));
    }

    #[test]
    fn fingerprint_canonicalizes_options() {
        let a = ParseCache::fingerprint(
            "polybench",
            &[("n".into(), "8".into()), ("kernel".into(), "gemm".into())],
        );
        let b = ParseCache::fingerprint(
            "polybench",
            &[("kernel".into(), "gemm".into()), ("n".into(), "8".into())],
        );
        assert_eq!(a, b);

        // Last occurrence wins, as in FrontendOpts::get.
        let c = ParseCache::fingerprint(
            "polybench",
            &[
                ("n".into(), "4".into()),
                ("kernel".into(), "gemm".into()),
                ("n".into(), "8".into()),
            ],
        );
        assert_eq!(a, c);

        // Different values and different frontends are distinct keys.
        assert_ne!(
            a,
            ParseCache::fingerprint("polybench", &[("kernel".into(), "gemm".into())])
        );
        assert_ne!(a, ParseCache::fingerprint("systolic", &[]));
    }

    #[test]
    fn get_or_parse_counts_hits_and_misses() {
        let cache = ParseCache::new();
        let fp = ParseCache::fingerprint("calyx", &[]);
        let src = "component main() -> () { cells {} wires {} control {} }";
        let d = digest64(src.as_bytes());
        let parse = || calyx_core::ir::parse_context(src);
        let (first, hit) = cache.get_or_parse(&fp, d, parse).unwrap();
        assert!(!hit);
        let (again, hit) = cache
            .get_or_parse(&fp, d, || -> Result<Context, ()> {
                unreachable!("a hit never parses")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(
            calyx_core::ir::Printer::print_context(&again),
            calyx_core::ir::Printer::print_context(&first)
        );
        // Same digest under another fingerprint is a separate entry.
        assert!(!cache.get_or_parse("other", d, parse).unwrap().1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn failed_parses_are_not_cached() {
        let cache = ParseCache::new();
        for _ in 0..2 {
            let err = cache
                .get_or_parse("calyx", 7, || Err("bad input"))
                .unwrap_err();
            assert_eq!(err, "bad input");
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }
}
