//! Cache keys for dynamic-content results.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use swala_obs::keyhash::{key_hash, PrehashedState};

/// The identity of a cacheable dynamic request.
///
/// Swala keys results by the full request target — normalized path plus
/// raw query string — because a CGI's output is a function of exactly
/// those bytes (§4.1). Method is not part of the key: only GET results
/// are ever cached.
///
/// The string is reference-counted: keys are shared between the local
/// table, remote tables, in-flight broadcast messages, statistics and
/// the request's trace without copying. A key is hashed once, when it
/// is made, with the process's keyed hash ([`key_hash`]); every
/// `KeyMap` (the crate's tables keyed by cache key) it is looked up in
/// uses that hash as it is.
#[derive(Clone)]
pub struct CacheKey {
    text: Arc<str>,
    hash: u64,
}

/// A table indexed by cache key, hashing each key by the keyed hash it
/// carries.
pub(crate) type KeyMap<V> = HashMap<CacheKey, V, PrehashedState>;

impl CacheKey {
    /// Key from a canonical target string (`/cgi-bin/map?x=1`).
    pub fn new(target: impl AsRef<str>) -> Self {
        CacheKey::from_shared(Arc::from(target.as_ref()))
    }

    /// Key over text already shared (no copy).
    pub fn from_shared(text: Arc<str>) -> Self {
        CacheKey {
            hash: key_hash(&text),
            text,
        }
    }

    /// The canonical string.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The shared text, for holders that outlive the key (a trace).
    pub fn shared(&self) -> &Arc<str> {
        &self.text
    }

    /// The process's keyed hash of the text, computed once at creation.
    pub fn keyed_hash(&self) -> u64 {
        self.hash
    }

    /// Stable 64-bit hash used to derive on-disk file names.
    ///
    /// FNV-1a: tiny, stable across runs and platforms (unlike
    /// `DefaultHasher`, which is randomly seeded per process — file names
    /// must be reproducible so a node can rediscover its store).
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for CacheKey {
    fn partial_cmp(&self, other: &CacheKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CacheKey {
    fn cmp(&self, other: &CacheKey) -> Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CacheKey").field(&self.text).finish()
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for CacheKey {
    fn from(s: &str) -> Self {
        CacheKey::new(s)
    }
}

impl From<String> for CacheKey {
    fn from(s: String) -> Self {
        CacheKey::from_shared(Arc::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_by_content() {
        let a = CacheKey::new("/cgi-bin/map?x=1");
        let b = CacheKey::new(String::from("/cgi-bin/map?x=1"));
        assert_eq!(a, b);
        assert_ne!(a, CacheKey::new("/cgi-bin/map?x=2"));
    }

    #[test]
    fn usable_in_hash_set() {
        let mut s = HashSet::new();
        s.insert(CacheKey::new("/a"));
        s.insert(CacheKey::new("/a"));
        s.insert(CacheKey::new("/b"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stable_hash_is_stable_and_discriminating() {
        let a = CacheKey::new("/cgi-bin/adl?id=1");
        assert_eq!(
            a.stable_hash(),
            CacheKey::new("/cgi-bin/adl?id=1").stable_hash()
        );
        // FNV-1a of distinct short strings should differ.
        let hashes: HashSet<u64> = (0..1000)
            .map(|i| CacheKey::new(format!("/cgi-bin/adl?id={i}")).stable_hash())
            .collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(CacheKey::new("a").stable_hash(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn the_keyed_hash_is_computed_once_and_indexes_key_maps() {
        let text: Arc<str> = Arc::from("/cgi-bin/adl?id=1");
        let a = CacheKey::from_shared(Arc::clone(&text));
        assert!(Arc::ptr_eq(a.shared(), &text));
        assert_eq!(a.keyed_hash(), key_hash("/cgi-bin/adl?id=1"));
        assert_eq!(a, CacheKey::new("/cgi-bin/adl?id=1"));
        let mut map: KeyMap<u32> = KeyMap::default();
        for i in 0..1000 {
            map.insert(CacheKey::new(format!("/cgi-bin/adl?id={i}")), i);
        }
        assert_eq!(map.get(&a), Some(&1));
        assert_eq!(format!("{a:?}"), "CacheKey(\"/cgi-bin/adl?id=1\")");
        assert!(CacheKey::new("/a") < CacheKey::new("/b"));
    }

    #[test]
    fn clone_shares_allocation() {
        let a = CacheKey::new("/x");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str().as_ptr(), b.as_str().as_ptr()));
    }
}
