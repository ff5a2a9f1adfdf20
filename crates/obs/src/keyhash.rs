//! One keyed hash per request key.
//!
//! Cache keys are request targets: a client chooses their bytes, so a
//! table indexed by an unkeyed hash of them could be flooded with keys
//! that all land in one bucket. [`key_hash`] is SipHash under keys drawn
//! at random once per process, and a key is hashed once, when it is
//! made: the tables it is looked up in ([`PrehashedState`] maps) take
//! that `u64` as it is instead of hashing the text again.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// The process's keyed hash of `key`.
pub fn key_hash(key: &str) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(key)
}

/// A hasher for keys that arrive already hashed by [`key_hash`]: it
/// passes their one `u64` through.
#[derive(Default, Clone, Copy)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a prehashed key hashes as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// `HashMap` state for keys whose `Hash` writes their [`key_hash`].
pub type PrehashedState = BuildHasherDefault<Prehashed>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn the_hash_is_stable_within_a_process_and_discriminating() {
        assert_eq!(key_hash("/cgi-bin/adl?id=1"), key_hash("/cgi-bin/adl?id=1"));
        let distinct: std::collections::HashSet<u64> = (0..10_000)
            .map(|i| key_hash(&format!("/cgi-bin/adl?id={i}")))
            .collect();
        assert_eq!(distinct.len(), 10_000);
    }

    #[test]
    fn a_prehashed_map_indexes_by_the_given_hash() {
        let mut map: HashMap<u64, &str, PrehashedState> = HashMap::default();
        for i in 0..100u64 {
            map.insert(key_hash(&i.to_string()), "x");
        }
        assert_eq!(map.len(), 100);
        assert!(map.contains_key(&key_hash("42")));
    }
}
