//! The optimizer's interning hasher: a seeded multiply-mix [`Hasher`].
//!
//! The passes intern small keys (expression keys, register numbers,
//! partition signatures) in hash maps on their hot paths, where std's
//! SipHash-1-3 costs more than the rest of a probe. [`MixState`] builds a
//! hasher that folds each written word into its state with one 64×64→128
//! multiply, whose high and low halves are xored together.
//!
//! `epre serve` optimizes modules its clients write, so the keys are not
//! the program's own: every process draws one seed from std's
//! [`RandomState`] the first time it hashes, and a client cannot pick keys
//! that collide without knowing it. The seed differs between processes, so
//! a map's iteration order may too: use [`MixMap`] only for maps whose
//! iteration order never reaches output.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// Odd multiplier of the mixing step (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A `HashMap` hashed by [`MixHasher`].
pub type MixMap<K, V> = HashMap<K, V, MixState>;

/// Builds [`MixHasher`]s from this process's seed.
#[derive(Clone, Copy, Debug)]
pub struct MixState {
    seed: u64,
}

impl Default for MixState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(MULTIPLIER));
        MixState { seed }
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher { state: self.seed }
    }
}

/// A seeded multiply-mix hasher; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct MixHasher {
    state: u64,
}

impl MixHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("eight-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps a short tail apart from its zero padding.
            self.mix(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(state: &MixState, v: impl std::hash::Hash) -> u64 {
        state.hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_under_one_process_seed() {
        let (a, b) = (MixState::default(), MixState::default());
        assert_eq!(hash_of(&a, (1u32, 2u32, 3u32)), hash_of(&b, (1u32, 2u32, 3u32)));
        assert_eq!(hash_of(&a, vec![7u32, 8, 9]), hash_of(&a, vec![7u32, 8, 9]));
    }

    #[test]
    fn nearby_keys_spread_over_the_table() {
        // hashbrown takes the bucket from the low bits and a tag from the
        // top seven: both must vary across dense small keys.
        let s = MixState::default();
        let low: std::collections::HashSet<u64> =
            (0u32..1024).map(|i| hash_of(&s, i) & 1023).collect();
        let high: std::collections::HashSet<u64> =
            (0u32..1024).map(|i| hash_of(&s, i) >> 57).collect();
        assert!(low.len() > 500, "{} distinct low buckets", low.len());
        assert!(high.len() > 100, "{} distinct tags", high.len());
    }

    #[test]
    fn byte_tails_differ_from_their_padding() {
        let s = MixState::default();
        assert_ne!(hash_of(&s, [1u8, 0]), hash_of(&s, [1u8]));
        assert_ne!(hash_of(&s, vec![0u32]), hash_of(&s, vec![0u32, 0]));
        let mut m: MixMap<Vec<u32>, u32> = MixMap::default();
        m.insert(vec![1, 2], 0);
        assert_eq!(m.get([1u32, 2].as_slice()), Some(&0));
    }
}
