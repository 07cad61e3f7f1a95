//! A minimal deterministic multiply-rotate hasher (the FxHash construction
//! used by rustc) for the simulator's hot hash maps.
//!
//! `SipHash`, the standard library default, costs more than the rest of the
//! forwarding path for per-flit bookkeeping.  The simulator's map keys are
//! tiny ((coordinate, port) pairs, node and message ids) and all inputs are
//! trusted simulation state, so a fast non-cryptographic hash is the right
//! trade-off.  The hasher is fully
//! deterministic (no per-process random seed), which also keeps map iteration
//! order reproducible from run to run — though every consumer that needs an
//! order still sorts explicitly.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx construction (a 64-bit odd constant derived from
/// the golden ratio, as used by Firefox and rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: `state = (rotl5(state) ^ word) * SEED`.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic slice path (string keys etc.) — not on any hot path here.
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.add(value as u64);
        self.add((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn write_i8(&mut self, value: i8) {
        self.add(value as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, value: i16) {
        self.add(value as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, value: i32) {
        self.add(value as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, value: i64) {
        self.add(value as u64);
    }

    #[inline]
    fn write_isize(&mut self, value: isize) {
        self.add(value as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_across_instances() {
        let hash = |value: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(value);
            hasher.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: HashMap<(u16, u16), u64, FxBuildHasher> = HashMap::default();
        for x in 0..50u16 {
            map.insert((x, x.wrapping_mul(3)), u64::from(x));
        }
        assert_eq!(map.len(), 50);
        for x in 0..50u16 {
            assert_eq!(map.get(&(x, x.wrapping_mul(3))), Some(&u64::from(x)));
        }
    }

    #[test]
    fn bytes_and_words_feed_the_state() {
        let mut a = FxHasher::default();
        a.write(b"wnoc");
        let mut b = FxHasher::default();
        b.write(b"wnoC");
        assert_ne!(a.finish(), b.finish());
    }
}
