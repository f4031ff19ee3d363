//! A small multiplicative integer hasher for the per-access maps.
//!
//! The page-table entry maps and the frame store are looked up on every DSM
//! access and are keyed by page ids and line indices generated inside the
//! program, so they need neither SipHash's resistance to adversarial keys nor
//! its cost. This is the Fx mixing step used by rustc: rotate, xor, multiply
//! by an odd constant. The multiply only carries low key bits upwards, and
//! page ids that share a page-table shard share their low bits, so `finish`
//! rotates the well-mixed high bits down to where `HashMap` picks buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}
