//! One Fx-style integer hasher for the workspace's hot-path maps.
//!
//! Keys are trace tensor ids and addresses the simulation generated
//! itself, so SipHash's protection against crafted collisions buys
//! nothing there, and a multiply-rotate hash is much cheaper.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimal FxHash-style integer hasher. Not DoS-hardened: use it only for
/// keys the program generated (trace ids, simulated addresses).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
