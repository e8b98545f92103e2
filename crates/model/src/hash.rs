//! One Fx-style hasher for the workspace's hot-path maps, and the one
//! lock for their sharded, process-wide forms.
//!
//! Keys are trace tensor ids, addresses, trace and timeline labels,
//! memo-serve tenant ids, and profile-cache and segment-cache keys the
//! program generated itself, so SipHash's protection against crafted
//! collisions buys nothing there, and a multiply-rotate hash is much
//! cheaper. Its neighbours: [`FxHashMap`], and [`lock_shard`], the
//! poison-recovering lock of every `Mutex`-guarded shard of a memo table
//! (`memo_core::cache::ProfileCache`, `memo_swap::SegmentCache`). Shard
//! selection should read the hash's high 32 bits: an Fx hash ends in a
//! multiply, so its low bits are the weakest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Minimal FxHash-style hasher. Not DoS-hardened: use it only for keys the
/// program generated (trace ids, simulated addresses, labels, cache keys).
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

    /// Folds whole 8-byte little-endian words, then the tail byte by byte,
    /// so a byte-slice key (a string, a `[u64; N]` fingerprint) costs one
    /// multiply per word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
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

/// Lock a memo-table shard, recovering from poisoning: a worker that
/// panicked while holding the lock may have left a half-updated map behind,
/// so the recovered shard is dropped wholesale — losing memoized entries,
/// never correctness (every entry is recomputable) — and the poison flag is
/// cleared so later locks are clean.
pub fn lock_shard<K, V>(shard: &Mutex<FxHashMap<K, V>>) -> MutexGuard<'_, FxHashMap<K, V>> {
    shard.lock().unwrap_or_else(|poisoned| {
        shard.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.clear();
        guard
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_folds_little_endian_words_then_tail_bytes() {
        let bytes: Vec<u8> = (0..29u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=bytes.len() {
            let slice = &bytes[..len];
            let mut by_slice = FxHasher::default();
            by_slice.write(slice);
            let mut by_word = FxHasher::default();
            let words = slice.chunks_exact(8);
            let tail = words.remainder();
            for w in words {
                by_word.write_u64(u64::from_le_bytes(w.try_into().unwrap()));
            }
            for &b in tail {
                by_word.write_u8(b);
            }
            assert_eq!(by_slice.finish(), by_word.finish(), "{len} bytes");
        }
    }
}
