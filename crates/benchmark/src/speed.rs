//! Machine speed, measured between ops by a fixed reference kernel.
//!
//! The shared 2-vCPU guests this benchmark runs on switch between a fast
//! and a slow mode every second or so, as other guests come and go; the
//! slow mode takes up to 1.75× as long. A 20-second run spends a random
//! share of its time in each mode, and runs of the same commit then spread
//! wider than any useful bound. The reference kernel sorts, heap-selects
//! and hash-aggregates pairs, the operations the planners spend their time
//! in, so it slows down with them. It is short (about 4 ms) and sampled
//! every [`EVERY_SECS`], so that each round is scaled by the mode it ran
//! in: a 27 ms kernel sampled every 0.5 s straddled mode switches and
//! could not resolve `fleet-mixed`'s 70 ms rounds (see the README).
//!
//! Every timing is scaled by [`NOMINAL_SECS`] over the kernel's time
//! around it, so the end-to-end metrics read as times on a machine where
//! the kernel takes [`NOMINAL_SECS`]. The kernel is the benchmark's own
//! code and allocates nothing after construction, so no change to the
//! library moves it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's median time on the baseline machine (see the README).
pub const NOMINAL_SECS: f64 = 0.0039;

/// Time between two kernel samples. Samples are taken between ops, so ops
/// shorter than this share one; longer ones get one on each side.
pub const EVERY_SECS: f64 = 0.1;

const PAIRS: usize = 60_000;
/// Pairs fed to the heap and to the hash map.
const PREFIX: usize = PAIRS / 3;
const HEAP_KEEP: usize = 512;
const GROUPS: u64 = 1 << 14;

/// The reference kernel and its buffers, allocated once.
pub struct Kernel {
    pairs: Vec<(u64, u64)>,
    heap: BinaryHeap<Reverse<u64>>,
    // A fixed-key hasher, so every run hashes alike.
    sums: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            pairs: vec![(0, 0); PAIRS],
            heap: BinaryHeap::with_capacity(HEAP_KEEP + 1),
            sums: HashMap::with_capacity_and_hasher(GROUPS as usize, Default::default()),
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").finish_non_exhaustive()
    }
}

impl Kernel {
    /// Run the kernel once on the same inputs; its duration in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for (i, p) in self.pairs.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = (x >> 40, i as u64);
        }
        self.pairs.sort_unstable();
        self.heap.clear();
        self.sums.clear();
        for &(a, b) in &self.pairs[..PREFIX] {
            self.heap.push(Reverse(a ^ b));
            if self.heap.len() > HEAP_KEEP {
                self.heap.pop();
            }
            *self.sums.entry(a % GROUPS).or_insert(0) += b;
        }
        std::hint::black_box((self.heap.peek(), self.sums.len()));
        t0.elapsed().as_secs_f64()
    }
}

/// The kernel samples of one run.
#[derive(Debug)]
pub struct Speed {
    kernel: Kernel,
    origin: Instant,
    /// (when the sample ended, kernel seconds), both in seconds since the
    /// run started.
    pub samples: Vec<(f64, f64)>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed {
            kernel: Kernel::default(),
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Speed {
    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn sample(&mut self) {
        let secs = self.kernel.time();
        self.samples.push((self.now(), secs));
    }

    /// Take a sample if [`EVERY_SECS`] have passed since the last one.
    pub fn sample_if_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|s| self.now() - s.0 >= EVERY_SECS)
        {
            self.sample();
        }
    }

    /// Machine speed over `[start, end]` (seconds since the run started):
    /// [`NOMINAL_SECS`] over the mean kernel time of the samples taken in
    /// that interval, the last one before it and the first one after it.
    pub fn factor(&self, start: f64, end: f64) -> f64 {
        assert!(!self.samples.is_empty(), "no kernel sample was taken");
        let first = self.samples.iter().rposition(|s| s.0 <= start);
        let last = self.samples.iter().position(|s| s.0 >= end);
        let window = &self.samples[first.unwrap_or(0)..=last.unwrap_or(self.samples.len() - 1)];
        let mean = window.iter().map(|s| s.1).sum::<f64>() / window.len() as f64;
        NOMINAL_SECS / mean
    }
}
