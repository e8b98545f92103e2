//! Block-paged KV-cache allocator (vLLM-style PagedAttention memory).
//!
//! The serving-side mirror of the paper's Figure 1(a) story: a caching
//! allocator serving the decode-phase KV realloc pattern fragments until
//! reorganisation stalls cap concurrency, while paging sidesteps
//! fragmentation entirely. Device KV memory is carved into fixed-size
//! pages; each sequence owns a *page table* (ordered page list) and
//! appends tokens by filling its last page, taking a fresh page only on
//! overflow — O(1) amortised append and release, zero external
//! fragmentation, waste bounded by one page per sequence.
//!
//! Two implementations share one observable contract (PR-4 pattern):
//!
//! * [`PagedKvAllocator`] — the fast path: a two-level free bitmap
//!   (u64 words + a summary word per 64 words) finds the lowest free
//!   page id in O(1) word scans.
//! * [`PagedKvReference`] — the oracle: a naive `Vec<bool>` linear scan
//!   with counters recomputed from scratch.
//!
//! The contract is *lowest-free-page-id* allocation, so page tables are
//! a pure function of the operation sequence and [`PagedSnapshot`]s must
//! be bit-identical between the two. The decode-trace cells of the root
//! `tests/serving_kv.rs` and the proptest differential
//! (`tests/paged_differential.rs`) hold them in lockstep.

/// Why an operation was refused. Appends are atomic: if the tail of a
/// multi-page append would not fit, no page is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagedError {
    /// Not enough free pages for the requested growth.
    OutOfPages {
        requested_pages: u64,
        free_pages: u64,
    },
    /// Sequence id already admitted / not admitted.
    SequenceExists(u32),
    UnknownSequence(u32),
}

impl std::fmt::Display for PagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedError::OutOfPages {
                requested_pages,
                free_pages,
            } => write!(
                f,
                "out of KV pages: need {requested_pages}, {free_pages} free"
            ),
            PagedError::SequenceExists(s) => write!(f, "sequence {s} already admitted"),
            PagedError::UnknownSequence(s) => write!(f, "sequence {s} not admitted"),
        }
    }
}

impl std::error::Error for PagedError {}

/// Cumulative counters, part of the parity surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedStats {
    page_allocs: u64,
    page_frees: u64,
    appends: u64,
    pub failed_appends: u64,
    peak_pages_in_use: u64,
}

/// One sequence's KV state: its ordered page table and bytes held.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeqKv {
    pages: Vec<u32>,
    pub bytes: u64,
}

/// The full observable state, ordered and `Eq` so the fast path and the
/// reference can be compared bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedSnapshot {
    /// `(seq, page table, bytes)` sorted by sequence id.
    sequences: Vec<(u32, SeqKv)>,
    free_pages: u64,
    pages_in_use: u64,
    stats: PagedStats,
}

fn pages_for(bytes: u64, page_bytes: u64) -> u64 {
    bytes.div_ceil(page_bytes)
}

// ---------------------------------------------------------------------------
// Fast path: two-level bitmap
// ---------------------------------------------------------------------------

/// The two-level free bitmap of [`PagedKvAllocator`].
///
/// Level 0 is one bit per page (`1` = free); level 1 summarises each u64
/// word (`1` = word has a free page). `low` is a summary word at or below
/// the lowest nonzero one, so the scan for the lowest free page starts
/// there instead of at word 0.
#[derive(Debug, Clone)]
struct FreeBits {
    words: Vec<u64>,
    summary: Vec<u64>,
    low: usize,
}

impl FreeBits {
    /// All of `n_pages` free.
    fn new(n_pages: u64) -> Self {
        let n_words = (n_pages as usize).div_ceil(64);
        let mut words = vec![u64::MAX; n_words];
        // Clear the bits past n_pages in the last word.
        let tail = n_pages as usize % 64;
        if tail != 0 {
            words[n_words - 1] = (1u64 << tail) - 1;
        }
        let mut summary = vec![0u64; n_words.div_ceil(64)];
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                summary[i / 64] |= 1 << (i % 64);
            }
        }
        FreeBits {
            words,
            summary,
            low: 0,
        }
    }

    /// Take the lowest free page id; the caller guarantees one is free.
    #[inline]
    fn take_lowest(&mut self) -> u32 {
        let mut si = self.low;
        while self.summary[si] == 0 {
            si += 1;
        }
        self.low = si;
        let wi = si * 64 + self.summary[si].trailing_zeros() as usize;
        let bit = self.words[wi].trailing_zeros() as usize;
        self.words[wi] &= !(1u64 << bit);
        if self.words[wi] == 0 {
            self.summary[si] &= !(1u64 << (wi % 64));
        }
        (wi * 64 + bit) as u32
    }

    fn give_back(&mut self, page: u32) {
        let wi = page as usize / 64;
        let bit = page as usize % 64;
        debug_assert_eq!(self.words[wi] & (1 << bit), 0, "double free of page {page}");
        self.words[wi] |= 1 << bit;
        self.summary[wi / 64] |= 1 << (wi % 64);
        self.low = self.low.min(wi / 64);
    }
}

/// Fixed-size-page KV allocator with a two-level free bitmap.
///
/// Finding the lowest free page id is two `trailing_zeros` calls over the
/// summary words, starting at the lowest nonzero one — constant in
/// practice.
#[derive(Debug, Clone)]
pub struct PagedKvAllocator {
    page_bytes: u64,
    n_pages: u64,
    bits: FreeBits,
    free: u64,
    seqs: Vec<Option<SeqKv>>,
    stats: PagedStats,
}

impl PagedKvAllocator {
    pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        let n_pages = capacity_bytes / page_bytes;
        assert!(n_pages > 0, "capacity below one page");
        assert!(n_pages <= u32::MAX as u64, "page ids are u32");
        PagedKvAllocator {
            page_bytes,
            n_pages,
            bits: FreeBits::new(n_pages),
            free: n_pages,
            seqs: Vec::new(),
            stats: PagedStats::default(),
        }
    }

    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    pub fn total_pages(&self) -> u64 {
        self.n_pages
    }

    pub fn free_pages(&self) -> u64 {
        self.free
    }

    pub fn pages_in_use(&self) -> u64 {
        self.n_pages - self.free
    }

    pub fn stats(&self) -> PagedStats {
        self.stats
    }

    /// Admit a new sequence with an empty page table.
    pub fn admit(&mut self, seq: u32) -> Result<(), PagedError> {
        if self.seqs.len() <= seq as usize {
            self.seqs.resize(seq as usize + 1, None);
        }
        if self.seqs[seq as usize].is_some() {
            return Err(PagedError::SequenceExists(seq));
        }
        self.seqs[seq as usize] = Some(SeqKv {
            pages: Vec::new(),
            bytes: 0,
        });
        Ok(())
    }

    /// Append `bytes` of KV to `seq`: fill the tail page, then take the
    /// lowest free pages for the overflow. Atomic — on `OutOfPages`
    /// nothing changes.
    pub fn append_bytes(&mut self, seq: u32, bytes: u64) -> Result<(), PagedError> {
        let page_bytes = self.page_bytes;
        let kv = self
            .seqs
            .get_mut(seq as usize)
            .and_then(Option::as_mut)
            .ok_or(PagedError::UnknownSequence(seq))?;
        // An append that fits the held pages (most decode steps) needs no
        // division.
        let (total, held) = (kv.bytes + bytes, kv.pages.len() as u64);
        let need = if total <= held * page_bytes {
            0
        } else {
            pages_for(total, page_bytes) - held
        };
        if need > self.free {
            self.stats.failed_appends += 1;
            return Err(PagedError::OutOfPages {
                requested_pages: need,
                free_pages: self.free,
            });
        }
        for _ in 0..need {
            kv.pages.push(self.bits.take_lowest());
        }
        kv.bytes += bytes;
        // Pages in use only grow during the loop, so its end is its peak.
        self.free -= need;
        self.stats.page_allocs += need;
        self.stats.peak_pages_in_use = self.stats.peak_pages_in_use.max(self.pages_in_use());
        self.stats.appends += 1;
        Ok(())
    }

    /// Release all of `seq`'s pages (departure). O(pages held).
    pub fn release(&mut self, seq: u32) -> Result<(), PagedError> {
        let kv = self
            .seqs
            .get_mut(seq as usize)
            .and_then(|s| s.take())
            .ok_or(PagedError::UnknownSequence(seq))?;
        for &page in &kv.pages {
            self.bits.give_back(page);
        }
        self.free += kv.pages.len() as u64;
        self.stats.page_frees += kv.pages.len() as u64;
        Ok(())
    }

    pub fn snapshot(&self) -> PagedSnapshot {
        let sequences = self
            .seqs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|kv| (i as u32, kv.clone())))
            .collect();
        PagedSnapshot {
            sequences,
            free_pages: self.free,
            pages_in_use: self.pages_in_use(),
            stats: self.stats,
        }
    }
}

// ---------------------------------------------------------------------------
// Reference: naive linear scan
// ---------------------------------------------------------------------------

/// The deliberately-simple oracle: `Vec<bool>` free map, linear scans,
/// counters recomputed where possible. Same observable contract as
/// [`PagedKvAllocator`]; any snapshot divergence is a fast-path bug.
#[derive(Debug, Clone)]
pub struct PagedKvReference {
    page_bytes: u64,
    free_map: Vec<bool>,
    seqs: Vec<Option<SeqKv>>,
    stats: PagedStats,
}

impl PagedKvReference {
    pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
        assert!(page_bytes > 0);
        let n_pages = (capacity_bytes / page_bytes) as usize;
        assert!(n_pages > 0);
        PagedKvReference {
            page_bytes,
            free_map: vec![true; n_pages],
            seqs: Vec::new(),
            stats: PagedStats::default(),
        }
    }

    /// Free-page count by linear scan (intentionally not a counter —
    /// the fast path's bookkeeping is checked against this).
    pub fn free_pages(&self) -> u64 {
        self.free_map.iter().filter(|&&f| f).count() as u64
    }

    pub fn pages_in_use(&self) -> u64 {
        self.free_map.len() as u64 - self.free_pages()
    }

    pub fn admit(&mut self, seq: u32) -> Result<(), PagedError> {
        if self.seqs.len() <= seq as usize {
            self.seqs.resize(seq as usize + 1, None);
        }
        if self.seqs[seq as usize].is_some() {
            return Err(PagedError::SequenceExists(seq));
        }
        self.seqs[seq as usize] = Some(SeqKv {
            pages: Vec::new(),
            bytes: 0,
        });
        Ok(())
    }

    pub fn append_bytes(&mut self, seq: u32, bytes: u64) -> Result<(), PagedError> {
        let page_bytes = self.page_bytes;
        let kv = self
            .seqs
            .get(seq as usize)
            .and_then(|s| s.as_ref())
            .ok_or(PagedError::UnknownSequence(seq))?;
        let held = kv.pages.len() as u64;
        let need = pages_for(kv.bytes + bytes, page_bytes).saturating_sub(held);
        if need > self.free_pages() {
            self.stats.failed_appends += 1;
            return Err(PagedError::OutOfPages {
                requested_pages: need,
                free_pages: self.free_pages(),
            });
        }
        let mut fresh = Vec::with_capacity(need as usize);
        let mut scan = 0usize;
        for _ in 0..need {
            while !self.free_map[scan] {
                scan += 1;
            }
            self.free_map[scan] = false;
            self.stats.page_allocs += 1;
            self.stats.peak_pages_in_use = self.stats.peak_pages_in_use.max(self.pages_in_use());
            fresh.push(scan as u32);
        }
        let kv = self.seqs[seq as usize].as_mut().unwrap();
        kv.pages.extend(fresh);
        kv.bytes += bytes;
        self.stats.appends += 1;
        Ok(())
    }

    pub fn release(&mut self, seq: u32) -> Result<(), PagedError> {
        let kv = self
            .seqs
            .get_mut(seq as usize)
            .and_then(|s| s.take())
            .ok_or(PagedError::UnknownSequence(seq))?;
        for page in kv.pages {
            assert!(!self.free_map[page as usize], "double free of page {page}");
            self.free_map[page as usize] = true;
            self.stats.page_frees += 1;
        }
        Ok(())
    }

    pub fn snapshot(&self) -> PagedSnapshot {
        let sequences = self
            .seqs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|kv| (i as u32, kv.clone())))
            .collect();
        PagedSnapshot {
            sequences,
            free_pages: self.free_pages(),
            pages_in_use: self.pages_in_use(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_page_id_contract() {
        let mut a = PagedKvAllocator::new(10 * 64, 64);
        a.admit(0).unwrap();
        a.admit(1).unwrap();
        a.append_bytes(0, 64 * 3).unwrap(); // pages 0,1,2
        a.append_bytes(1, 64).unwrap(); // page 3
        a.release(0).unwrap(); // frees 0,1,2
        a.admit(2).unwrap();
        a.append_bytes(2, 64 * 2).unwrap(); // must take 0,1 (lowest)
        let snap = a.snapshot();
        let (_, kv2) = &snap.sequences[1];
        assert_eq!(kv2.pages, vec![0, 1]);
    }

    #[test]
    fn append_fills_tail_page_before_taking_new() {
        let mut a = PagedKvAllocator::new(4 * 1024, 1024);
        a.admit(0).unwrap();
        a.append_bytes(0, 100).unwrap(); // page 0, 100/1024 used
        a.append_bytes(0, 900).unwrap(); // still fits in page 0
        assert_eq!(a.pages_in_use(), 1);
        a.append_bytes(0, 100).unwrap(); // overflows into page 1
        assert_eq!(a.pages_in_use(), 2);
    }

    #[test]
    fn oom_append_is_atomic() {
        let mut a = PagedKvAllocator::new(2 * 64, 64);
        a.admit(0).unwrap();
        a.append_bytes(0, 64).unwrap();
        let before = a.snapshot();
        let err = a.append_bytes(0, 64 * 5).unwrap_err();
        assert!(matches!(
            err,
            PagedError::OutOfPages {
                requested_pages: 5,
                free_pages: 1
            }
        ));
        let mut after = a.snapshot();
        // Only the failed-append counter may move.
        assert_eq!(after.stats.failed_appends, 1);
        after.stats.failed_appends = 0;
        assert_eq!(before, after);
    }

    #[test]
    fn fast_path_matches_reference_on_a_hand_script() {
        let mut fast = PagedKvAllocator::new(64 * 256, 256);
        let mut refr = PagedKvReference::new(64 * 256, 256);
        let script: &[(u8, u32, u64)] = &[
            (0, 0, 0),
            (1, 0, 1000),
            (0, 1, 0),
            (1, 1, 5000),
            (1, 0, 300),
            (2, 0, 0),
            (0, 2, 0),
            (1, 2, 256 * 60), // near capacity
            (1, 1, 256 * 10), // OOM
            (2, 1, 0),
            (2, 2, 0),
        ];
        for &(op, seq, bytes) in script {
            let (a, b) = match op {
                0 => (fast.admit(seq), refr.admit(seq)),
                1 => (fast.append_bytes(seq, bytes), refr.append_bytes(seq, bytes)),
                _ => (fast.release(seq), refr.release(seq)),
            };
            assert_eq!(a, b);
            assert_eq!(fast.snapshot(), refr.snapshot());
        }
        assert_eq!(fast.free_pages(), 64);
    }

    #[test]
    fn bitmap_handles_word_boundaries() {
        // 130 pages: 3 level-0 words, tail word partially populated.
        let mut a = PagedKvAllocator::new(130 * 16, 16);
        a.admit(0).unwrap();
        a.append_bytes(0, 130 * 16).unwrap();
        assert_eq!(a.free_pages(), 0);
        assert!(a.append_bytes(0, 1).is_err());
        a.release(0).unwrap();
        assert_eq!(a.free_pages(), 130);
        let s = a.stats();
        assert_eq!(s.page_allocs, 130);
        assert_eq!(s.page_frees, 130);
        assert_eq!(s.peak_pages_in_use, 130);
    }
}
