//! Host (CPU DRAM) staging area for offloaded activations.
//!
//! Tracks per-GPU host memory used by staged skeletal activations and
//! reports OOHM — the `X_oohm` outcome in Tables 3 and 4 — when the staged
//! bytes would exceed the GPU's share of node DRAM.

/// Out-of-host-memory failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutOfHostMemory {
    pub(crate) requested: u64,
    pub(crate) used: u64,
    pub(crate) capacity: u64,
}

impl std::fmt::Display for OutOfHostMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host memory exhausted: staging {} bytes with {}/{} used",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for OutOfHostMemory {}

/// A simple reserve/release capacity tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HostStaging {
    capacity: u64,
    used: u64,
    peak: u64,
}

impl HostStaging {
    pub(crate) fn new(capacity: u64) -> Self {
        HostStaging {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// An effectively unlimited tracker for tests, benches and models that
    /// only want the peak accounting: the capacity is `u64::MAX / 2`.
    pub(crate) fn unbounded() -> Self {
        HostStaging::new(u64::MAX / 2)
    }

    /// Stage `bytes` on the host (an offload landing). A sum past
    /// `u64::MAX` exceeds every capacity, so it is refused like any other
    /// overflow.
    pub(crate) fn reserve(&mut self, bytes: u64) -> Result<(), OutOfHostMemory> {
        match self.used.checked_add(bytes) {
            Some(used) if used <= self.capacity => {
                self.used = used;
                self.peak = self.peak.max(used);
                self.check();
                Ok(())
            }
            _ => Err(OutOfHostMemory {
                requested: bytes,
                used: self.used,
                capacity: self.capacity,
            }),
        }
    }

    /// Stage `count` reservations of `bytes` each, with semantics identical
    /// to `count` sequential [`Self::reserve`] calls — the splice primitive
    /// of the schedule fast path. On overflow, the reservations that fit
    /// are committed (exactly as the sequential loop would leave them) and
    /// the error reports the state at the first failing reservation.
    pub(crate) fn reserve_many(&mut self, bytes: u64, count: u64) -> Result<(), OutOfHostMemory> {
        if bytes == 0 || count == 0 {
            return Ok(());
        }
        let fit = (self.capacity - self.used) / bytes;
        // `fit · bytes ≤ capacity − used`, so neither product nor sum can
        // overflow.
        let staged = fit.min(count) * bytes;
        self.used += staged;
        self.peak = self.peak.max(self.used);
        self.check();
        if fit < count {
            return Err(OutOfHostMemory {
                requested: bytes,
                used: self.used,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Release `bytes` (activations consumed by the backward pass).
    pub(crate) fn release(&mut self, bytes: u64) {
        assert!(bytes <= self.used, "releasing more than staged");
        self.used -= bytes;
        self.check();
    }

    /// Release `count` reservations of `bytes` each ([`Self::release`]
    /// batched for the schedule fast path). A total past `u64::MAX` is
    /// more than was ever staged.
    pub(crate) fn release_many(&mut self, bytes: u64, count: u64) {
        let total = bytes.checked_mul(count).filter(|&t| t <= self.used);
        let total = total.expect("releasing more than staged");
        self.used -= total;
        self.check();
    }

    /// Debug builds check the accounting after every operation: the bytes
    /// staged never exceed their high-water mark, nor the mark the
    /// capacity.
    fn check(&self) {
        debug_assert!(
            self.used <= self.peak && self.peak <= self.capacity,
            "staging accounting: {} bytes used, {} byte peak, {} byte capacity",
            self.used,
            self.peak,
            self.capacity
        );
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let mut h = HostStaging::new(100);
        h.reserve(60).unwrap();
        h.reserve(40).unwrap();
        assert_eq!(h.used(), 100);
        h.release(50);
        assert_eq!(h.used(), 50);
        assert_eq!(h.peak(), 100);
    }

    #[test]
    fn oohm_on_overflow() {
        let mut h = HostStaging::new(100);
        h.reserve(80).unwrap();
        let err = h.reserve(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.used, 80);
        // failed reserve does not change state
        assert_eq!(h.used(), 80);
    }

    #[test]
    #[should_panic(expected = "releasing more than staged")]
    fn over_release_panics() {
        let mut h = HostStaging::new(100);
        h.reserve(10).unwrap();
        h.release(20);
    }

    #[test]
    fn zero_capacity_host() {
        let mut h = HostStaging::new(0);
        assert_eq!(h.capacity(), 0);
        // Zero-byte staging is a no-op even with no capacity at all.
        h.reserve(0).unwrap();
        h.reserve_many(0, 10).unwrap();
        h.reserve_many(7, 0).unwrap();
        assert_eq!((h.used(), h.peak()), (0, 0));
        let err = h.reserve(1).unwrap_err();
        assert_eq!(
            err,
            OutOfHostMemory {
                requested: 1,
                used: 0,
                capacity: 0
            }
        );
        let err = h.reserve_many(4, 3).unwrap_err();
        assert_eq!(
            err,
            OutOfHostMemory {
                requested: 4,
                used: 0,
                capacity: 0
            }
        );
        assert_eq!((h.used(), h.peak()), (0, 0));
    }

    #[test]
    fn unbounded_headroom_cannot_overflow() {
        let mut h = HostStaging::unbounded();
        // A pathological splice request: the `fit` computation must not
        // overflow even at the largest representable per-layer size.
        assert!(h.reserve_many(u64::MAX / 4, 2).is_ok());
        assert_eq!(h.used(), u64::MAX / 2 - 1);
        let err = h.reserve(2).unwrap_err();
        assert_eq!(err.capacity, u64::MAX / 2);
    }

    #[test]
    fn reserve_many_matches_sequential_loop() {
        // The batched splice primitive must leave the tracker in exactly
        // the state `count` sequential reserves would — pass and fail alike.
        for capacity in [0u64, 1, 10, 35, 36, 100] {
            for bytes in [1u64, 7, 12] {
                for count in [1u64, 3, 5] {
                    let mut batched = HostStaging::new(capacity);
                    let mut serial = HostStaging::new(capacity);
                    let b = batched.reserve_many(bytes, count);
                    let mut s = Ok(());
                    for _ in 0..count {
                        s = serial.reserve(bytes);
                        if s.is_err() {
                            break;
                        }
                    }
                    assert_eq!(b, s, "cap={capacity} bytes={bytes} count={count}");
                    assert_eq!(
                        batched, serial,
                        "cap={capacity} bytes={bytes} count={count}"
                    );
                }
            }
        }
    }

    #[test]
    fn reserve_refuses_a_sum_past_u64_max() {
        // A full `u64::MAX` pool: `used + 1` would wrap to 0 and fit.
        let mut h = HostStaging::new(u64::MAX);
        h.reserve(u64::MAX).unwrap();
        let full = h.clone();
        for bytes in [1, 2, u64::MAX] {
            assert_eq!(
                h.reserve(bytes),
                Err(OutOfHostMemory {
                    requested: bytes,
                    used: u64::MAX,
                    capacity: u64::MAX,
                })
            );
            assert_eq!(h, full, "a refused reserve changes nothing");
        }
        // One byte short of full still takes exactly one more byte.
        let mut h = HostStaging::new(u64::MAX);
        h.reserve(u64::MAX - 1).unwrap();
        assert!(h.reserve(2).is_err());
        h.reserve(1).unwrap();
        assert_eq!((h.used(), h.peak()), (u64::MAX, u64::MAX));
        // The batched primitive agrees at the same edge.
        let mut h = HostStaging::new(u64::MAX);
        let err = h.reserve_many(u64::MAX / 2 + 1, 2).unwrap_err();
        assert_eq!((err.used, h.used()), (u64::MAX / 2 + 1, u64::MAX / 2 + 1));
    }

    #[test]
    fn release_many_at_the_u64_edge() {
        let mut h = HostStaging::new(u64::MAX);
        h.reserve_many(u64::MAX / 3, 3).unwrap();
        assert_eq!(h.used(), u64::MAX);
        h.release_many(u64::MAX / 3, 2);
        assert_eq!(h.used(), u64::MAX / 3);
        h.release_many(u64::MAX / 3, 1);
        assert_eq!((h.used(), h.peak()), (0, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "releasing more than staged")]
    fn release_many_refuses_a_wrapping_total() {
        // 2⁶³ · 2 wraps to 0, which an unchecked product would release.
        let mut h = HostStaging::new(u64::MAX);
        h.reserve(1 << 63).unwrap();
        h.release_many(1 << 63, 2);
    }

    #[test]
    fn release_many_matches_sequential_loop() {
        let mut batched = HostStaging::new(100);
        let mut serial = HostStaging::new(100);
        for h in [&mut batched, &mut serial] {
            h.reserve_many(10, 6).unwrap();
        }
        batched.release_many(10, 4);
        for _ in 0..4 {
            serial.release(10);
        }
        assert_eq!(batched, serial);
        assert_eq!(batched.used(), 20);
        assert_eq!(batched.peak(), 60);
    }
}
