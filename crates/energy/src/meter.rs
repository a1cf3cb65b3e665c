//! Thread-safe per-node operation meters.
//!
//! Nodes run concurrently in the simulator (scoped threads), so the meter
//! is a bank of relaxed atomics — contention-free counting, snapshot on
//! demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ops::{CompOp, OpCounts, NUM_OPS};

/// Shared operation/traffic counter for one simulated node.
///
/// Cloning is cheap (`Arc`); all handles observe the same counters.
#[derive(Clone, Debug, Default)]
pub struct Meter {
    inner: Arc<MeterInner>,
}

#[derive(Debug, Default)]
struct MeterInner {
    comp: [AtomicU64; NUM_OPS],
    tx_bits: AtomicU64,
    rx_bits: AtomicU64,
    msgs_tx: AtomicU64,
    msgs_rx: AtomicU64,
}

impl Meter {
    /// Creates a fresh zeroed meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records one occurrence of `op`.
    #[inline]
    pub fn record(&self, op: CompOp) {
        self.record_n(op, 1);
    }

    /// Records `k` occurrences of `op`.
    #[inline]
    pub fn record_n(&self, op: CompOp, k: u64) {
        self.inner.comp[op.index()].fetch_add(k, Ordering::Relaxed);
    }

    /// Records a transmitted message of `bits` bits.
    pub fn record_tx(&self, bits: u64) {
        self.inner.tx_bits.fetch_add(bits, Ordering::Relaxed);
        self.inner.msgs_tx.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a received message of `bits` bits.
    pub fn record_rx(&self, bits: u64) {
        self.inner.rx_bits.fetch_add(bits, Ordering::Relaxed);
        self.inner.msgs_rx.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot (relaxed reads; exact when no
    /// concurrent writers, which is how the simulator uses it between phases).
    pub fn snapshot(&self) -> OpCounts {
        let mut out = OpCounts::new();
        for i in 0..NUM_OPS {
            out.comp[i] = self.inner.comp[i].load(Ordering::Relaxed);
        }
        out.tx_bits = self.inner.tx_bits.load(Ordering::Relaxed);
        out.rx_bits = self.inner.rx_bits.load(Ordering::Relaxed);
        out.msgs_tx = self.inner.msgs_tx.load(Ordering::Relaxed);
        out.msgs_rx = self.inner.msgs_rx.load(Ordering::Relaxed);
        out
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in &self.inner.comp {
            c.store(0, Ordering::Relaxed);
        }
        self.inner.tx_bits.store(0, Ordering::Relaxed);
        self.inner.rx_bits.store(0, Ordering::Relaxed);
        self.inner.msgs_tx.store(0, Ordering::Relaxed);
        self.inner.msgs_rx.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Scheme;

    #[test]
    fn record_and_snapshot() {
        let m = Meter::new();
        m.record(CompOp::ModExp);
        m.record_n(CompOp::ModExp, 2);
        m.record(CompOp::SignVerify(Scheme::Gq));
        m.record_tx(2080);
        m.record_rx(1040);
        m.record_rx(1040);
        let s = m.snapshot();
        assert_eq!(s.get(CompOp::ModExp), 3);
        assert_eq!(s.get(CompOp::SignVerify(Scheme::Gq)), 1);
        assert_eq!(s.tx_bits, 2080);
        assert_eq!(s.msgs_tx, 1);
        assert_eq!(s.rx_bits, 2080);
        assert_eq!(s.msgs_rx, 2);
    }

    #[test]
    fn clones_share_state() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.record(CompOp::Hash);
        assert_eq!(m.snapshot().get(CompOp::Hash), 1);
    }

    #[test]
    fn reset_zeroes() {
        let m = Meter::new();
        m.record(CompOp::ModExp);
        m.record_tx(10);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.get(CompOp::ModExp), 0);
        assert_eq!(s.tx_bits, 0);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let m = Meter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(CompOp::ModMul);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().get(CompOp::ModMul), 8000);
    }
}
