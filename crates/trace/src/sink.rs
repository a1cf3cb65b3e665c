//! Event destinations.

use crate::{Event, POISONED};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Destination for trace events. Implementations must be internally
/// synchronized: the coordinator emits directly while shard buffers are
/// drained through the same handle.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, ev: Event);

    /// How many events the sink refused (bounded sinks only).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards everything — the "tracing disabled" backstop when a sink is
/// required structurally.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _ev: Event) {}
}

/// A bounded in-memory recorder.
///
/// Once full it drops *new* events (keeping the deterministic prefix) and
/// counts them, rather than overwriting old ones — a truncated trace that
/// admits its truncation beats a silently rewritten one. The `churn`
/// runner checks `dropped() == 0` so the golden event-count fingerprint can
/// never be "stable" by accident of a full ring.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring bounded at `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        RingSink {
            cap,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring with the default bound (1 Mi events — far above what the
    /// bench presets emit, small enough to bound memory).
    pub fn new() -> Self {
        RingSink::with_capacity(1 << 20)
    }

    /// Snapshot of the recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect(POISONED).clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect(POISONED).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards recorded events and resets the drop counter.
    pub fn clear(&self) {
        self.events.lock().expect(POISONED).clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new()
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: Event) {
        let mut evs = self.events.lock().expect(POISONED);
        if evs.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            evs.push(ev);
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, Phase};

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = RingSink::with_capacity(2);
        for i in 0..5 {
            ring.record(Event::new(Phase::Instant, i, 0, 0, "e"));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        // The *prefix* is kept.
        assert_eq!(ring.events()[0].ts_ns, 0);
        assert_eq!(ring.events()[1].ts_ns, 1);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn noop_sink_discards() {
        let s = NoopSink;
        s.record(Event::new(Phase::Begin, 0, 0, 0, "x").with(Payload::Round { round: 1 }));
        assert_eq!(s.dropped(), 0);
    }
}
