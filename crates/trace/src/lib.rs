//! # egka-trace — virtual-clock structured tracing and metrics
//!
//! The paper's argument is an *accounting* argument: per-member compute,
//! communication, and energy attributed to protocol rounds. This crate is
//! the attribution layer for the reproduction — a zero-dependency tracing
//! and metrics substrate keyed to the **virtual clock**, so that traces are
//! deterministic for a given seed and config, byte-identical across runs,
//! and therefore golden-pinnable.
//!
//! ## Pieces
//!
//! * [`Event`] / [`Phase`] / [`Payload`] — the span/instant event model.
//!   Timestamps are virtual nanoseconds (epoch slots plus radio airtime or
//!   a pump-sweep pseudo-clock); no wall-clock value ever enters an event.
//! * [`TraceSink`] — where events go. [`NoopSink`] discards (the default;
//!   disabled tracing is a branch on an `Option`), [`RingSink`] records
//!   into a bounded buffer.
//! * [`Tracer`] / [`TraceConfig`] — the handle the service layer carries;
//!   cloneable, cheap, `None`-backed when tracing is off.
//! * [`StepTrace`] — a shared per-protocol-step buffer handed down through
//!   `Faults` into the sans-IO executor and the radio medium, so round
//!   transitions and airtime events surface without any protocol-code
//!   churn. The owning shard drains it back in deterministic order.
//! * [`MetricsRegistry`] — named counters and fixed-bucket histograms with
//!   a stable snapshot ordering.
//! * [`export`] — Chrome `trace_event` JSON, collapsed-stack flame format
//!   for energy attribution, a plain-text top-N table, and an event-count
//!   fingerprint for goldens.
//!
//! ## Lanes (pid/tid scheme)
//!
//! * `pid 0` — the coordinator (creation, merges, WAL, snapshots).
//! * `pid s+1` — shard `s`.
//! * `pid u32::MAX` — the store (append/snapshot spans).
//! * `tid 0` — the control lane of a pid (epoch spans, deaths).
//! * `tid 2g+1` — group `g`'s protocol lane (group-epoch → step → round).
//! * `tid 2g+2` — group `g`'s air lane (per-transmission airtime spans),
//!   kept separate so airtime never breaks the round spans' B/E nesting.
//!
//! ```
//! use egka_trace::{Event, Phase, TraceConfig, Tracer};
//!
//! // Events emitted through a Tracer land in the bounded ring, in order.
//! let (config, ring) = TraceConfig::ring(16);
//! let tracer = Tracer::from(config);
//! tracer.emit(Event::new(Phase::Instant, 0, 0, 0, "epoch"));
//! let events = ring.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "epoch");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;

mod registry;
mod sink;
mod step;

pub use registry::{
    labeled, Histogram, HistogramSnapshot, MeterSnapshot, MetricsRegistry, MetricsSnapshot,
    DEFAULT_BOUNDS, METER_WINDOWS,
};
pub use sink::{NoopSink, RingSink, TraceSink};
pub use step::StepTrace;

use std::sync::Arc;

/// `lock` fails only after a thread panicked while holding the lock,
/// leaving its update half done: a bug, not a state to recover.
pub(crate) const POISONED: &str = "a thread panicked while holding a trace lock";

/// Virtual nanoseconds allotted to one service epoch on the trace
/// timeline. Every event of epoch `e` has `ts_ns` in
/// `[e * EPOCH_NS, (e + 1) * EPOCH_NS)` for the scales the benches run at.
pub const EPOCH_NS: u64 = 1_000_000_000;

/// Pseudo-clock advance per executor pump sweep when a step runs without a
/// radio (the instant medium has no virtual clock of its own). Chosen so
/// off-radio round structure is visible yet stays far below [`EPOCH_NS`].
pub const SWEEP_NS: u64 = 1_000;

/// The coordinator's pid lane.
pub const COORD_PID: u32 = 0;

/// The store's pid lane.
pub const STORE_PID: u32 = u32::MAX;

/// The control tid within any pid lane.
pub const CONTROL_TID: u64 = 0;

/// The protocol lane tid for group `gid`.
pub fn group_tid(gid: u64) -> u64 {
    2 * gid + 1
}

/// The air (radio) lane tid for group `gid`.
pub fn air_tid(gid: u64) -> u64 {
    2 * gid + 2
}

/// Event kind, mirroring the Chrome `trace_event` phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`"B"`).
    Begin,
    /// Span close (`"E"`); pairs with the innermost open `Begin` on the
    /// same (pid, tid) lane.
    End,
    /// Point event (`"i"`).
    Instant,
}

/// Why a protocol step stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Message loss starved the step of progress.
    Loss,
    /// A detached (partitioned) member can never answer.
    Detached,
    /// A member's battery died mid-step.
    BatteryDead,
}

impl StallCause {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Loss => "loss",
            StallCause::Detached => "detached",
            StallCause::BatteryDead => "battery_dead",
        }
    }

    /// Stable persisted tag (blame-certificate and snapshot codecs).
    pub fn code(self) -> u8 {
        match self {
            StallCause::Loss => 0,
            StallCause::Detached => 1,
            StallCause::BatteryDead => 2,
        }
    }

    /// Inverse of [`StallCause::code`]; `None` on an unknown tag.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(StallCause::Loss),
            1 => Some(StallCause::Detached),
            2 => Some(StallCause::BatteryDead),
            _ => None,
        }
    }
}

/// Typed event payload. Kept `Copy` (suite names are `&'static str`) so
/// recording an event is a couple of word moves, never an allocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Payload {
    /// No annotation.
    None,
    /// Energy alone, in millijoules.
    Energy {
        /// Millijoules.
        mj: f64,
    },
    /// A completed group rekey epoch (the "dynamic" level).
    Rekey {
        /// Suite key (e.g. `"gdh2-c"`).
        suite: &'static str,
        /// Rekeys executed inside this group epoch.
        rekeys: u64,
        /// Energy spent by the group this epoch, mJ.
        mj: f64,
    },
    /// One protocol step (partition / join / merge / full rekey).
    Step {
        /// Suite key.
        suite: &'static str,
        /// Step index within the epoch plan.
        step: u32,
        /// Retries consumed by this step.
        retries: u32,
        /// Virtual milliseconds the step took.
        vms: f64,
        /// Nominal bits transmitted.
        bits: u64,
        /// Energy priced for the step, mJ.
        mj: f64,
    },
    /// A protocol round (the machine's phase index).
    Round {
        /// Round index.
        round: u32,
    },
    /// One serialized transmission occupying the channel.
    Airtime {
        /// Bits on the air.
        bits: u64,
        /// Transmit energy, microjoules.
        uj: f64,
    },
    /// A battery debit against one member.
    Debit {
        /// Member id.
        user: u32,
        /// Microjoules debited.
        uj: f64,
    },
    /// A step retry.
    Retry {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A step stall.
    Stall {
        /// Why it stalled.
        cause: StallCause,
    },
    /// A WAL / snapshot LSN annotation.
    Lsn {
        /// Log sequence number.
        lsn: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Raw byte count (store I/O without an LSN in scope).
    Io {
        /// Bytes moved.
        bytes: u64,
    },
    /// A service epoch.
    Epoch {
        /// Epoch number.
        epoch: u64,
        /// Active groups at the time.
        groups: u64,
    },
    /// An epoch plan for one group.
    Plan {
        /// Suite key.
        suite: &'static str,
        /// Steps in the plan.
        steps: u32,
    },
    /// A member death.
    Death {
        /// Member id.
        user: u32,
    },
    /// A member evicted by the robustness plane.
    Evict {
        /// The group the member is evicted from.
        group: u64,
        /// Member id.
        user: u32,
        /// Consecutive stalled epochs that triggered the eviction.
        streak: u64,
    },
}

/// One trace event on a (pid, tid) lane of the virtual timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Span/instant phase.
    pub phase: Phase,
    /// Virtual nanoseconds.
    pub ts_ns: u64,
    /// Process lane (see the module docs).
    pub pid: u32,
    /// Thread lane (see the module docs).
    pub tid: u64,
    /// Stable event name (`"epoch"`, `"step.full_rekey"`, `"air.tx"`, …).
    pub name: &'static str,
    /// Typed annotation.
    pub payload: Payload,
}

impl Event {
    /// Convenience constructor.
    pub fn new(phase: Phase, ts_ns: u64, pid: u32, tid: u64, name: &'static str) -> Self {
        Event {
            phase,
            ts_ns,
            pid,
            tid,
            name,
            payload: Payload::None,
        }
    }

    /// Attaches a payload.
    pub fn with(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }
}

/// Configuration handed to `ServiceBuilder::trace`: where events go and,
/// optionally, a metrics registry to update alongside them.
#[derive(Clone)]
pub struct TraceConfig {
    /// Destination for events.
    pub sink: Arc<dyn TraceSink>,
    /// Optional metrics registry the instrumented layers update.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl TraceConfig {
    /// Tracing into an arbitrary sink, no registry.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceConfig {
            sink,
            registry: None,
        }
    }

    /// Tracing into a fresh bounded [`RingSink`]; returns the config and a
    /// handle to read the ring back out.
    pub fn ring(capacity: usize) -> (Self, Arc<RingSink>) {
        let ring = Arc::new(RingSink::with_capacity(capacity));
        (TraceConfig::new(ring.clone()), ring)
    }

    /// Attaches a metrics registry.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }
}

impl core::fmt::Debug for TraceConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TraceConfig")
            .field("registry", &self.registry.is_some())
            .finish_non_exhaustive()
    }
}

/// The handle instrumented layers carry. Cloneable and cheap; when built
/// via [`Tracer::disabled`] every emit is a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl Tracer {
    /// The no-op tracer (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn emit(&self, ev: Event) {
        if let Some(sink) = &self.sink {
            sink.record(ev);
        }
    }

    /// Records a batch in order (no-op when disabled). Used to drain the
    /// per-shard buffers back into the sink deterministically.
    pub fn emit_all<I: IntoIterator<Item = Event>>(&self, evs: I) {
        if let Some(sink) = &self.sink {
            for ev in evs {
                sink.record(ev);
            }
        }
    }

    /// The attached metrics registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }
}

impl From<TraceConfig> for Tracer {
    fn from(cfg: TraceConfig) -> Self {
        Tracer {
            sink: Some(cfg.sink),
            registry: cfg.registry,
        }
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(Event::new(Phase::Instant, 0, 0, 0, "x"));
        t.emit_all([Event::new(Phase::Instant, 1, 0, 0, "y")]);
        assert!(t.registry().is_none());
    }

    #[test]
    fn ring_config_records() {
        let (cfg, ring) = TraceConfig::ring(16);
        let t = Tracer::from(cfg);
        assert!(t.is_enabled());
        t.emit(Event::new(Phase::Begin, 10, 1, 3, "step.full_rekey"));
        t.emit(
            Event::new(Phase::End, 20, 1, 3, "step.full_rekey").with(Payload::Energy { mj: 1.5 }),
        );
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::Begin);
        assert_eq!(evs[1].payload, Payload::Energy { mj: 1.5 });
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn lane_helpers() {
        assert_eq!(group_tid(0), 1);
        assert_eq!(air_tid(0), 2);
        assert_eq!(group_tid(7), 15);
        assert_eq!(air_tid(7), 16);
        assert_ne!(COORD_PID, STORE_PID);
    }
}
