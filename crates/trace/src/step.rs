//! Per-protocol-step trace buffer shared down the execution stack.

use crate::{air_tid, group_tid, Event, Payload, Phase, StallCause, POISONED};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    open_round: Option<u32>,
    max_ns: u64,
}

/// A handle threaded through `Faults` into one protocol step's executor
/// (and its radio medium, when there is one).
///
/// The executor reports round transitions, the medium reports airtime and
/// battery debits; everything lands in one shared buffer that the owning
/// shard drains *after* the step, into its own deterministic event stream.
/// Timestamps are `base_ns` (where the group's lane clock stood when the
/// step began) plus the step's relative virtual clock — the radio's
/// `now_ns` when there is a radio, a pump-sweep pseudo-clock otherwise.
///
/// Cloning shares the buffer (`Arc`); the stack hands clones down freely.
#[derive(Clone, Debug)]
pub struct StepTrace {
    inner: Arc<Mutex<Inner>>,
    pid: u32,
    tid: u64,
    air: u64,
    base_ns: u64,
}

impl StepTrace {
    /// A step trace for group `gid` on process lane `pid`, starting at
    /// `base_ns` on the virtual timeline.
    pub fn new(pid: u32, gid: u64, base_ns: u64) -> Self {
        StepTrace {
            inner: Arc::new(Mutex::new(Inner::default())),
            pid,
            tid: group_tid(gid),
            air: air_tid(gid),
            base_ns,
        }
    }

    fn push(inner: &mut Inner, ev: Event) {
        inner.max_ns = inner.max_ns.max(ev.ts_ns);
        inner.events.push(ev);
    }

    /// The executor's current round (max machine phase index) changed;
    /// closes the open round span (if any) and opens the new one.
    pub fn round_transition(&self, round: u32, rel_ns: u64) {
        let ts = self.base_ns + rel_ns;
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(open) = inner.open_round.take() {
            Self::push(
                &mut inner,
                Event::new(Phase::End, ts, self.pid, self.tid, "round")
                    .with(Payload::Round { round: open }),
            );
        }
        Self::push(
            &mut inner,
            Event::new(Phase::Begin, ts, self.pid, self.tid, "round")
                .with(Payload::Round { round }),
        );
        inner.open_round = Some(round);
    }

    /// Closes the open round span at `rel_ns` (step completed).
    pub fn finish_rounds(&self, rel_ns: u64) {
        let ts = self.base_ns + rel_ns;
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(open) = inner.open_round.take() {
            Self::push(
                &mut inner,
                Event::new(Phase::End, ts, self.pid, self.tid, "round")
                    .with(Payload::Round { round: open }),
            );
        }
    }

    /// Closes any dangling round span at the last timestamp seen — called
    /// by the shard after tearing a step down (stall/abort paths), so the
    /// exported trace always balances.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(open) = inner.open_round.take() {
            let ts = inner.max_ns.max(self.base_ns);
            Self::push(
                &mut inner,
                Event::new(Phase::End, ts, self.pid, self.tid, "round")
                    .with(Payload::Round { round: open }),
            );
        }
    }

    /// One serialized transmission on the air lane: busy from `start_rel`
    /// to `end_rel` (radio-relative ns), `bits` on the channel, `uj`
    /// microjoules debited from the sender.
    pub fn air_tx(&self, bits: u64, uj: f64, start_rel_ns: u64, end_rel_ns: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        Self::push(
            &mut inner,
            Event::new(
                Phase::Begin,
                self.base_ns + start_rel_ns,
                self.pid,
                self.air,
                "air.tx",
            )
            .with(Payload::Airtime { bits, uj }),
        );
        Self::push(
            &mut inner,
            Event::new(
                Phase::End,
                self.base_ns + end_rel_ns.max(start_rel_ns),
                self.pid,
                self.air,
                "air.tx",
            )
            .with(Payload::Airtime { bits, uj }),
        );
    }

    /// A receiver missed this transmission (loss draw).
    pub fn air_drop(&self, user: u32, rel_ns: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        Self::push(
            &mut inner,
            Event::new(
                Phase::Instant,
                self.base_ns + rel_ns,
                self.pid,
                self.air,
                "air.drop",
            )
            .with(Payload::Death { user }),
        );
    }

    /// A receive-side battery debit at delivery time.
    pub fn air_rx(&self, user: u32, uj: f64, rel_ns: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        Self::push(
            &mut inner,
            Event::new(
                Phase::Instant,
                self.base_ns + rel_ns,
                self.pid,
                self.air,
                "air.rx",
            )
            .with(Payload::Debit { user, uj }),
        );
    }

    /// A member's battery died on the air (mid-transmit, mid-receive, or
    /// from a compute debit).
    pub fn air_death(&self, user: u32, rel_ns: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        Self::push(
            &mut inner,
            Event::new(
                Phase::Instant,
                self.base_ns + rel_ns,
                self.pid,
                self.air,
                "air.death",
            )
            .with(Payload::Death { user }),
        );
    }

    /// A stall cause observed mid-step (recorded by the shard, kept here
    /// for symmetry with the air events).
    pub fn stall(&self, cause: StallCause, rel_ns: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        Self::push(
            &mut inner,
            Event::new(
                Phase::Instant,
                self.base_ns + rel_ns,
                self.pid,
                self.tid,
                "stall",
            )
            .with(Payload::Stall { cause }),
        );
    }

    /// Where the step's lane clock ended: `base_ns` plus the furthest
    /// relative timestamp any event reached.
    pub fn end_ns(&self) -> u64 {
        let inner = self.inner.lock().expect(POISONED);
        inner.max_ns.max(self.base_ns)
    }

    /// Takes the buffered events (record order). The shard calls this once
    /// after the step settles; a second call returns an empty vec.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.inner.lock().expect(POISONED).events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_balance_and_nest() {
        let st = StepTrace::new(1, 3, 1_000);
        st.round_transition(0, 0);
        st.round_transition(1, 50);
        st.finish_rounds(90);
        let evs = st.drain();
        let phases: Vec<Phase> = evs.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![Phase::Begin, Phase::End, Phase::Begin, Phase::End]
        );
        assert_eq!(evs[0].ts_ns, 1_000);
        assert_eq!(evs[1].ts_ns, 1_050);
        assert_eq!(evs[3].ts_ns, 1_090);
        assert_eq!(evs[0].tid, group_tid(3));
        assert_eq!(st.end_ns(), 1_090);
        assert!(st.drain().is_empty(), "drain takes");
    }

    #[test]
    fn close_seals_dangling_round() {
        let st = StepTrace::new(2, 0, 500);
        st.round_transition(2, 10);
        st.close();
        let evs = st.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].phase, Phase::End);
        assert_eq!(evs[1].ts_ns, 510);
        // Idempotent.
        st.close();
        assert!(st.drain().is_empty());
    }

    #[test]
    fn air_events_use_air_lane() {
        let st = StepTrace::new(1, 5, 0);
        st.air_tx(512, 7.5, 100, 300);
        st.air_rx(9, 1.25, 320);
        st.air_drop(4, 330);
        let evs = st.drain();
        assert!(evs.iter().all(|e| e.tid == air_tid(5)));
        assert_eq!(evs[0].phase, Phase::Begin);
        assert_eq!(evs[1].phase, Phase::End);
        assert_eq!(evs[0].payload, Payload::Airtime { bits: 512, uj: 7.5 });
    }
}
