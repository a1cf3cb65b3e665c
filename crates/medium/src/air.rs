//! The discrete-event radio: a virtual clock, a serialized channel, and a
//! delivery queue.
//!
//! A [`RadioMedium`] sits beside a protocol execution, which owns the
//! nodes' mailboxes, traffic counters and power state. The execution
//! resolves each send's audible recipients and hands the [`Transmission`]
//! to [`RadioMedium::transmit`], which serializes airtime on the shared
//! channel, draws per-link jitter, applies seeded loss, and debits the
//! transmitter's battery. [`RadioMedium::advance`] then moves the virtual
//! clock to the next scheduled delivery and hands each packet back to the
//! execution (debiting the receiver's battery), so a driver alternates
//! "pump the machines" / "advance the air" and reads the rekey's latency
//! straight off [`RadioMedium::now_ms`].
//!
//! Everything is deterministic per seed: the jitter and loss draws come
//! from one xorshift64* stream advanced in transmission order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::battery::BatteryBank;
use crate::packet::{NodeId, Packet, Xorshift64Star};
use crate::profile::RadioProfile;

/// One scheduled hand-off to a receiver. Ordered by `(at_ns, seq)` so a
/// min-heap pops deliveries in virtual-time order with FIFO tie-breaking —
/// zero-delay configurations reproduce the instant medium's arrival order
/// exactly.
#[derive(Clone, Debug)]
struct Delivery {
    at_ns: u64,
    seq: u64,
    to: NodeId,
    packet: Packet,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

/// A send whose sender is already charged and whose recipients are
/// resolved (detached nodes filtered out at send time); the radio decides
/// when — and whether — each target hears it.
#[derive(Clone, Debug)]
pub struct Transmission {
    /// Transmitting node.
    pub from: NodeId,
    /// Audible recipients, in delivery-draw order.
    pub targets: Vec<NodeId>,
    /// The packet itself.
    pub packet: Packet,
}

/// A virtual-time wireless medium: per-link delay, airtime contention on
/// one shared channel, seeded loss, and battery-driven node death.
///
/// Node power state lives with the caller: every method that can kill a
/// node takes the caller's per-node `detached` flags and sets the flag of
/// a node whose battery browns out.
pub struct RadioMedium {
    profile: RadioProfile,
    bank: BatteryBank,
    /// Node index → raw user id (battery cell key).
    users: Vec<u32>,
    now_ns: u64,
    /// The shared channel is busy until this instant; the next
    /// transmission starts no earlier.
    channel_free_ns: u64,
    /// Jitter and loss draws.
    rng: Xorshift64Star,
    seq: u64,
    queue: BinaryHeap<Reverse<Delivery>>,
    /// Observational trace hook: airtime spans, loss drops and battery
    /// debits are reported here when attached. Never read back, so it
    /// cannot perturb the schedule or the RNG stream.
    trace: Option<egka_trace::StepTrace>,
}

impl RadioMedium {
    /// A radio with mains-powered nodes (energy is accounted but nobody
    /// dies).
    pub fn new(profile: RadioProfile, seed: u64) -> Self {
        Self::with_bank(profile, seed, BatteryBank::infinite())
    }

    /// A radio whose nodes draw from `bank` — the bank outlives the
    /// medium, so drain accumulates across protocol runs.
    pub fn with_bank(profile: RadioProfile, seed: u64, bank: BatteryBank) -> Self {
        RadioMedium {
            profile,
            bank,
            users: Vec::new(),
            now_ns: 0,
            channel_free_ns: 0,
            rng: Xorshift64Star::new(seed),
            seq: 0,
            queue: BinaryHeap::new(),
            trace: None,
        }
    }

    /// Attaches an observational trace: subsequent transmissions report
    /// airtime spans, drops, and battery debits into it.
    pub fn set_trace(&mut self, trace: egka_trace::StepTrace) {
        self.trace = Some(trace);
    }

    /// The radio's hardware/channel profile.
    pub fn profile(&self) -> &RadioProfile {
        &self.profile
    }

    /// The battery bank nodes draw from.
    pub fn bank(&self) -> &BatteryBank {
        &self.bank
    }

    /// Registers the next node (node ids count up from 0) for `user`.
    /// Returns `false` if the user's battery is already dead: the node
    /// joins powered off, and the caller must keep it detached.
    pub fn join(&mut self, user: u32) -> bool {
        self.users.push(user);
        !self.bank.is_dead(user)
    }

    /// Powers `node` off after its battery browned out (once).
    fn power_off(&mut self, node: NodeId, detached: &mut [bool]) {
        if detached[node as usize] {
            return;
        }
        detached[node as usize] = true;
        if let Some(t) = &self.trace {
            t.air_death(self.users[node as usize], self.now_ns);
        }
    }

    /// Puts `tx` on the air: debits the transmitter's battery, serializes
    /// the shared channel, draws loss and per-link jitter, and schedules
    /// each surviving copy's delivery.
    pub fn transmit(&mut self, tx: Transmission, detached: &mut [bool]) {
        let bits = tx.packet.nominal_bits;
        let user = self.users[tx.from as usize];
        let tx_uj = bits as f64 * self.profile.transceiver.tx_uj_per_bit;
        if !self.bank.debit(user, tx_uj) {
            // The battery browned out radiating this packet: it still
            // leaves the antenna, but the node is off from here on.
            self.power_off(tx.from, detached);
        }
        let start = self.now_ns.max(self.channel_free_ns);
        let end = start + self.profile.airtime_ns(bits);
        self.channel_free_ns = end;
        if let Some(t) = &self.trace {
            t.air_tx(bits, tx_uj, start, end);
        }
        for &to in &tx.targets {
            if self.profile.loss > 0.0 && self.rng.unit() < self.profile.loss {
                if let Some(t) = &self.trace {
                    t.air_drop(self.users[to as usize], end);
                }
                continue;
            }
            let jitter_ns = if self.profile.delay.jitter_ms > 0.0 {
                (self.rng.unit() * self.profile.delay.jitter_ms * 1e6) as u64
            } else {
                0
            };
            let at_ns = end + (self.profile.delay.base_ms * 1e6) as u64 + jitter_ns;
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Reverse(Delivery {
                at_ns,
                seq,
                to,
                packet: tx.packet.clone(),
            }));
        }
    }

    /// Advances the virtual clock to the next scheduled delivery and hands
    /// every packet due at that instant to `deliver`, debiting each
    /// receiver's battery (a receiver that is detached, or dies
    /// mid-reception, hears nothing). Returns the new virtual now in
    /// nanoseconds, or `None` if nothing is in flight.
    pub fn advance(
        &mut self,
        detached: &mut [bool],
        mut deliver: impl FnMut(NodeId, Packet),
    ) -> Option<u64> {
        let due_at = self.queue.peek()?.0.at_ns;
        self.now_ns = self.now_ns.max(due_at);
        while self.queue.peek().is_some_and(|d| d.0.at_ns == due_at) {
            let Reverse(d) = self.queue.pop().expect("peeked");
            if detached[d.to as usize] {
                continue; // powered off since the packet went on the air
            }
            let user = self.users[d.to as usize];
            let rx_uj = d.packet.nominal_bits as f64 * self.profile.transceiver.rx_uj_per_bit;
            if !self.bank.debit(user, rx_uj) {
                self.power_off(d.to, detached);
                continue;
            }
            if let Some(t) = &self.trace {
                t.air_rx(user, rx_uj, self.now_ns);
            }
            deliver(d.to, d.packet);
        }
        Some(self.now_ns)
    }

    /// Debits compute energy (millijoules, the unit the CPU model prices
    /// in) from `node`'s battery; a drained battery powers the node off.
    /// Returns whether the node is still alive.
    pub fn debit_compute_mj(&mut self, node: NodeId, mj: f64, detached: &mut [bool]) -> bool {
        let user = self.users[node as usize];
        if mj <= 0.0 {
            return !self.bank.is_dead(user);
        }
        if self.bank.debit(user, mj * 1000.0) {
            return true;
        }
        self.power_off(node, detached);
        false
    }

    /// Virtual now, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Virtual now, milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DelaySpec;
    use bytes::Bytes;
    use egka_energy::Transceiver;

    fn quiet() -> RadioProfile {
        RadioProfile {
            transceiver: Transceiver::radio_100kbps(),
            cpu: egka_energy::CpuModel::strongarm_133(),
            delay: DelaySpec {
                base_ms: 0.0,
                jitter_ms: 0.0,
            },
            loss: 0.0,
        }
    }

    /// A radio with `users` joined, and their (all attached) power flags.
    fn radio_of(
        profile: RadioProfile,
        seed: u64,
        bank: BatteryBank,
        users: &[u32],
    ) -> (RadioMedium, Vec<bool>) {
        let mut radio = RadioMedium::with_bank(profile, seed, bank);
        let detached = users.iter().map(|&u| !radio.join(u)).collect();
        (radio, detached)
    }

    fn tx(from: NodeId, targets: &[NodeId], kind: u16, bits: u64) -> Transmission {
        Transmission {
            from,
            targets: targets.to_vec(),
            packet: Packet {
                from,
                kind,
                payload: Bytes::new(),
                nominal_bits: bits,
            },
        }
    }

    /// Advances until the air is quiet; returns the delivered kinds per node.
    fn drain(radio: &mut RadioMedium, detached: &mut [bool]) -> Vec<Vec<u16>> {
        let mut heard = vec![Vec::new(); detached.len()];
        while radio
            .advance(detached, |to, p| heard[to as usize].push(p.kind))
            .is_some()
        {}
        heard
    }

    #[test]
    fn airtime_serializes_the_shared_channel() {
        // A 3000-bit broadcast at 100 kbps occupies the channel for 30
        // virtual ms; two back-to-back broadcasts end at 30 and 60 ms.
        let (mut radio, mut detached) = radio_of(quiet(), 1, BatteryBank::infinite(), &[10, 11]);
        radio.transmit(tx(0, &[1], 1, 3000), &mut detached);
        radio.transmit(tx(0, &[1], 2, 3000), &mut detached);
        let mut heard = Vec::new();
        radio
            .advance(&mut detached, |_, p| heard.push(p.kind))
            .unwrap();
        assert!((radio.now_ms() - 30.0).abs() < 1e-9, "{}", radio.now_ms());
        assert_eq!(heard, vec![1], "second packet still on the air");
        radio
            .advance(&mut detached, |_, p| heard.push(p.kind))
            .unwrap();
        assert!((radio.now_ms() - 60.0).abs() < 1e-9);
        assert_eq!(heard, vec![1, 2]);
        assert!(
            radio.advance(&mut detached, |_, _| {}).is_none(),
            "air is quiet again"
        );
    }

    #[test]
    fn per_link_delay_adds_base_and_seeded_jitter() {
        let mut profile = quiet();
        profile.delay = DelaySpec {
            base_ms: 5.0,
            jitter_ms: 2.0,
        };
        let arrival = |seed: u64| {
            let (mut radio, mut detached) =
                radio_of(profile.clone(), seed, BatteryBank::infinite(), &[0, 1]);
            radio.transmit(tx(0, &[1], 1, 1000), &mut detached); // 10 ms airtime
            radio.advance(&mut detached, |_, _| {}).unwrap()
        };
        let t = arrival(7);
        // 10 ms airtime + 5 ms base + jitter ∈ [0, 2) ms.
        assert!((15_000_000..17_000_000).contains(&t), "{t}");
        assert_eq!(arrival(7), t, "same seed, same jitter");
        assert_ne!(arrival(8), t, "different seed, different jitter");
    }

    #[test]
    fn seeded_loss_drops_deterministically() {
        let mut profile = quiet();
        profile.loss = 0.5;
        let delivered = |seed: u64| {
            let (mut radio, mut detached) =
                radio_of(profile.clone(), seed, BatteryBank::infinite(), &[0, 1]);
            for _ in 0..200 {
                radio.transmit(tx(0, &[1], 1, 8), &mut detached);
            }
            drain(&mut radio, &mut detached)[1].len()
        };
        let n = delivered(3);
        assert!((60..140).contains(&n), "50% loss delivered {n}/200");
        assert_eq!(delivered(3), n);
    }

    #[test]
    fn battery_death_powers_a_node_off_mid_air() {
        let bank = BatteryBank::new(40_000.0); // 40 mJ
        bank.set_capacity(0, f64::INFINITY); // the transmitter is mains-powered
        let (mut radio, mut detached) = radio_of(quiet(), 1, bank.clone(), &[0, 1]);
        // Receiving 1000 bits costs 7510 µJ on the sensor radio; node 1
        // can afford five receptions, then dies mid-reception of the sixth.
        for _ in 0..8 {
            radio.transmit(tx(0, &[1], 1, 1000), &mut detached);
        }
        let heard = drain(&mut radio, &mut detached);
        assert_eq!(
            heard[1].len(),
            5,
            "the sixth reception browned out the battery"
        );
        assert!(bank.is_dead(1));
        assert!(detached[1]);
        // Node 0 paid 8 × 1000 × 10.8 µJ of transmit energy.
        assert!((bank.spent_uj(0) - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn dead_user_joins_powered_off() {
        let bank = BatteryBank::new(1.0);
        bank.debit(9, 2.0);
        let (_, detached) = radio_of(quiet(), 1, bank, &[9]);
        assert_eq!(detached, vec![true]);
    }

    #[test]
    fn compute_debit_can_kill_too() {
        let bank = BatteryBank::new(10_000.0); // 10 mJ
        let (mut radio, mut detached) = radio_of(quiet(), 1, bank.clone(), &[4]);
        assert!(radio.debit_compute_mj(0, 9.0, &mut detached));
        assert!(
            !radio.debit_compute_mj(0, 2.0, &mut detached),
            "11 mJ of compute: dead"
        );
        assert!(detached[0]);
        assert!(bank.is_dead(4));
    }
}
