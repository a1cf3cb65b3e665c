//! Time-to-key estimates — an extension the paper's data directly
//! supports but never reports.
//!
//! Table 2 gives per-operation **milliseconds** on the StrongARM and the
//! transceiver models carry data rates, so the same per-node counts that
//! price energy also price *latency*: how long a node is busy (compute)
//! plus how long the shared channel is busy with traffic the node must
//! receive or send. The model is deliberately simple and documented:
//!
//! ```text
//! t_node  = Σ count(op) × t_op                  (StrongARM ms, Table 2)
//! t_air   = (tx_bits + rx_bits) / data_rate     (serialized shared channel)
//! t_total = t_node + t_air
//! ```
//!
//! It ignores MAC contention and round synchronization waits, so it is a
//! *lower bound* — but it already surfaces a striking consequence the
//! energy numbers hide: BD-SOK at `n = 500` keeps a StrongARM busy for
//! **minutes** verifying pairings, while the proposed protocol stays under
//! a quarter second of compute at any size.

use egka_energy::complexity::InitialProtocol;
use egka_energy::{CompOp, CpuModel, OpCounts, Transceiver, NUM_OPS};

/// Per-node latency split.
#[derive(Clone, Copy, Debug)]
pub struct LatencyEstimate {
    /// Compute time, milliseconds.
    pub comp_ms: f64,
    /// Airtime for this node's sent + received bits, milliseconds.
    pub airtime_ms: f64,
}

impl LatencyEstimate {
    /// Total time-to-key.
    pub fn total_ms(&self) -> f64 {
        self.comp_ms + self.airtime_ms
    }
}

/// Latency of a count vector under a CPU + radio.
pub fn node_latency(cpu: &CpuModel, radio: &Transceiver, counts: &OpCounts) -> LatencyEstimate {
    let mut comp_ms = 0.0;
    for i in 0..NUM_OPS {
        if let Some(op) = CompOp::from_index(i) {
            let c = counts.comp.get(i).copied().unwrap_or(0);
            if c > 0 {
                comp_ms += c as f64 * cpu.op_time_ms(op);
            }
        }
    }
    LatencyEstimate {
        comp_ms,
        airtime_ms: radio.airtime_ms(counts.tx_bits + counts.rx_bits),
    }
}

/// Time-to-key for an initial GKA protocol at size `n` (closed-form
/// counts; identical to instrumented counts wherever those run).
pub fn initial_gka_latency(
    protocol: InitialProtocol,
    n: u64,
    cpu: &CpuModel,
    radio: &Transceiver,
) -> LatencyEstimate {
    node_latency(cpu, radio, &protocol.per_user_counts(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strongarm() -> CpuModel {
        CpuModel::strongarm_133()
    }

    #[test]
    fn proposed_compute_time_is_constant_in_n() {
        let cpu = strongarm();
        let radio = Transceiver::wlan_spectrum24();
        let t10 = initial_gka_latency(InitialProtocol::ProposedGqBatch, 10, &cpu, &radio);
        let t500 = initial_gka_latency(InitialProtocol::ProposedGqBatch, 500, &cpu, &radio);
        assert!(
            (t10.comp_ms - t500.comp_ms).abs() < 1e-9,
            "3 exps + 1 gen + 1 batch, any n"
        );
        // ≈ 3×37.92 + 75.83 + 75.83 ≈ 265 ms
        assert!((t10.comp_ms - 265.42).abs() < 0.5, "got {}", t10.comp_ms);
    }

    #[test]
    fn sok_compute_time_explodes_at_scale() {
        let cpu = strongarm();
        let radio = Transceiver::wlan_spectrum24();
        let t = initial_gka_latency(InitialProtocol::BdSok, 500, &cpu, &radio);
        // 499 × (573.75 + 76.67) ms ≈ 5.4 minutes of verification.
        assert!(t.comp_ms > 4.0 * 60.0 * 1000.0, "got {} ms", t.comp_ms);
    }

    #[test]
    fn airtime_dominates_on_the_slow_radio() {
        let cpu = strongarm();
        let slow = Transceiver::radio_100kbps();
        let t = initial_gka_latency(InitialProtocol::ProposedGqBatch, 100, &cpu, &slow);
        assert!(t.airtime_ms > t.comp_ms, "100 kbps: channel-bound");
        let fast = Transceiver::wlan_spectrum24();
        let t2 = initial_gka_latency(InitialProtocol::ProposedGqBatch, 100, &cpu, &fast);
        assert!(t2.airtime_ms < t2.comp_ms, "WLAN: compute-bound");
    }

    #[test]
    fn latency_consistent_with_energy_ratio() {
        // Compute energy = compute time × 240 mW, by construction of the
        // paper's model; check the identity holds through our plumbing.
        let cpu = strongarm();
        let radio = Transceiver::wlan_spectrum24();
        let counts = InitialProtocol::BdEcdsa.per_user_counts(50);
        let lat = node_latency(&cpu, &radio, &counts);
        let comp_mj = egka_energy::comp_energy_mj(&cpu, &counts);
        let implied_mj = lat.comp_ms * 240.0 / 1000.0;
        // Within the paper's own rounding of Table 2 entries.
        assert!((comp_mj - implied_mj).abs() / comp_mj < 0.01);
    }
}
