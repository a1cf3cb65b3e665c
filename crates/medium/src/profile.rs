//! Radio hardware/channel profiles.
//!
//! A [`RadioProfile`] bundles everything the virtual medium needs to turn
//! a transmission into physics: the paper's transceiver model (per-bit
//! energy *and* `data_rate_bps`, Table 3), the CPU model that prices
//! compute debits (Table 2), the per-link propagation delay, and a
//! per-delivery loss probability.

use egka_energy::{CpuModel, Transceiver};

/// Per-link propagation delay: a fixed base plus seeded uniform jitter in
/// `[0, jitter_ms)`, drawn independently per delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelaySpec {
    /// Fixed one-way propagation/processing delay, milliseconds.
    pub base_ms: f64,
    /// Upper bound of the uniform jitter added per delivery, milliseconds.
    pub jitter_ms: f64,
}

impl DelaySpec {
    /// No propagation delay at all (airtime still applies).
    pub fn zero() -> Self {
        DelaySpec {
            base_ms: 0.0,
            jitter_ms: 0.0,
        }
    }
}

/// Everything the virtual radio needs to price and pace one deployment.
#[derive(Clone, Debug)]
pub struct RadioProfile {
    /// Transceiver: per-bit tx/rx energy and the channel's data rate.
    pub transceiver: Transceiver,
    /// CPU model pricing compute-op battery debits.
    pub cpu: CpuModel,
    /// Per-link delay distribution.
    pub delay: DelaySpec,
    /// Per-delivery drop probability in `[0, 1)`, drawn from the medium's
    /// seeded stream.
    pub loss: f64,
}

impl RadioProfile {
    /// The paper's low-power tier: 100 kbps sensor radio + 133 MHz
    /// StrongARM, with a couple of milliseconds of link delay.
    pub fn sensor_100kbps() -> Self {
        RadioProfile {
            transceiver: Transceiver::radio_100kbps(),
            cpu: CpuModel::strongarm_133(),
            delay: DelaySpec {
                base_ms: 2.0,
                jitter_ms: 1.0,
            },
            loss: 0.0,
        }
    }

    /// The paper's WLAN tier: Spectrum24 card at 11 Mbps.
    pub fn wlan_spectrum24() -> Self {
        RadioProfile {
            transceiver: Transceiver::wlan_spectrum24(),
            cpu: CpuModel::strongarm_133(),
            delay: DelaySpec {
                base_ms: 0.5,
                jitter_ms: 0.2,
            },
            loss: 0.0,
        }
    }

    /// The equivalence profile: the 100 kbps channel with zero delay, zero
    /// jitter and zero loss. Airtime still serializes the channel, but
    /// arrival *order* matches the instant medium exactly — a run over
    /// this profile must reproduce an instant-medium run bit for bit.
    pub fn ideal() -> Self {
        RadioProfile {
            transceiver: Transceiver::radio_100kbps(),
            cpu: CpuModel::strongarm_133(),
            delay: DelaySpec::zero(),
            loss: 0.0,
        }
    }

    /// Airtime of `bits` on this channel, nanoseconds.
    pub fn airtime_ns(&self, bits: u64) -> u64 {
        (bits as f64 / self.transceiver.data_rate_bps as f64 * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_matches_the_transceiver_model() {
        let p = RadioProfile::sensor_100kbps();
        assert_eq!(p.airtime_ns(3000), 30_000_000, "3000 bits = 30 ms");
        let w = RadioProfile::wlan_spectrum24();
        assert_eq!(w.airtime_ns(11_000), 1_000_000, "11 kbit at 11 Mbps = 1 ms");
    }

    #[test]
    fn ideal_profile_has_no_delay_or_loss() {
        let p = RadioProfile::ideal();
        assert_eq!(p.delay, DelaySpec::zero());
        assert_eq!(p.loss, 0.0);
    }
}
