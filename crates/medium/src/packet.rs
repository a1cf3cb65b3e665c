//! What travels over a medium, and what each node is charged for it.

use bytes::Bytes;

/// Identifies a node within one protocol execution (dense, in node order).
pub type NodeId = u32;

/// A message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sender.
    pub from: NodeId,
    /// Protocol-defined message kind (round tags etc.).
    pub kind: u16,
    /// Serialized payload (cheaply shared between receivers).
    pub payload: Bytes,
    /// The paper-accounting size of this message in bits. Energy models
    /// charge this, not `payload.len() * 8`.
    pub nominal_bits: u64,
}

/// Per-node cumulative traffic counters, in both *nominal* bits (the
/// paper's printed wire sizes, which the energy model charges) and
/// *actual* serialized bits (the "measured encoding" ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Nominal bits transmitted.
    pub tx_bits: u64,
    /// Nominal bits received.
    pub rx_bits: u64,
    /// Actual serialized bits transmitted.
    pub tx_bits_actual: u64,
    /// Actual serialized bits received.
    pub rx_bits_actual: u64,
    /// Messages transmitted.
    pub msgs_tx: u64,
    /// Messages received.
    pub msgs_rx: u64,
}

impl TrafficStats {
    /// Charges one transmission of `packet`.
    pub fn charge_tx(&mut self, packet: &Packet) {
        self.tx_bits += packet.nominal_bits;
        self.tx_bits_actual += packet.payload.len() as u64 * 8;
        self.msgs_tx += 1;
    }

    /// Charges one reception of `packet`.
    pub fn charge_rx(&mut self, packet: &Packet) {
        self.rx_bits += packet.nominal_bits;
        self.rx_bits_actual += packet.payload.len() as u64 * 8;
        self.msgs_rx += 1;
    }
}

/// The xorshift64* stream behind every seeded loss and jitter draw.
#[derive(Clone, Debug)]
pub struct Xorshift64Star(u64);

impl Xorshift64Star {
    /// A stream seeded with `seed` (forced odd: the state must be non-zero).
    pub fn new(seed: u64) -> Self {
        Xorshift64Star(seed | 1)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}
