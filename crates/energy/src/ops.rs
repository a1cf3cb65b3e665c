//! Operation vocabulary and count vectors.
//!
//! Every computational step the paper's cost model prices (Table 2) plus the
//! operations it deliberately treats as negligible (symmetric crypto and
//! hashing, per §7) are enumerated here. Protocol implementations record
//! these into a [`crate::meter::Meter`]; analytic formulas produce the same
//! [`OpCounts`] shape so instrumented and closed-form counts can be diffed.

/// Signature schemes priced by Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// 1024-bit DSA.
    Dsa,
    /// 160-bit curve ECDSA.
    Ecdsa,
    /// Sakai–Ohgishi–Kasahara ID-based (pairing, 194-bit curve).
    Sok,
    /// Guillou–Quisquater ID-based (1024-bit modulus), the paper's variant.
    Gq,
}

impl Scheme {
    /// All schemes, in Table 2 row order.
    pub const ALL: [Scheme; 4] = [Scheme::Dsa, Scheme::Ecdsa, Scheme::Sok, Scheme::Gq];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Dsa => "DSA",
            Scheme::Ecdsa => "ECDSA",
            Scheme::Sok => "SOK",
            Scheme::Gq => "GQ",
        }
    }
}

/// A computational operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// Modular exponentiation (1024-bit modulus).
    ModExp,
    /// Hash-to-curve-point (pairing schemes).
    MapToPoint,
    /// Tate pairing evaluation.
    TatePairing,
    /// Elliptic-curve scalar multiplication.
    EcScalarMul,
    /// Signature generation under `Scheme`.
    SignGen(Scheme),
    /// Signature verification under `Scheme`. For GQ this covers the paper's
    /// *batch* verification (eq. (2)), which it prices as one verification.
    SignVerify(Scheme),
    /// Certificate verification (priced as one signature verification of the
    /// issuing scheme).
    CertVerify(Scheme),
    /// Symmetric encryption (negligible per the paper).
    SymEnc,
    /// Symmetric decryption (negligible per the paper).
    SymDec,
    /// Hash invocation (negligible per the paper).
    Hash,
    /// Modular multiplication (negligible per the paper).
    ModMul,
    /// Modular inversion (negligible per the paper).
    ModInv,
}

/// Number of distinct [`CompOp`] slots (for dense count arrays).
pub const NUM_OPS: usize = 21;

impl CompOp {
    /// Dense index into count arrays.
    pub fn index(self) -> usize {
        match self {
            CompOp::ModExp => 0,
            CompOp::MapToPoint => 1,
            CompOp::TatePairing => 2,
            CompOp::EcScalarMul => 3,
            CompOp::SignGen(s) => 4 + scheme_index(s),
            CompOp::SignVerify(s) => 8 + scheme_index(s),
            CompOp::CertVerify(s) => 12 + scheme_index(s),
            CompOp::SymEnc => 16,
            CompOp::SymDec => 17,
            CompOp::Hash => 18,
            CompOp::ModMul => 19,
            CompOp::ModInv => 20,
        }
    }

    /// Inverse of [`CompOp::index`].
    pub fn from_index(i: usize) -> Option<CompOp> {
        Some(match i {
            0 => CompOp::ModExp,
            1 => CompOp::MapToPoint,
            2 => CompOp::TatePairing,
            3 => CompOp::EcScalarMul,
            4..=7 => CompOp::SignGen(Scheme::ALL[i - 4]),
            8..=11 => CompOp::SignVerify(Scheme::ALL[i - 8]),
            12..=15 => CompOp::CertVerify(Scheme::ALL[i - 12]),
            16 => CompOp::SymEnc,
            17 => CompOp::SymDec,
            18 => CompOp::Hash,
            19 => CompOp::ModMul,
            20 => CompOp::ModInv,
            _ => return None,
        })
    }
}

fn scheme_index(s: Scheme) -> usize {
    match s {
        Scheme::Dsa => 0,
        Scheme::Ecdsa => 1,
        Scheme::Sok => 2,
        Scheme::Gq => 3,
    }
}

/// A snapshot of per-node operation and traffic counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Computational op counts indexed by [`CompOp::index`].
    pub comp: Vec<u64>,
    /// Bits transmitted (paper-nominal accounting).
    pub tx_bits: u64,
    /// Bits received (paper-nominal accounting).
    pub rx_bits: u64,
    /// Bits transmitted as actually serialized (framing ablation; 0 for
    /// closed-form counts, which have no real encoding).
    pub tx_bits_actual: u64,
    /// Bits received as actually serialized.
    pub rx_bits_actual: u64,
    /// Messages transmitted.
    pub msgs_tx: u64,
    /// Messages received.
    pub msgs_rx: u64,
}

impl OpCounts {
    /// An all-zero count vector.
    pub fn new() -> Self {
        OpCounts {
            comp: vec![0; NUM_OPS],
            tx_bits: 0,
            rx_bits: 0,
            tx_bits_actual: 0,
            rx_bits_actual: 0,
            msgs_tx: 0,
            msgs_rx: 0,
        }
    }

    /// Count for a specific op.
    pub fn get(&self, op: CompOp) -> u64 {
        self.comp.get(op.index()).copied().unwrap_or(0)
    }

    /// Adds `k` occurrences of `op`.
    pub fn add(&mut self, op: CompOp, k: u64) {
        if self.comp.len() < NUM_OPS {
            self.comp.resize(NUM_OPS, 0);
        }
        self.comp[op.index()] += k;
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &OpCounts) {
        if self.comp.len() < NUM_OPS {
            self.comp.resize(NUM_OPS, 0);
        }
        for (i, &v) in other.comp.iter().enumerate() {
            self.comp[i] += v;
        }
        self.tx_bits += other.tx_bits;
        self.rx_bits += other.rx_bits;
        self.tx_bits_actual += other.tx_bits_actual;
        self.rx_bits_actual += other.rx_bits_actual;
        self.msgs_tx += other.msgs_tx;
        self.msgs_rx += other.msgs_rx;
    }

    /// Adds `k` copies of `other` in one pass (closed-form role pricing
    /// multiplies per-role counts by role population; looping `merge` is
    /// O(population)).
    pub fn merge_scaled(&mut self, other: &OpCounts, k: u64) {
        if self.comp.len() < NUM_OPS {
            self.comp.resize(NUM_OPS, 0);
        }
        for (i, &v) in other.comp.iter().enumerate() {
            self.comp[i] += v * k;
        }
        self.tx_bits += other.tx_bits * k;
        self.rx_bits += other.rx_bits * k;
        self.tx_bits_actual += other.tx_bits_actual * k;
        self.rx_bits_actual += other.rx_bits_actual * k;
        self.msgs_tx += other.msgs_tx * k;
        self.msgs_rx += other.msgs_rx * k;
    }

    /// `self - base`, for diffing meter snapshots around a step.
    ///
    /// # Panics
    /// Panics if any count would go negative.
    pub fn diff(&self, base: &OpCounts) -> OpCounts {
        let mut out = OpCounts::new();
        for i in 0..NUM_OPS {
            let a = self.comp.get(i).copied().unwrap_or(0);
            let b = base.comp.get(i).copied().unwrap_or(0);
            out.comp[i] = a.checked_sub(b).expect("count went backwards");
        }
        out.tx_bits = self.tx_bits - base.tx_bits;
        out.rx_bits = self.rx_bits - base.rx_bits;
        out.tx_bits_actual = self.tx_bits_actual - base.tx_bits_actual;
        out.rx_bits_actual = self.rx_bits_actual - base.rx_bits_actual;
        out.msgs_tx = self.msgs_tx - base.msgs_tx;
        out.msgs_rx = self.msgs_rx - base.msgs_rx;
        out
    }

    /// Total modular exponentiations (the paper's "Exp." row).
    pub fn exps(&self) -> u64 {
        self.get(CompOp::ModExp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_covers_all_slots() {
        for i in 0..NUM_OPS {
            let op = CompOp::from_index(i).expect("every slot maps to an op");
            assert_eq!(op.index(), i);
        }
        assert!(CompOp::from_index(NUM_OPS).is_none());
    }

    #[test]
    fn counts_add_and_merge() {
        let mut a = OpCounts::new();
        a.add(CompOp::ModExp, 3);
        a.add(CompOp::SignGen(Scheme::Gq), 1);
        a.tx_bits = 100;
        let mut b = OpCounts::new();
        b.add(CompOp::ModExp, 2);
        b.rx_bits = 50;
        a.merge(&b);
        assert_eq!(a.get(CompOp::ModExp), 5);
        assert_eq!(a.get(CompOp::SignGen(Scheme::Gq)), 1);
        assert_eq!(a.tx_bits, 100);
        assert_eq!(a.rx_bits, 50);
    }

    #[test]
    fn merge_scaled_matches_repeated_merge() {
        let mut unit = OpCounts::new();
        unit.add(CompOp::ModExp, 2);
        unit.tx_bits = 7;
        unit.msgs_rx = 3;
        let mut looped = OpCounts::new();
        for _ in 0..5 {
            looped.merge(&unit);
        }
        let mut scaled = OpCounts::new();
        scaled.merge_scaled(&unit, 5);
        assert_eq!(looped, scaled);
    }

    #[test]
    fn diff_subtracts() {
        let mut base = OpCounts::new();
        base.add(CompOp::Hash, 2);
        let mut now = base.clone();
        now.add(CompOp::Hash, 3);
        now.tx_bits = 10;
        let d = now.diff(&base);
        assert_eq!(d.get(CompOp::Hash), 3);
        assert_eq!(d.tx_bits, 10);
    }

    #[test]
    #[should_panic(expected = "count went backwards")]
    fn diff_negative_panics() {
        let mut base = OpCounts::new();
        base.add(CompOp::Hash, 2);
        OpCounts::new().diff(&base);
    }
}
