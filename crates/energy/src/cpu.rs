//! Computational energy cost model — the paper's Table 2.
//!
//! The paper measures modular exponentiation on the 133 MHz StrongARM
//! SA-1110 (9.1 mJ at 240 mW, hence 37.92 ms, from Carman et al.) and takes
//! every other primitive's timing from the MIRACL library on a Pentium III
//! 450 MHz, extrapolating to the StrongARM with
//!
//! ```text
//! α = (γ ms / 8.8 ms) × 37.92 ms        (paper eq. (4))
//! β = 240 mW × α
//! ```
//!
//! The constants below are the paper's *printed* values (canonical for the
//! reproduction); [`CpuModel::derive_strongarm`] re-derives them from the
//! P3-450 column and tests assert agreement to within the paper's own
//! rounding (≤ 0.5 %; the paper's Tate-pairing energy row is internally
//! inconsistent by ~2 % — see `EXPERIMENTS.md`).

use crate::ops::{CompOp, Scheme};

/// StrongARM SA-1110 power draw in milliwatts (paper §6).
pub const STRONGARM_POWER_MW: f64 = 240.0;
/// Reference modular-exponentiation timing on the P3-450 (MIRACL).
pub const P3_450_MODEXP_MS: f64 = 8.8;
/// Reference modular-exponentiation timing on the StrongARM.
pub const STRONGARM_MODEXP_MS: f64 = 37.92;
/// Scale factor from Pentium III 1 GHz timings down to the P3-450.
pub const P3_1GHZ_TO_450_SCALE: f64 = 1000.0 / 450.0;

/// One row of Table 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostRow {
    /// Energy on the 133 MHz StrongARM, millijoules.
    pub strongarm_mj: f64,
    /// Time on the 133 MHz StrongARM, milliseconds.
    pub strongarm_ms: f64,
    /// Time on the Pentium III 450 MHz, milliseconds.
    pub p3_450_ms: f64,
}

/// Returns the paper's printed Table 2 row for a (priced) operation, or
/// `None` for operations the paper treats as negligible.
pub fn table2_row(op: CompOp) -> Option<CostRow> {
    let (mj, ms, p3) = match op {
        CompOp::ModExp => (9.1, 37.92, 8.8),
        CompOp::MapToPoint => (18.4, 76.67, 17.78),
        CompOp::TatePairing => (47.0, 191.5, 44.4),
        CompOp::EcScalarMul => (8.8, 36.67, 8.5),
        CompOp::SignGen(Scheme::Dsa) => (9.1, 37.92, 8.8),
        CompOp::SignGen(Scheme::Ecdsa) => (8.8, 36.67, 8.5),
        CompOp::SignGen(Scheme::Sok) => (17.6, 73.33, 17.0),
        CompOp::SignGen(Scheme::Gq) => (18.2, 75.83, 17.6),
        CompOp::SignVerify(Scheme::Dsa) => (11.1, 46.33, 10.75),
        CompOp::SignVerify(Scheme::Ecdsa) => (10.9, 45.42, 10.5),
        CompOp::SignVerify(Scheme::Sok) => (137.7, 573.75, 133.2),
        CompOp::SignVerify(Scheme::Gq) => (18.2, 75.83, 17.6),
        // Certificate verification costs one signature verification of the
        // issuing scheme (paper §5: "receive and verify n−1 certificates").
        CompOp::CertVerify(s) => return table2_row(CompOp::SignVerify(s)),
        _ => return None,
    };
    Some(CostRow {
        strongarm_mj: mj,
        strongarm_ms: ms,
        p3_450_ms: p3,
    })
}

/// A microprocessor energy model.
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Human-readable name.
    pub name: String,
    /// Power draw in milliwatts.
    pub power_mw: f64,
}

impl CpuModel {
    /// The paper's 133 MHz StrongARM SA-1110 at 240 mW.
    pub fn strongarm_133() -> Self {
        CpuModel {
            name: "133MHz StrongARM SA-1110".into(),
            power_mw: STRONGARM_POWER_MW,
        }
    }

    /// Energy in millijoules for one occurrence of `op` (0 for negligible
    /// operations, matching the paper's accounting).
    pub fn op_energy_mj(&self, op: CompOp) -> f64 {
        table2_row(op).map_or(0.0, |r| r.strongarm_mj)
    }

    /// Time in milliseconds for one occurrence of `op` on the StrongARM.
    pub fn op_time_ms(&self, op: CompOp) -> f64 {
        table2_row(op).map_or(0.0, |r| r.strongarm_ms)
    }

    /// Applies the paper's extrapolation rule (eq. (4)): StrongARM time and
    /// energy from a P3-450 timing.
    pub fn derive_strongarm(p3_450_ms: f64) -> (f64, f64) {
        let alpha_ms = p3_450_ms / P3_450_MODEXP_MS * STRONGARM_MODEXP_MS;
        let beta_mj = STRONGARM_POWER_MW * alpha_ms / 1000.0;
        (alpha_ms, beta_mj)
    }

    /// Scales a Pentium III 1 GHz timing to the P3-450 (paper: ×2.22).
    pub fn p3_1ghz_to_450(ms: f64) -> f64 {
        ms * P3_1GHZ_TO_450_SCALE
    }
}

/// Total computational energy (mJ) of an op-count vector under `cpu`.
pub fn comp_energy_mj(cpu: &CpuModel, counts: &crate::ops::OpCounts) -> f64 {
    let mut total = 0.0;
    for i in 0..crate::ops::NUM_OPS {
        if let Some(op) = CompOp::from_index(i) {
            let c = counts.comp.get(i).copied().unwrap_or(0);
            if c > 0 {
                total += c as f64 * cpu.op_energy_mj(op);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpCounts;

    /// Relative error helper.
    fn rel_err(a: f64, b: f64) -> f64 {
        ((a - b) / b).abs()
    }

    #[test]
    fn modexp_base_case_is_self_consistent() {
        // 9.1 mJ / 240 mW = 37.92 ms (paper §6).
        let row = table2_row(CompOp::ModExp).unwrap();
        assert!(
            rel_err(
                row.strongarm_mj / STRONGARM_POWER_MW * 1000.0,
                row.strongarm_ms
            ) < 1e-3
        );
    }

    #[test]
    fn extrapolation_rule_reproduces_printed_times() {
        // Paper's own rounding keeps everything within 0.5 %.
        for op in [
            CompOp::ModExp,
            CompOp::MapToPoint,
            CompOp::EcScalarMul,
            CompOp::SignGen(Scheme::Dsa),
            CompOp::SignGen(Scheme::Ecdsa),
            CompOp::SignGen(Scheme::Sok),
            CompOp::SignGen(Scheme::Gq),
            CompOp::SignVerify(Scheme::Dsa),
            CompOp::SignVerify(Scheme::Ecdsa),
            CompOp::SignVerify(Scheme::Sok),
            CompOp::SignVerify(Scheme::Gq),
        ] {
            let row = table2_row(op).unwrap();
            let (alpha, _) = CpuModel::derive_strongarm(row.p3_450_ms);
            assert!(
                rel_err(alpha, row.strongarm_ms) < 5e-3,
                "{op:?}: derived {alpha} vs printed {}",
                row.strongarm_ms
            );
        }
    }

    #[test]
    fn tate_pairing_paper_inconsistency_is_bounded() {
        // The paper prints 47.0 mJ with 191.5 ms; 191.5 ms × 240 mW = 45.96 mJ.
        // Document the ~2.2% discrepancy and keep the printed value canonical.
        let row = table2_row(CompOp::TatePairing).unwrap();
        let implied_mj = row.strongarm_ms * STRONGARM_POWER_MW / 1000.0;
        let err = rel_err(implied_mj, row.strongarm_mj);
        assert!(err > 0.01 && err < 0.03, "err = {err}");
    }

    #[test]
    fn tate_timing_derives_from_p3_1ghz() {
        // 20 ms on P3-1GHz × 2.22 = 44.4 ms on P3-450 (paper §6).
        let p3 = CpuModel::p3_1ghz_to_450(20.0);
        assert!(rel_err(p3, 44.4) < 2e-3);
        // MapToPoint: IBE encrypt (35ms) − decrypt (27ms) = 8 ms → 17.78 ms.
        let mtp = CpuModel::p3_1ghz_to_450(8.0);
        assert!(rel_err(mtp, 17.78) < 2e-3);
    }

    #[test]
    fn energy_derivation_matches_printed_energies() {
        for op in [
            CompOp::MapToPoint,
            CompOp::EcScalarMul,
            CompOp::SignGen(Scheme::Sok),
            CompOp::SignGen(Scheme::Gq),
            CompOp::SignVerify(Scheme::Dsa),
            CompOp::SignVerify(Scheme::Sok),
            CompOp::SignVerify(Scheme::Gq),
        ] {
            let row = table2_row(op).unwrap();
            let (_, beta) = CpuModel::derive_strongarm(row.p3_450_ms);
            assert!(
                rel_err(beta, row.strongarm_mj) < 6e-3,
                "{op:?}: derived {beta} vs printed {}",
                row.strongarm_mj
            );
        }
    }

    #[test]
    fn negligible_ops_cost_zero() {
        let cpu = CpuModel::strongarm_133();
        for op in [
            CompOp::SymEnc,
            CompOp::SymDec,
            CompOp::Hash,
            CompOp::ModMul,
            CompOp::ModInv,
        ] {
            assert_eq!(cpu.op_energy_mj(op), 0.0);
        }
    }

    #[test]
    fn cert_verify_priced_as_sign_verify() {
        let cpu = CpuModel::strongarm_133();
        assert_eq!(
            cpu.op_energy_mj(CompOp::CertVerify(Scheme::Ecdsa)),
            cpu.op_energy_mj(CompOp::SignVerify(Scheme::Ecdsa))
        );
    }

    #[test]
    fn comp_energy_weights_counts() {
        let cpu = CpuModel::strongarm_133();
        let mut c = OpCounts::new();
        c.add(CompOp::ModExp, 3);
        c.add(CompOp::SignGen(Scheme::Gq), 1);
        c.add(CompOp::SignVerify(Scheme::Gq), 1);
        let e = comp_energy_mj(&cpu, &c);
        assert!((e - (3.0 * 9.1 + 18.2 + 18.2)).abs() < 1e-9);
    }
}
