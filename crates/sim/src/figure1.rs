//! Figure 1 reproduction: total per-node energy of the five authenticated
//! GKA protocols at `n ∈ {10, 50, 100, 500}` on both transceivers.
//!
//! Points at `n ≤ max_instrumented_n` come from **instrumented protocol
//! executions** (real crypto over the simulated medium; the runner asserts
//! instrumented counts equal the closed form before using them). Larger
//! points use the validated closed form — on a 2-core box a fully
//! instrumented SOK run at `n = 500` costs ~750k Tate pairings, which is
//! paid only when explicitly requested.
//!
//! Cells of the (protocol × n) sweep run in parallel on scoped threads.

use egka_energy::complexity::InitialProtocol;
use egka_energy::{comm_energy_mj, comp_energy_mj, CpuModel, OpCounts, Transceiver};

use crate::report::{Figure1, Figure1Point, Source};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct Figure1Config {
    /// Group sizes (paper: 10, 50, 100, 500).
    pub sizes: Vec<u64>,
    /// Instrument real runs up to this `n`; closed form beyond.
    pub max_instrumented_n: u64,
    /// RNG seed for the instrumented runs.
    pub seed: u64,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Figure1Config {
            sizes: vec![10, 50, 100, 500],
            max_instrumented_n: 50,
            seed: 0xf16_0001,
        }
    }
}

/// The paper's legend: (protocol, transceiver index) → curve letter a–j.
pub fn curve_letter(protocol: InitialProtocol, radio_idx: usize) -> char {
    // Figure 1 legend order: a/b ECDSA, c/d DSA, e/f SOK, g/h SSN,
    // i/j proposed; odd letters = 100 kbps, even = WLAN.
    let base = match protocol {
        InitialProtocol::BdEcdsa => 0,
        InitialProtocol::BdDsa => 2,
        InitialProtocol::BdSok => 4,
        InitialProtocol::Ssn => 6,
        InitialProtocol::ProposedGqBatch => 8,
    };
    (b'a' + base + radio_idx as u8) as char
}

/// Runs the sweep and returns the figure dataset.
pub fn generate(config: &Figure1Config) -> Figure1 {
    let cpu = CpuModel::strongarm_133();
    let radios = Transceiver::paper_pair();

    // One work item per (protocol, n): obtain per-user counts once, then
    // price them under both radios.
    let cells: Vec<(InitialProtocol, u64)> = InitialProtocol::ALL
        .iter()
        .flat_map(|&p| config.sizes.iter().map(move |&n| (p, n)))
        .collect();

    let counted: Vec<(OpCounts, Source)> = std::thread::scope(|scope| {
        let workers: Vec<_> = cells
            .iter()
            .map(|&(protocol, n)| scope.spawn(move || cell_counts(protocol, n, config)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut points = Vec::new();
    for (&(protocol, n), (counts, source)) in cells.iter().zip(counted) {
        for (ri, radio) in radios.iter().enumerate() {
            let comp_j = comp_energy_mj(&cpu, &counts) / 1000.0;
            let comm_j = comm_energy_mj(radio, &counts) / 1000.0;
            points.push(Figure1Point {
                protocol: protocol.key().to_string(),
                curve: curve_letter(protocol, ri),
                n,
                transceiver: radio.name.clone(),
                comp_j,
                comm_j,
                total_j: comp_j + comm_j,
                source,
            });
        }
    }
    points.sort_by_key(|a| (a.curve, a.n));
    Figure1 { points }
}

fn cell_counts(protocol: InitialProtocol, n: u64, config: &Figure1Config) -> (OpCounts, Source) {
    if n <= config.max_instrumented_n {
        (
            crate::scenario::run_initial(protocol, n as usize, config.seed ^ n),
            Source::Instrumented,
        )
    } else {
        (protocol.per_user_counts(n), Source::ClosedForm)
    }
}

/// The qualitative claims Figure 1 makes; asserted by tests and printed by
/// the repro binary.
pub fn check_shape(fig: &Figure1) -> Result<(), String> {
    let sizes: Vec<u64> = {
        let mut v: Vec<u64> = fig.points.iter().map(|p| p.n).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for n in &sizes {
        for radio in ["100kbps", "WLAN"] {
            let get = |proto: &str| {
                fig.get(proto, *n, radio)
                    .map(|p| p.total_j)
                    .ok_or_else(|| format!("missing point {proto}/{n}/{radio}"))
            };
            let proposed = get("proposed")?;
            for other in ["bd_sok", "bd_ecdsa", "bd_dsa", "ssn"] {
                let e = get(other)?;
                if proposed >= e {
                    return Err(format!(
                        "proposed ({proposed} J) not cheapest vs {other} ({e} J) at n={n}, {radio}"
                    ));
                }
            }
        }
    }
    // SOK is the most expensive protocol at scale (its verification is
    // pairing-bound), on both radios.
    if let Some(&n_max) = sizes.last() {
        for radio in ["100kbps", "WLAN"] {
            let sok = fig.get("bd_sok", n_max, radio).unwrap().total_j;
            for other in ["proposed", "bd_ecdsa", "bd_dsa", "ssn"] {
                let e = fig.get(other, n_max, radio).unwrap().total_j;
                if sok <= e {
                    return Err(format!(
                        "SOK ({sok} J) not dominant vs {other} ({e} J) at n={n_max}, {radio}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small instrumented sweep: n ∈ {4, 8}, everything executed for real.
    #[test]
    fn small_instrumented_sweep_has_paper_shape() {
        let config = Figure1Config {
            sizes: vec![4, 8],
            max_instrumented_n: 8,
            seed: 1,
        };
        let fig = generate(&config);
        assert_eq!(fig.points.len(), 5 * 2 * 2);
        assert!(fig.points.iter().all(|p| p.source == Source::Instrumented));
        check_shape(&fig).expect("paper shape");
    }

    #[test]
    fn closed_form_extends_instrumented_consistently() {
        // The same cell computed both ways must agree exactly (the runner
        // asserts counts match; energies follow).
        let inst = generate(&Figure1Config {
            sizes: vec![10],
            max_instrumented_n: 10,
            seed: 2,
        });
        let closed = generate(&Figure1Config {
            sizes: vec![10],
            max_instrumented_n: 0,
            seed: 2,
        });
        for (a, b) in inst.points.iter().zip(closed.points.iter()) {
            assert_eq!(a.curve, b.curve);
            assert!((a.total_j - b.total_j).abs() < 1e-12, "curve {}", a.curve);
        }
    }

    #[test]
    fn curve_letters_cover_a_through_j() {
        let mut letters: Vec<char> = InitialProtocol::ALL
            .iter()
            .flat_map(|&p| [curve_letter(p, 0), curve_letter(p, 1)])
            .collect();
        letters.sort_unstable();
        assert_eq!(letters, ('a'..='j').collect::<Vec<_>>());
    }
}
