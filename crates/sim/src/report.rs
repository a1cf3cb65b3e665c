//! Report data structures and text/CSV renderers for the reproduced
//! tables and figure, plus the radio-scenario summary.

use egka_medium::BatteryStatus;

/// What running a scenario over the virtual-time radio adds to its
/// report: rekey latency in **virtual radio milliseconds** and the
/// battery ledger.
#[derive(Clone, Debug, Default)]
pub struct RadioSummary {
    /// `(p50, p95, p99)` virtual-ms latency across every committed rekey.
    pub latency_quantiles_ms: Option<(f64, f64, f64)>,
    /// Members whose battery drained to zero (each was powered off
    /// mid-protocol and auto-detached).
    pub nodes_died: u64,
    /// The dead, ascending by raw user id.
    pub died: Vec<u32>,
    /// Total energy drawn from all batteries, microjoules.
    pub total_spent_uj: f64,
    /// The heaviest spenders (top 5 by µJ drawn), for the per-node budget
    /// view.
    pub top_spenders: Vec<BatteryStatus>,
}

impl RadioSummary {
    /// Plain-text rendering appended to a scenario report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some((p50, p95, p99)) = self.latency_quantiles_ms {
            let _ = writeln!(
                out,
                "radio: rekey latency p50 {p50:.1} / p95 {p95:.1} / p99 {p99:.1} virtual ms"
            );
        }
        let _ = writeln!(
            out,
            "radio: {:.1} mJ drawn from batteries   {} node(s) died{}",
            self.total_spent_uj / 1000.0,
            self.nodes_died,
            if self.died.is_empty() {
                String::new()
            } else {
                format!(
                    " ({})",
                    self.died
                        .iter()
                        .map(|u| format!("U{u}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        );
        for s in &self.top_spenders {
            let _ = writeln!(
                out,
                "  U{:<6} spent {:>12.1} µJ   remaining {:>12}   {}",
                s.user,
                s.spent_uj,
                if s.capacity_uj.is_infinite() {
                    "∞".to_string()
                } else {
                    format!("{:.1} µJ", s.remaining_uj())
                },
                if s.dead { "DEAD" } else { "alive" }
            );
        }
        out
    }
}

/// How a data point's operation counts were obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Real protocol execution over the simulated medium, instrumented.
    Instrumented,
    /// Closed-form counts (validated against instrumented runs at the
    /// sizes that are executed).
    ClosedForm,
}

impl Source {
    /// One-character tag for table rendering.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Instrumented => "I",
            Source::ClosedForm => "C",
        }
    }
}

/// One point of Figure 1: per-node energy for (protocol, n, transceiver).
#[derive(Clone, Debug)]
pub struct Figure1Point {
    /// Protocol key (`proposed`, `bd_sok`, …).
    pub protocol: String,
    /// Curve label from the paper's legend (a–j).
    pub curve: char,
    /// Group size.
    pub n: u64,
    /// Transceiver name.
    pub transceiver: String,
    /// Computational energy, joules.
    pub comp_j: f64,
    /// Communication energy, joules.
    pub comm_j: f64,
    /// Total per-node energy, joules.
    pub total_j: f64,
    /// Count provenance.
    pub source: Source,
}

/// The full Figure 1 dataset.
#[derive(Clone, Debug, Default)]
pub struct Figure1 {
    /// All points (5 protocols × sizes × 2 transceivers).
    pub points: Vec<Figure1Point>,
}

impl Figure1 {
    /// CSV rendering (one row per point).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("protocol,curve,n,transceiver,comp_j,comm_j,total_j,source\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.6},{}\n",
                p.protocol,
                p.curve,
                p.n,
                p.transceiver,
                p.comp_j,
                p.comm_j,
                p.total_j,
                p.source.tag()
            ));
        }
        out
    }

    /// Looks up a point.
    pub fn get(&self, protocol: &str, n: u64, transceiver_contains: &str) -> Option<&Figure1Point> {
        self.points.iter().find(|p| {
            p.protocol == protocol && p.n == n && p.transceiver.contains(transceiver_contains)
        })
    }

    /// An ASCII log-scale rendering in the shape of the paper's Figure 1:
    /// energy (log10 J) against group size, one column block per n.
    pub fn to_ascii_chart(&self) -> String {
        let ns: Vec<u64> = {
            let mut v: Vec<u64> = self.points.iter().map(|p| p.n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut out = String::new();
        out.push_str("Energy consumed per node (J, log scale) — Figure 1 reproduction\n");
        let curves: Vec<(char, String, String)> = {
            let mut v: Vec<(char, String, String)> = self
                .points
                .iter()
                .map(|p| (p.curve, p.protocol.clone(), p.transceiver.clone()))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        for (curve, proto, radio) in &curves {
            out.push_str(&format!("  ({curve}) {proto:<10} {radio}\n"));
        }
        out.push('\n');
        // Rows: log10 bands from 100 J down to 0.01 J (paper's axis).
        let bands: Vec<f64> = (-2..=2).rev().map(|e| 10f64.powi(e)).collect();
        out.push_str("   J      ");
        for n in &ns {
            out.push_str(&format!("n={n:<7}"));
        }
        out.push('\n');
        for (bi, band) in bands.iter().enumerate() {
            let upper = band * 10.0;
            out.push_str(&format!("{band:>7} | "));
            for n in &ns {
                let mut cell: Vec<char> = Vec::new();
                for p in self.points.iter().filter(|p| p.n == *n) {
                    let in_band = if bi == 0 {
                        p.total_j >= *band
                    } else {
                        p.total_j >= *band && p.total_j < upper
                    };
                    if in_band {
                        cell.push(p.curve);
                    }
                }
                cell.sort_unstable();
                let s: String = cell.into_iter().collect();
                out.push_str(&format!("{s:<9}"));
            }
            out.push('\n');
        }
        out
    }
}

/// One row of the reproduced Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// "BD Join", "Our Join Protocol", …
    pub protocol: String,
    /// Role within the event ("U1", "Remain. Users", …).
    pub role: String,
    /// The paper's printed energy in joules.
    pub paper_j: f64,
    /// Our measured/derived energy in joules.
    pub measured_j: f64,
    /// Count provenance.
    pub source: Source,
}

impl Table5Row {
    /// Relative deviation from the paper's printed value.
    pub fn rel_err(&self) -> f64 {
        (self.measured_j - self.paper_j).abs() / self.paper_j
    }
}

/// The reproduced Table 5.
#[derive(Clone, Debug, Default)]
pub struct Table5 {
    /// All rows, paper order.
    pub rows: Vec<Table5Row>,
}

impl Table5 {
    /// Markdown rendering with paper-vs-measured columns.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| Protocol | Role | Paper (J) | Measured (J) | Δ% | Src |\n|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:+.1}% | {} |\n",
                r.protocol,
                r.role,
                r.paper_j,
                r.measured_j,
                (r.measured_j - r.paper_j) / r.paper_j * 100.0,
                r.source.tag()
            ));
        }
        out
    }

    /// Largest relative deviation across rows.
    pub fn max_rel_err(&self) -> f64 {
        self.rows.iter().map(|r| r.rel_err()).fold(0.0, f64::max)
    }
}

/// A generic markdown table builder used by the Table 1/2/3/4 printers.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(protocol: &str, curve: char, n: u64, total: f64) -> Figure1Point {
        Figure1Point {
            protocol: protocol.into(),
            curve,
            n,
            transceiver: "WLAN".into(),
            comp_j: total / 2.0,
            comm_j: total / 2.0,
            total_j: total,
            source: Source::Instrumented,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let f = Figure1 {
            points: vec![pt("proposed", 'j', 10, 0.07)],
        };
        let csv = f.to_csv();
        assert!(csv.starts_with("protocol,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("proposed,j,10"));
    }

    #[test]
    fn ascii_chart_places_curves_in_bands() {
        let f = Figure1 {
            points: vec![pt("proposed", 'j', 10, 0.07), pt("bd_sok", 'e', 10, 15.0)],
        };
        let chart = f.to_ascii_chart();
        assert!(chart.contains("(e)"));
        assert!(chart.contains("(j)"));
        // 15 J lands in the 10–100 band; 0.07 J in the 0.01–0.1 band.
        let band10 = chart
            .lines()
            .find(|l| l.trim_start().starts_with("10 "))
            .unwrap();
        assert!(band10.contains('e'), "{band10}");
    }

    #[test]
    fn table5_markdown_and_errors() {
        let t = Table5 {
            rows: vec![Table5Row {
                protocol: "BD Join".into(),
                role: "U1 - Un".into(),
                paper_j: 1.234,
                measured_j: 1.235,
                source: Source::ClosedForm,
            }],
        };
        assert!(t.to_markdown().contains("| BD Join |"));
        assert!(t.max_rel_err() < 0.001);
    }

    #[test]
    fn generic_markdown_table_shape() {
        let md = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(md.lines().count(), 3);
    }
}
