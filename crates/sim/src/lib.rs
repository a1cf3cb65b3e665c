//! # egka-sim
//!
//! The experiment harness: turns real, instrumented protocol runs (from
//! `egka-core`, each over the medium it owns) plus the paper's energy
//! model (from `egka-energy`) into the paper's evaluation artifacts:
//!
//! * [`figure1`] — total per-node energy of the five authenticated GKA
//!   protocols, `n ∈ {10, 50, 100, 500}`, both transceivers (Figure 1);
//! * [`tables`] — the dynamic-protocol energy table (Table 5, per role,
//!   paper-vs-measured) and measured message counts for Table 4;
//! * [`scenario`] — single-protocol runners that assert instrumented counts
//!   equal the closed forms before anything is priced;
//! * [`churn`] — Poisson join/leave traffic over thousands of concurrent
//!   groups, driving the `egka-service` epoch-batched rekey coordinator;
//! * [`report`] — datasets with CSV/markdown/ASCII-chart renderers.
//!
//! The `egka-bench` crate's `repro_*` binaries are thin wrappers over this
//! crate.
//!
//! ```
//! use egka_energy::InitialProtocol;
//! use egka_sim::scenario::run_initial;
//!
//! // A real 4-member run of the paper's proposal at toy parameters; the
//! // runner asserts the instrumented counts match the closed forms
//! // before returning them, and the counts are deterministic per seed.
//! let counts = run_initial(InitialProtocol::ProposedGqBatch, 4, 1);
//! assert!(counts.tx_bits > 0);
//! assert_eq!(counts, run_initial(InitialProtocol::ProposedGqBatch, 4, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod figure1;
pub mod latency;
pub mod report;
pub mod scenario;
pub mod tables;

pub use churn::{
    run_churn, run_churn_with_crash, ChurnConfig, ChurnReport, CrashSummary, FaultSpec,
    RadioChurnConfig, ReshardPlan, SuiteBreakdown,
};
pub use figure1::{check_shape, curve_letter, generate as generate_figure1, Figure1Config};
pub use latency::{initial_gka_latency, node_latency, LatencyEstimate};
pub use report::{Figure1, Figure1Point, RadioSummary, Source, Table5, Table5Row};
pub use tables::{generate_table5, measured_dynamic_msgs, Table5Config, PAPER_TABLE5};
