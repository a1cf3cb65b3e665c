//! # egka — Energy-Efficient ID-based Group Key Agreement
//!
//! A full, from-scratch Rust reproduction of
//!
//! > Chik How Tan and Joseph Chee Ming Teo,
//! > *"Energy-Efficient ID-based Group Key Agreement Protocols for Wireless
//! > Networks"*, IPPS/IPDPS 2006,
//!
//! including every substrate the paper depends on: arbitrary-precision
//! arithmetic, SHA-1/256/512 + HMAC + HKDF + a ChaCha20 CSPRNG, AES with
//! authenticated envelopes, elliptic curves with a Tate pairing, four
//! signature schemes (GQ with batch verification, DSA, ECDSA, SOK),
//! certificates + CA, a simulated wireless broadcast medium, the paper's
//! complete energy cost model, and harnesses that regenerate every table
//! and figure of its evaluation.
//!
//! ## Quick start
//!
//! ```
//! use egka::prelude::*;
//!
//! // The PKG runs Setup (toy sizes keep doctests fast; use
//! // SecurityProfile::Paper or `paper_fixture()` for 1024-bit parameters).
//! let mut rng = ChaChaRng::seed_from_u64(7);
//! let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
//! let keys = pkg.extract_group(5);
//!
//! // Five users run the proposed authenticated GKA over a simulated
//! // broadcast medium: two rounds, one batch verification each.
//! let (report, session) = proposed::run(pkg.params(), &keys, 42, RunConfig::default());
//! assert!(report.keys_agree());
//!
//! // A sixth user joins with three unicast/multicast messages instead of
//! // a full re-run.
//! let new_key = pkg.extract(UserId(5));
//! let joined = dynamics::join(&session, UserId(5), &new_key, 43, true);
//! assert_ne!(joined.session.key, session.key);
//!
//! // Energy per node, exactly as the paper prices it.
//! let counts = &report.nodes[0].counts;
//! let mj = total_energy_mj(
//!     &CpuModel::strongarm_133(),
//!     &Transceiver::wlan_spectrum24(),
//!     counts,
//! );
//! assert!(mj > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`bigint`] | limbed integers, Montgomery, Miller–Rabin, Schnorr groups |
//! | [`hash`] | SHA-1/256/512, HMAC, HKDF, ChaCha20 RNG, full-domain hashes |
//! | [`symmetric`] | AES-128/192/256, CBC/CTR, the `E_K(·)` envelope |
//! | [`ec`] | prime fields, curves, wNAF, supersingular Tate pairing |
//! | [`sig`] | GQ (+ batch), DSA, ECDSA, SOK, certificates, CA |
//! | [`energy`] | Tables 2/3 cost models, meters, Tables 1/4/5 closed forms |
//! | [`medium`] | packets, per-node bit accounting, virtual-time radio (link delay, airtime contention, batteries) |
//! | [`core`] | the five GKA protocols + Join/Leave/Merge/Partition |
//! | [`store`] | durable group state: checksummed WAL + compacting snapshots |
//! | [`service`] | sharded multi-group key management, epoch-batched rekeying, crash recovery |
//! | [`robust`] | identifiable-abort eviction: blame certificates, quarantine, backoff |
//! | [`trace`] | virtual-clock structured tracing, metrics registry, Chrome-trace/flame export |
//! | [`sim`] | Figure 1 and Table 4/5 harnesses, churn workloads, reports |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use egka_bigint as bigint;
pub use egka_core as core;
pub use egka_ec as ec;
pub use egka_energy as energy;
pub use egka_hash as hash;
pub use egka_medium as medium;
pub use egka_robust as robust;
pub use egka_service as service;
pub use egka_sig as sig;
pub use egka_sim as sim;
pub use egka_store as store;
pub use egka_symmetric as symmetric;
pub use egka_trace as trace;

/// The most common imports for working with the reproduction.
pub mod prelude {
    pub use egka_bigint::{SchnorrGroup, Ubig};
    pub use egka_core::{
        authbd, dynamics, proposed, ssn, suite::suite, AuthKit, Fault, Faults, GroupSession,
        Params, Pkg, Pump, RadioSpec, RunConfig, SecurityProfile, Suite, SuiteId, SuiteRun, UserId,
    };
    pub use egka_energy::{
        complexity::InitialProtocol, total_energy_mj, CompOp, CpuModel, Meter, OpCounts, Scheme,
        Transceiver,
    };
    pub use egka_hash::ChaChaRng;
    pub use egka_medium::{BatteryBank, RadioProfile};
    pub use egka_robust::{BlameCert, EvictionPolicy, Quarantine};
    pub use egka_service::{
        EpochReport, FileStore, GroupId, HealthReport, KeyService, MemStore, MembershipEvent,
        RecoveryReport, ServiceBuilder, ServiceMetrics, StallCause, StallLedger, StoreConfig,
        SuitePolicy,
    };
    pub use egka_sim::{Figure1Config, Table5Config};
    pub use rand::SeedableRng;
}
