//! # egka-core
//!
//! The protocols of Tan & Teo, *"Energy-Efficient ID-based Group Key
//! Agreement Protocols for Wireless Networks"* (IPPS 2006):
//!
//! * [`bd`] — the Burmester–Desmedt arithmetic core every variant shares;
//! * [`proposed`] — the paper's proposal (§4): BD authenticated by the GQ
//!   variant with **batch verification** (eq. (2)) and the Lemma-1 check,
//!   including the "all members retransmit" failure path with fault
//!   injection;
//! * [`authbd`] — the Table 1 baselines: BD signed per-user with SOK
//!   (pairing), ECDSA + certificates, or DSA + certificates;
//! * [`ssn`] — the Saeednia–Safavi-Naini ID-based baseline (2n+4
//!   exponentiations, implicit per-sender authentication);
//! * [`dynamics`] — the four dynamic membership protocols (§7): Join,
//!   Leave, Merge, Partition, using real symmetric envelopes over the
//!   current group key;
//! * [`machine`] — the sans-IO round engine: every protocol above is a
//!   poll-driven [`machine::RoundMachine`] (no endpoint calls inside
//!   protocol logic), pumpable by a scheduler that interleaves many
//!   groups on one thread;
//! * [`mod@suite`] — the protocol-erased boundary: every protocol above
//!   packaged as an object-safe [`suite::Suite`] (stable [`suite::SuiteId`],
//!   boxed pumpable runs for the initial GKA and the §7 dynamics, closed-form
//!   cost hooks) so multi-protocol services program against `dyn Suite`;
//! * [`params`] — the PKG Setup (paper §4) with paper/medium/toy security
//!   profiles and a pinned 1024-bit fixture;
//! * [`group`] — the session state the dynamic protocols consume;
//! * [`wire`], [`ident`], [`par`] — codecs, identities, per-round fan-out.
//!
//! Every protocol executes **for real** — keys are derived by actual
//! modular arithmetic on every simulated node, signatures really verify —
//! over a broadcast medium each run owns ([`machine::Execution`]; packets
//! and the optional virtual-time radio come from `egka-medium`), with
//! per-node [`egka_energy::Meter`] instrumentation at exactly the
//! granularity the paper's cost model prices. The `egka-sim` crate turns
//! these runs into Figure 1 and Tables 1/4/5.
//!
//! ```
//! use egka_core::{proposed, Pkg, RunConfig, SecurityProfile};
//! use egka_hash::ChaChaRng;
//! use rand::SeedableRng;
//!
//! // A real 4-member run of the paper's proposal (BD + GQ batch
//! // verification) at toy parameters: every member derives the same key.
//! let mut rng = ChaChaRng::seed_from_u64(1);
//! let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
//! let keys = pkg.extract_group(4);
//! let (report, _session) = proposed::run(pkg.params(), &keys, 1, RunConfig::default());
//! assert!(report.keys_agree());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authbd;
pub mod bd;
pub mod dynamics;
pub mod group;
pub mod ident;
pub mod machine;
pub mod par;
pub mod params;
pub mod proposed;
pub mod ssn;
pub mod suite;
pub mod wire;

pub use authbd::AuthKit;
pub use group::{GroupSession, MemberState};
pub use ident::UserId;
pub use machine::{
    Dest, Faults, Outgoing, ProtocolFault, Pump, RadioSpec, RoundMachine, SessionKey, Step,
};
pub use params::{
    paper_fixture, Authority, Credential, DsaCredential, EcdsaCredential, Params, Pkg,
    SecurityProfile,
};
pub use proposed::{Fault, NodeReport, RunConfig, RunReport};
pub use suite::{suite, StepCtx, Suite, SuiteId, SuiteOutcome, SuiteRun};
