//! # egka-medium
//!
//! A discrete-event, **virtual-clock** wireless medium for the `egka`
//! reproduction — the layer that turns the paper's Table 2/3 hardware
//! models into *simulated radio time* and *battery drain* instead of
//! leaving them as after-the-fact pricing.
//!
//! It also defines what every medium carries and counts: [`Packet`],
//! [`NodeId`] and [`TrafficStats`]. A protocol execution
//! (`egka_core::machine::Execution`) owns its packet medium: per-node
//! mailboxes, traffic counters and power flags. Without a radio that
//! medium delivers every [`Packet`] in zero time; good enough for
//! counting bits, useless for answering "how long does a rekey take on a
//! 100 kbps sensor radio, and which mote dies first?". This crate answers
//! both:
//!
//! * [`RadioMedium`] takes each resolved [`Transmission`] from the
//!   execution ([`RadioMedium::transmit`]), and [`RadioMedium::advance`]
//!   moves a virtual clock from delivery to delivery, handing each packet
//!   back to the execution;
//! * **airtime contention** — one shared channel, serialized at the
//!   transceiver's `data_rate_bps` (a 3000-bit broadcast on the 100 kbps
//!   radio occupies the channel for 30 virtual ms);
//! * **per-link delay** — fixed base + seeded uniform jitter per delivery
//!   ([`DelaySpec`]);
//! * **seeded loss** — the same [`Xorshift64Star`] stream family as the
//!   instant path, applied per delivery at transmit time;
//! * **battery-driven death** — every tx/rx bit and compute millijoule is
//!   debited from a shared [`BatteryBank`]; a drained node is powered off
//!   *mid-protocol* (its execution's detached flag is set), which is
//!   exactly the fault the scheduler layers above already know how to
//!   survive.
//!
//! Everything is deterministic per seed, and the
//! [`RadioProfile::ideal()`] configuration (zero delay, zero jitter, zero
//! loss) preserves the instant medium's arrival order exactly — upstream
//! goldens pin that equivalence bit for bit.
//!
//! ```
//! use egka_medium::BatteryBank;
//!
//! // Finite per-mote batteries: debits succeed until the capacity is
//! // spent, then the mote is dead and stays dead.
//! let bank = BatteryBank::new(1_000.0); // default capacity, µJ
//! bank.set_capacity(7, 5.0);
//! assert!(bank.debit(7, 4.0));
//! assert!(!bank.debit(7, 4.0)); // overdraw: mote 7 dies here
//! assert!(bank.is_dead(7));
//! assert_eq!(bank.dead(), vec![7]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod air;
mod battery;
mod packet;
mod profile;

pub use air::{RadioMedium, Transmission};
pub use battery::{BatteryBank, BatteryStatus};
pub use packet::{NodeId, Packet, TrafficStats, Xorshift64Star};
pub use profile::{DelaySpec, RadioProfile};
