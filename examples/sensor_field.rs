//! Sensor-field scenario: a battery budget under churn.
//!
//! A field of sensor nodes (133 MHz StrongARM + 100 kbps radio — the
//! paper's low-power profile) keeps a shared group key while nodes join
//! and fail over a day of operation. The example compares the cumulative
//! per-node energy of (a) the paper's dynamic protocols vs (b) re-running
//! authenticated BD for every membership change, and translates both into
//! battery drain.
//!
//! The initial deployment's GKA is executed **over the virtual-time
//! 100 kbps medium** (`egka-medium`): the channel serializes every
//! broadcast at 100 kbps, links add jitter, and each mote's battery is
//! debited per bit and per modular operation — so the time-to-key is
//! printed in simulated radio milliseconds, not host time.
//!
//! ```text
//! cargo run --example sensor_field
//! ```

use egka::prelude::*;
use egka_core::proposed::{gq_creds, GkaRun};
use egka_energy::complexity::{bd_reexec, DynamicEvent};

/// A pair of AA cells ≈ 2 × 1.5 V × 2500 mAh ≈ 27 kJ usable.
const BATTERY_J: f64 = 27_000.0;

fn main() {
    let mut rng = ChaChaRng::seed_from_u64(0x5e150);
    let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
    let cpu = CpuModel::strongarm_133();
    let radio = Transceiver::radio_100kbps();

    // Initial deployment: 16 motes agree on a key over the *virtual-time*
    // 100 kbps medium, each drawing from a fresh pair of AA cells.
    let n0 = 16;
    let keys = pkg.extract_group(64);
    let bank = BatteryBank::new(BATTERY_J * 1e6);
    let faults = Faults {
        radio: Some(RadioSpec {
            profile: RadioProfile::sensor_100kbps(),
            seed: 0xf1e1d,
            bank: Some(bank.clone()),
        }),
        ..Faults::default()
    };
    let mut gka = GkaRun::new(
        pkg.params(),
        &gq_creds(&keys[..n0]),
        1,
        RunConfig::default(),
        &faults,
    );
    loop {
        match gka.pump() {
            Pump::Progressed => {}
            Pump::Done => break,
            other => panic!("deployment GKA must complete, got {other:?}"),
        }
    }
    let air_ms = gka.virtual_elapsed_ms();
    let (report, mut session) = gka.finish();
    let initial_mj = total_energy_mj(&cpu, &radio, &report.nodes[0].counts);
    // `extract_group` hands out identities U0..U15 in order.
    let drawn_uj: f64 = (0..n0 as u32).map(|u| bank.spent_uj(u)).sum();
    println!(
        "deployment: {n0} motes agree on a key in {air_ms:.0} virtual ms on the \
         100 kbps channel\n            {initial_mj:.1} mJ per mote (priced); \
         {:.1} mJ drawn from the field's batteries\n",
        drawn_uj / 1000.0
    );

    // A day of churn: nodes join (new deployments) and die (battery/defect).
    // Track the busiest surviving node's cumulative energy.
    let mut ours_mj = initial_mj;
    let mut bd_mj = initial_mj;
    let mut next_id = n0 as u32;
    let mut events = 0u32;
    println!(
        "{:<8}{:<10}{:<14}{:<16}{:<16}",
        "hour", "event", "group size", "ours (mJ)", "BD re-run (mJ)"
    );
    for hour in 0..24u32 {
        let event_seed = 0x1000 + hour as u64;
        if hour % 3 == 0 {
            // A fresh mote is added to the field.
            let id = UserId(next_id);
            next_id += 1;
            let nk = pkg.extract(id);
            let out = egka::core::dynamics::join(&session, id, &nk, event_seed, true);
            // The busiest returning role in a Join is the sponsor U_n.
            let sponsor = &out.reports[session.n() - 1].counts;
            ours_mj += total_energy_mj(&cpu, &radio, sponsor);
            let bd = &bd_reexec(DynamicEvent::Join, session.n() as u64, 2, 2)[0].counts;
            bd_mj += total_energy_mj(&cpu, &radio, bd);
            session = out.session;
            events += 1;
            println!(
                "{:<8}{:<10}{:<14}{:<16.1}{:<16.1}",
                hour,
                "join",
                session.n(),
                ours_mj,
                bd_mj
            );
        } else if hour % 7 == 5 && session.n() > 6 {
            // A mote's battery dies.
            let out = egka::core::dynamics::leave(&session, session.n() / 2, event_seed);
            let odd = &out.reports[out.refreshers[0]].counts;
            ours_mj += total_energy_mj(&cpu, &radio, odd);
            let bd = &bd_reexec(DynamicEvent::Leave, session.n() as u64, 2, 2)[0].counts;
            bd_mj += total_energy_mj(&cpu, &radio, bd);
            session = out.session;
            events += 1;
            println!(
                "{:<8}{:<10}{:<14}{:<16.1}{:<16.1}",
                hour,
                "leave",
                session.n(),
                ours_mj,
                bd_mj
            );
        }
    }

    println!("\nafter {events} membership events:");
    println!(
        "  dynamic protocols: {ours_mj:>10.1} mJ  ({:.4}% of a AA pair)",
        ours_mj / 10.0 / BATTERY_J
    );
    println!(
        "  BD re-execution:   {bd_mj:>10.1} mJ  ({:.4}% of a AA pair)",
        bd_mj / 10.0 / BATTERY_J
    );
    println!("  advantage: {:.1}× less re-keying energy", bd_mj / ours_mj);
    let keying_budget = BATTERY_J * 0.01 * 1000.0; // 1% of the battery, in mJ
    println!(
        "  with 1% of the battery budgeted for re-keying, a mote survives\n  \
         ~{:.0} events under our protocols vs ~{:.0} under BD re-execution",
        keying_budget / (ours_mj / events as f64),
        keying_budget / (bd_mj / events as f64)
    );
}
