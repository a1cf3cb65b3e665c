//! Tamper resilience: what the proposed protocol's two checks actually
//! catch, and what retransmission costs.
//!
//! The batch verification (paper eq. (2)) guards the *signatures* over the
//! Round-1 material; Lemma 1 (`∏ X_i ≡ 1 mod p`) guards the Round-2 values
//! that the signatures do not cover. This example injects both corruptions,
//! shows each check firing, and compares the energy of a clean run against
//! one that needed the paper's "all members retransmit" recovery.
//!
//! ```text
//! cargo run --example tamper_resilience
//! ```

use egka::prelude::*;

fn main() {
    let mut rng = ChaChaRng::seed_from_u64(0xbad);
    let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
    let keys = pkg.extract_group(6);
    let cpu = CpuModel::strongarm_133();
    let radio = Transceiver::radio_100kbps();

    // Clean run.
    let (clean, _) = proposed::run(pkg.params(), &keys, 10, RunConfig::default());
    let clean_mj = total_energy_mj(&cpu, &radio, &clean.nodes[0].counts);
    println!(
        "clean run: {} attempt(s), {clean_mj:.1} mJ per node",
        clean.attempts
    );

    // A node corrupts its Round-2 share X_i: the signatures all verify
    // (they never covered X), but Lemma 1 fails and everyone retransmits.
    let (lemma_run, _) = proposed::run(
        pkg.params(),
        &keys,
        10,
        RunConfig {
            max_attempts: 3,
            fault: Some(Fault::CorruptX {
                node: 2,
                on_attempt: 0,
            }),
        },
    );
    let lemma_mj = total_energy_mj(&cpu, &radio, &lemma_run.nodes[0].counts);
    println!(
        "corrupted X_i: caught by Lemma 1, {} attempts, {lemma_mj:.1} mJ per node \
         ({:.2}× clean)",
        lemma_run.attempts,
        lemma_mj / clean_mj
    );
    assert!(lemma_run.keys_agree());

    // A node corrupts its response s_i: the aggregate GQ check (eq. (2))
    // fails before any key material is used.
    let (batch_run, _) = proposed::run(
        pkg.params(),
        &keys,
        10,
        RunConfig {
            max_attempts: 3,
            fault: Some(Fault::CorruptS {
                node: 4,
                on_attempt: 0,
            }),
        },
    );
    let batch_mj = total_energy_mj(&cpu, &radio, &batch_run.nodes[0].counts);
    println!(
        "corrupted s_i: caught by batch verification, {} attempts, {batch_mj:.1} mJ per node",
        batch_run.attempts
    );
    assert!(batch_run.keys_agree());

    // Both recoveries converge on the same number of extra attempts: one
    // full protocol re-run — the paper's stated recovery, now with a price.
    println!(
        "\nretransmission premium on the 100 kbps radio: +{:.1} mJ per node per recovery",
        lemma_mj - clean_mj
    );

    // Lossy medium: the paper assumes reliable broadcast; each run's medium
    // can drop packets to show where that assumption bites.
    println!(
        "\n(see egka_core::Faults::loss for loss injection: a dropped round\n\
         message stalls the run instead of blocking it, and the key service\n\
         retries the step with a fresh loss seed — KeyService::set_loss)"
    );
}
