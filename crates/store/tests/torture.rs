//! Framing-layer torture: arbitrary damage to a WAL byte stream must
//! yield a clean record prefix or a typed error — never a panic, never a
//! record that was not written.

use egka_store::{frame, scan, MemStore, StoreError, Tail};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random record payloads (length varies 1..=200;
/// no frame holds an empty payload).
fn records(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = 1 + (rng.next_u64() % 200) as usize;
            let mut payload = vec![0u8; len];
            rng.fill_bytes(&mut payload);
            payload
        })
        .collect()
}

fn log_of(records: &[Vec<u8>]) -> Vec<u8> {
    let mut log = Vec::new();
    for r in records {
        log.extend_from_slice(&frame(r).unwrap());
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any byte offset scans to a strict prefix of the
    /// written records, byte-identical, with no error.
    #[test]
    fn truncation_scans_to_a_strict_prefix(
        seed in any::<u64>(),
        n in 1usize..12,
        cut_permille in 0u64..1000,
    ) {
        let written = records(seed, n);
        let log = log_of(&written);
        let cut = (log.len() as u64 * cut_permille / 1000) as usize;
        let (scanned, tail) = scan(&log[..cut]).expect("truncation is never Corrupt");
        prop_assert!(scanned.len() <= written.len());
        for (got, want) in scanned.iter().zip(&written) {
            prop_assert_eq!(*got, want.as_slice());
        }
        if cut < log.len() {
            // Shorter than the full log: either we cut exactly on a frame
            // boundary (clean) or inside one (torn); both are prefixes.
            prop_assert!(scanned.len() < written.len() || matches!(tail, Tail::Clean));
        }
    }

    /// A single flipped bit anywhere in the stream is either caught by a
    /// checksum (typed Corrupt) or confined to the length field of a
    /// frame, where it reads as a torn tail — still a strict prefix of
    /// intact records.
    #[test]
    fn bitflip_is_corrupt_or_a_strict_prefix(
        seed in any::<u64>(),
        n in 1usize..10,
        pos_permille in 0u64..1000,
        bit in 0u8..8,
    ) {
        let written = records(seed, n);
        let mut log = log_of(&written);
        let at = (log.len() as u64 * pos_permille / 1000) as usize % log.len();
        log[at] ^= 1 << bit;
        match scan(&log) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok((scanned, _)) => {
                // Every record surfaced must be one that was written, in
                // order, from the start.
                prop_assert!(scanned.len() <= written.len());
                for (got, want) in scanned.iter().zip(&written) {
                    prop_assert_eq!(*got, want.as_slice());
                }
                prop_assert!(
                    scanned.len() < written.len(),
                    "a flipped bit cannot leave every frame intact"
                );
            }
        }
    }
}

/// The backends persist through the same framing, so a `MemStore` carrying
/// a damaged stream reports exactly what `scan` reports.
#[test]
fn store_surface_matches_scan_contract() {
    let written = records(7, 5);
    let log = log_of(&written);
    for cut in [0, 1, log.len() / 3, log.len() - 1, log.len()] {
        let store = MemStore::with_raw(log[..cut].to_vec(), None);
        let got = egka_store::wal_records(&store).expect("truncation is clean");
        assert!(got.len() <= written.len());
        for (g, w) in got.iter().zip(&written) {
            assert_eq!(g, w);
        }
    }
    let mut damaged = log;
    damaged[10] ^= 0xFF;
    let store = MemStore::with_raw(damaged, None);
    assert!(matches!(
        egka_store::wal_records(&store),
        Err(StoreError::Corrupt { .. })
    ));
}
