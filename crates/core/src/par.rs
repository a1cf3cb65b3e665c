//! Tiny data-parallel helper for per-node round computation.
//!
//! Protocol drivers run every node's round-`k` computation before any
//! node's round-`k+1` (lockstep rounds, exactly the paper's model). Within
//! a round the nodes are independent, so the driver fans the slice of node
//! states across scoped threads. On a 2-core host this cuts the median
//! wall time of `repro_figure1` 1.84× and of `repro_table5` 1.32× against
//! sequential sweeps (README, "Performance").

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every element, in parallel across up to
/// [`worker_count`] scoped threads. Indexes are the element positions.
///
/// Work is distributed by atomic work-stealing counter rather than fixed
/// chunks: protocol roles are asymmetric (the controller does more), so
/// static chunking would leave threads idle.
///
/// # Panics
/// If `f` panics on any element, this re-raises the original payload of
/// the lowest-index element that panicked — the same panic a sequential
/// loop would surface, whatever the host's core count.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_on(worker_count(), items, f);
}

/// [`par_for_each_mut`] on at most `workers` threads.
fn par_for_each_mut_on<T, F>(workers: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = workers.min(items.len().max(1));
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    // Hand out &mut T cells through a Vec of Mutexes claimed by the atomic
    // ticket: each index is claimed exactly once, so every lock is
    // uncontended and the whole thing stays free of unsafe code.
    let cells: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    // A worker stops at its first panicking element and returns it with
    // the payload; tickets are claimed in index order, so every element
    // below a panicking one has run by the time all workers are joined.
    let panicked: Option<(usize, Box<dyn Any + Send>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        return None;
                    }
                    let mut guard = cells[i].lock().expect("ticketed lock is uncontended");
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, &mut guard))) {
                        return Some((i, payload));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Some((usize::MAX, payload)))
            })
            .min_by_key(|&(i, _)| i)
    });
    if let Some((_, payload)) = panicked {
        resume_unwind(payload);
    }
}

/// Number of worker threads used for per-node fan-out (the machine's
/// available parallelism, falling back to 1).
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_to_every_element_once() {
        let mut v: Vec<u64> = (0..1000).collect();
        par_for_each_mut(&mut v, |i, x| {
            assert_eq!(*x, i as u64);
            *x += 1;
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn handles_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![7u32];
        par_for_each_mut(&mut one, |_, x| *x = 8);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Element 0 is much heavier; the ticket counter keeps other threads
        // busy with the rest. (Correctness check, not a timing assertion.)
        let mut v = vec![0u64; 64];
        par_for_each_mut(&mut v, |i, x| {
            let spins = if i == 0 { 100_000 } else { 100 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k);
            }
            *x = acc;
        });
        assert!(v.iter().all(|&x| x > 0));
    }

    #[test]
    fn worker_panic_keeps_the_lowest_index_payload() {
        // Four workers regardless of the host's core count; items 3 and 5
        // both panic, and the caller sees item 3's own message.
        let mut v = vec![0u32; 16];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_for_each_mut_on(4, &mut v, |i, _| {
                if i == 3 || i == 5 {
                    panic!("item {i} failed");
                }
            })
        }))
        .expect_err("a worker panicked");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("item 3 failed")
        );
    }
}
