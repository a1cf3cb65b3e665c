//! Per-node energy budgets that persist across protocol runs.
//!
//! A protocol execution lives for one rekey step; a sensor node's battery
//! lives for the deployment. The [`BatteryBank`] is the bridge: a shared
//! registry of per-user budgets (microjoules) that every
//! [`crate::RadioMedium`] debits as its nodes transmit, receive and
//! compute. When a cell's budget is exhausted the node is **dead** — the
//! medium powers it off mid-protocol and the bank remembers, so the next
//! step's medium never hears from it again.
//!
//! Cells are keyed by the raw 32-bit user identity (`UserId.0` upstream);
//! this crate sits below `egka-core` and cannot name the typed id.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// `lock` fails only after a thread panicked while holding the lock,
/// leaving its update half done: a bug, not a state to recover.
const POISONED: &str = "a thread panicked while holding the battery bank";

/// One node's budget snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryStatus {
    /// Raw 32-bit user identity.
    pub user: u32,
    /// Installed capacity in microjoules (`f64::INFINITY` = mains power).
    pub capacity_uj: f64,
    /// Total energy debited so far, microjoules.
    pub spent_uj: f64,
    /// True once `spent_uj >= capacity_uj`: the node is powered off.
    pub dead: bool,
}

impl BatteryStatus {
    /// Remaining charge, microjoules (never negative).
    pub fn remaining_uj(&self) -> f64 {
        (self.capacity_uj - self.spent_uj).max(0.0)
    }
}

#[derive(Clone, Debug)]
struct Cell {
    capacity_uj: f64,
    spent_uj: f64,
}

#[derive(Debug, Default)]
struct BankState {
    cells: BTreeMap<u32, Cell>,
    default_capacity_uj: f64,
}

/// Shared per-user energy budgets. Cloning is cheap (`Arc`); all clones
/// observe the same cells, so a service hands one bank to every epoch's
/// protocol executions and the drain accumulates.
#[derive(Clone, Debug)]
pub struct BatteryBank {
    inner: Arc<Mutex<BankState>>,
}

impl Default for BatteryBank {
    fn default() -> Self {
        Self::infinite()
    }
}

impl BatteryBank {
    /// A bank whose users get `default_capacity_uj` microjoules when first
    /// seen. Individual users can be re-celled with
    /// [`BatteryBank::set_capacity`].
    pub fn new(default_capacity_uj: f64) -> Self {
        BatteryBank {
            inner: Arc::new(Mutex::new(BankState {
                cells: BTreeMap::new(),
                default_capacity_uj,
            })),
        }
    }

    /// A bank of mains-powered nodes: debits accumulate (for reporting)
    /// but nobody ever dies.
    pub fn infinite() -> Self {
        Self::new(f64::INFINITY)
    }

    /// Installs (or replaces) `user`'s cell with `capacity_uj`. Spent
    /// energy is preserved, so shrinking a budget below what is already
    /// spent kills the node at its next debit check.
    pub fn set_capacity(&self, user: u32, capacity_uj: f64) {
        let mut bank = self.inner.lock().expect(POISONED);
        let default = bank.default_capacity_uj;
        bank.cells
            .entry(user)
            .or_insert(Cell {
                capacity_uj: default,
                spent_uj: 0.0,
            })
            .capacity_uj = capacity_uj;
    }

    /// Debits `uj` from `user`'s cell and reports whether the node is
    /// still alive afterwards. Dead nodes keep accepting debits (their
    /// radio may be mid-packet when the battery browns out) but stay dead.
    pub fn debit(&self, user: u32, uj: f64) -> bool {
        let mut bank = self.inner.lock().expect(POISONED);
        let default = bank.default_capacity_uj;
        let cell = bank.cells.entry(user).or_insert(Cell {
            capacity_uj: default,
            spent_uj: 0.0,
        });
        cell.spent_uj += uj;
        cell.spent_uj < cell.capacity_uj
    }

    /// Whether `user` has exhausted its budget.
    pub fn is_dead(&self, user: u32) -> bool {
        let bank = self.inner.lock().expect(POISONED);
        match bank.cells.get(&user) {
            Some(c) => c.spent_uj >= c.capacity_uj,
            None => bank.default_capacity_uj <= 0.0,
        }
    }

    /// Energy `user` has spent so far, microjoules (0 if never seen).
    pub fn spent_uj(&self, user: u32) -> f64 {
        self.inner
            .lock()
            .expect(POISONED)
            .cells
            .get(&user)
            .map_or(0.0, |c| c.spent_uj)
    }

    /// All users whose budget is exhausted, ascending by id.
    pub fn dead(&self) -> Vec<u32> {
        self.inner
            .lock()
            .expect(POISONED)
            .cells
            .iter()
            .filter(|(_, c)| c.spent_uj >= c.capacity_uj)
            .map(|(&u, _)| u)
            .collect()
    }

    /// Snapshot of every cell the bank has seen, ascending by id.
    pub fn snapshot(&self) -> Vec<BatteryStatus> {
        self.inner
            .lock()
            .expect(POISONED)
            .cells
            .iter()
            .map(|(&user, c)| BatteryStatus {
                user,
                capacity_uj: c.capacity_uj,
                spent_uj: c.spent_uj,
                dead: c.spent_uj >= c.capacity_uj,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debit_drains_and_kills() {
        let bank = BatteryBank::new(100.0);
        assert!(bank.debit(7, 40.0));
        assert!(bank.debit(7, 40.0));
        assert!(!bank.is_dead(7));
        assert!(!bank.debit(7, 40.0), "120 µJ spent of 100 µJ: dead");
        assert!(bank.is_dead(7));
        assert_eq!(bank.dead(), vec![7]);
        let snap = bank.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].dead);
        assert_eq!(snap[0].remaining_uj(), 0.0);
        assert!((bank.spent_uj(7) - 120.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_bank_accounts_but_never_kills() {
        let bank = BatteryBank::infinite();
        assert!(bank.debit(1, 1e18));
        assert!(!bank.is_dead(1));
        assert!(bank.dead().is_empty());
        assert!((bank.spent_uj(1) - 1e18).abs() < 1e6);
    }

    #[test]
    fn clones_share_cells() {
        let bank = BatteryBank::new(10.0);
        let other = bank.clone();
        other.debit(3, 15.0);
        assert!(bank.is_dead(3));
    }

    #[test]
    fn per_user_capacity_overrides_default() {
        let bank = BatteryBank::new(1000.0);
        bank.set_capacity(5, 1.0);
        assert!(!bank.debit(5, 2.0));
        assert!(bank.debit(6, 2.0), "other users keep the default");
    }
}
