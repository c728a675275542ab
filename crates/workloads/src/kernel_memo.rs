//! Per-oracle memo of bounded kernel makespans.
//!
//! A tuning search prices many configs that compile to the same kernel: an
//! `order`/`mode` twin has the same [`OverlapConfig::priced_projection`], so
//! its task graphs — and makespans — are identical. [`KernelMemo`] lets an
//! oracle price each distinct kernel once and replay the answer for every
//! later budget without compiling or simulating again.
//!
//! Replay is exact because a bounded simulation finishes if and only if the
//! makespan is not above its cutoff. A memoised exact makespan `m` therefore
//! answers every budget: `Finished(m)` when `m <= budget`, else
//! `Exceeded(m)` (a floor at least as large as the one the simulation would
//! have aborted with). A memoised floor `f` from an earlier abort answers
//! only budgets below it; any other budget simulates again. Every
//! finished/exceeded decision is the one a fresh simulation would make.
//!
//! The memo is single-flight: while one thread prices a key, others asking
//! for it wait for the answer instead of simulating the same kernel on a
//! second executor thread, so the number of simulations a search runs does
//! not depend on thread timing. A pricing that fails or panics restores the
//! slot it claimed and wakes the waiters, which then price the key
//! themselves.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tilelink::exec::simulate_makespan_bounded_with;
use tilelink::{CompiledKernel, OverlapConfig};
use tilelink_probe::metrics::TUNE_KERNEL_MEMO_HITS;
use tilelink_sim::{BoundedMakespan, SharedCost};

/// Which kernel of a layer an entry prices (single-kernel oracles use
/// [`Half::First`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Half {
    First,
    Second,
}

/// Memo key: kernel half, routing-sample index (0 without routing) and the
/// priced projection of the candidate config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    half: Half,
    sample: usize,
    cfg: OverlapConfig,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A thread is pricing the key; on failure the slot reverts to the floor
    /// it held before (if any).
    Pending(Option<f64>),
    /// The exact makespan.
    Exact(f64),
    /// A certified lower bound from a bounded abort.
    Floor(f64),
}

/// The bounded makespans one oracle has priced (see the module docs). A
/// clone starts empty.
#[derive(Default)]
pub(crate) struct KernelMemo {
    slots: Mutex<HashMap<Key, Slot>>,
    settled: Condvar,
    /// Waits on a pending slot, so a test can force the interleaving it
    /// checks.
    #[cfg(test)]
    waits: std::sync::atomic::AtomicUsize,
}

impl Clone for KernelMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl fmt::Debug for KernelMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelMemo")
            .field("entries", &self.lock().len())
            .finish()
    }
}

impl KernelMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<Key, Slot>> {
        // Slots are only written under the lock and never left half-updated,
        // so a panic elsewhere cannot poison the map's contents.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The bounded makespan of kernel `half` of `cfg` under routing sample
    /// `sample` against `budget`: replayed from the memo when it decides the
    /// budget, otherwise compiled with `compile` and simulated.
    ///
    /// # Errors
    ///
    /// Returns the compile or simulation error; nothing is memoised then.
    pub(crate) fn makespan_bounded(
        &self,
        half: Half,
        sample: usize,
        cfg: &OverlapConfig,
        cost: &SharedCost,
        budget: f64,
        compile: impl FnOnce() -> tilelink::Result<CompiledKernel>,
    ) -> tilelink::Result<BoundedMakespan> {
        let key = Key {
            half,
            sample,
            cfg: cfg.priced_projection(),
        };
        self.price(key, budget, |budget| {
            simulate_makespan_bounded_with(&compile()?, cost, budget)
        })
    }

    /// [`Self::makespan_bounded`] with the compile-and-simulate step as a
    /// closure of the budget.
    fn price(
        &self,
        key: Key,
        budget: f64,
        simulate: impl FnOnce(f64) -> tilelink::Result<BoundedMakespan>,
    ) -> tilelink::Result<BoundedMakespan> {
        let mut slots = self.lock();
        let previous = loop {
            match slots.get(&key).copied() {
                Some(Slot::Pending(_)) => {
                    #[cfg(test)]
                    self.waits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    slots = self
                        .settled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                // The simulator aborts exactly when the makespan exceeds the
                // cutoff, so `>` (not `<=`) mirrors it, NaN budgets included.
                Some(Slot::Exact(m)) => {
                    TUNE_KERNEL_MEMO_HITS.inc();
                    return Ok(if m > budget {
                        BoundedMakespan::Exceeded(m)
                    } else {
                        BoundedMakespan::Finished(m)
                    });
                }
                Some(Slot::Floor(f)) if f > budget => {
                    TUNE_KERNEL_MEMO_HITS.inc();
                    return Ok(BoundedMakespan::Exceeded(f));
                }
                Some(Slot::Floor(f)) => break Some(f),
                None => break None,
            }
        };
        slots.insert(key, Slot::Pending(previous));
        drop(slots);

        let claim = Claim {
            memo: self,
            key,
            settled: None,
        };
        let result = simulate(budget);
        if let Ok(outcome) = result {
            claim.settle(match outcome {
                BoundedMakespan::Finished(m) => Slot::Exact(m),
                BoundedMakespan::Exceeded(clock) => Slot::Floor(clock),
            });
        }
        result
    }
}

/// A claimed (pending) slot. Dropping it publishes the settled value, or —
/// when pricing failed or panicked — restores the slot's previous state, and
/// wakes every waiter either way.
struct Claim<'a> {
    memo: &'a KernelMemo,
    key: Key,
    settled: Option<Slot>,
}

impl Claim<'_> {
    fn settle(mut self, slot: Slot) {
        self.settled = Some(slot);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut slots = self.memo.lock();
        let restored = match self.settled {
            Some(slot) => Some(slot),
            None => match slots.get(&self.key) {
                Some(Slot::Pending(previous)) => previous.map(Slot::Floor),
                _ => None,
            },
        };
        match restored {
            Some(slot) => slots.insert(self.key, slot),
            None => slots.remove(&self.key),
        };
        drop(slots);
        self.memo.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn key(sample: usize) -> Key {
        Key {
            half: Half::First,
            sample,
            cfg: OverlapConfig::default(),
        }
    }

    /// A stand-in simulation of a kernel whose makespan is `m`, aborting at
    /// a clock of half the way past the budget, as a real bounded run would
    /// (a lower bound of `m` above the budget).
    fn simulated(
        m: f64,
        calls: &AtomicUsize,
    ) -> impl FnOnce(f64) -> tilelink::Result<BoundedMakespan> + '_ {
        move |budget| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(if m > budget {
                BoundedMakespan::Exceeded(0.5 * (budget.max(0.0) + m))
            } else {
                BoundedMakespan::Finished(m)
            })
        }
    }

    #[test]
    fn exact_entries_replay_every_budget_and_floors_only_the_ones_below() {
        let memo = KernelMemo::default();
        let calls = AtomicUsize::new(0);
        // An abort records a floor in (budget, m].
        let first = memo.price(key(0), 2.0, simulated(4.0, &calls)).unwrap();
        assert_eq!(first, BoundedMakespan::Exceeded(3.0));
        // A lower budget is decided by the floor, without simulating.
        let low = memo.price(key(0), 1.0, simulated(4.0, &calls)).unwrap();
        assert_eq!(low, BoundedMakespan::Exceeded(3.0));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // A budget at or above the floor simulates again and finishes.
        let high = memo.price(key(0), 5.0, simulated(4.0, &calls)).unwrap();
        assert_eq!(high, BoundedMakespan::Finished(4.0));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // Now exact: every budget replays, including the tie.
        for (budget, expected) in [
            (4.0, BoundedMakespan::Finished(4.0)),
            (9.0, BoundedMakespan::Finished(4.0)),
            (3.5, BoundedMakespan::Exceeded(4.0)),
            (f64::INFINITY, BoundedMakespan::Finished(4.0)),
        ] {
            assert_eq!(
                memo.price(key(0), budget, simulated(4.0, &calls)).unwrap(),
                expected
            );
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // Other samples are other kernels; a clone starts empty.
        memo.price(key(1), 9.0, simulated(4.0, &calls)).unwrap();
        memo.clone()
            .price(key(0), 9.0, simulated(4.0, &calls))
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_failed_pricing_restores_the_floor_it_claimed() {
        let memo = KernelMemo::default();
        let calls = AtomicUsize::new(0);
        memo.price(key(0), 2.0, simulated(4.0, &calls)).unwrap();
        let err = memo.price(key(0), 5.0, |_| {
            Err(tilelink::TileLinkError::InvalidConfig {
                reason: "test".into(),
            })
        });
        assert!(err.is_err());
        // The floor survives: a low budget is still answered from it.
        assert_eq!(
            memo.price(key(0), 1.0, simulated(4.0, &calls)).unwrap(),
            BoundedMakespan::Exceeded(3.0)
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_waiter_prices_the_key_itself_when_the_pricing_thread_panics() {
        let memo = KernelMemo::default();
        let (started_tx, started_rx) = mpsc::channel();
        let (panic_tx, panic_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let memo = &memo;
            let pricing = s.spawn(move || {
                memo.price(key(0), f64::INFINITY, |_| {
                    started_tx.send(()).unwrap();
                    panic_rx.recv().unwrap();
                    panic!("compile failed");
                })
            });
            started_rx.recv().unwrap();
            let waiter = s.spawn(move || {
                let calls = AtomicUsize::new(0);
                let r = memo.price(key(0), f64::INFINITY, simulated(4.0, &calls));
                (r.unwrap(), calls.load(Ordering::SeqCst))
            });
            // Fail the pricing only once the waiter is blocked on its slot.
            while memo.waits.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            panic_tx.send(()).unwrap();
            assert!(pricing.join().is_err(), "the pricing thread panicked");
            let (outcome, calls) = waiter.join().expect("the waiter did not hang or panic");
            assert_eq!(outcome, BoundedMakespan::Finished(4.0));
            assert_eq!(calls, 1, "the waiter priced the key itself");
        });
    }
}
