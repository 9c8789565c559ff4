//! Offline stand-in for the `rayon` crate.
//!
//! Provides the data-parallel surface this workspace uses — `par_iter()` on slices and
//! vectors followed by `map(...).collect()` or `for_each(...)` — with the output order
//! matching the input order exactly (the engine's tests require sweeps to be
//! deterministic and ordered).
//!
//! Every call runs on the calling thread plus up to `available_parallelism − 1` scoped
//! helper threads, and all of them claim items one at a time from a shared atomic
//! cursor, so items of skewed cost balance dynamically instead of leaving a core idle
//! behind one slow contiguous chunk.  Helpers come out of one process-wide budget of
//! `available_parallelism − 1` busy helpers: a `par_iter` nested inside another (or
//! issued while one is running elsewhere) gets only the helpers still free — usually
//! none, so it runs inline on its caller — and the process never runs more than
//! `available_parallelism` item loops at once.  Unlike real rayon there is no persistent
//! pool: helpers are spawned per call and exit when the cursor runs dry.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Re-exports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// The process's parallelism: helpers plus the calling thread.
fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Helper threads currently running an item loop, across every call in the process.
static BUSY_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Helpers reserved out of [`BUSY_HELPERS`]; returned to the budget on drop, including
/// when a worker's panic unwinds through the call.
struct HelperLease(usize);

impl HelperLease {
    /// Reserves up to `wanted` helpers from what the process-wide budget has free.
    fn reserve(wanted: usize) -> Self {
        let budget = parallelism() - 1;
        let mut busy = BUSY_HELPERS.load(Ordering::Relaxed);
        loop {
            let granted = wanted.min(budget.saturating_sub(busy));
            if granted == 0 {
                return Self(0);
            }
            match BUSY_HELPERS.compare_exchange_weak(
                busy,
                busy + granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Self(granted),
                Err(now) => busy = now,
            }
        }
    }
}

impl Drop for HelperLease {
    fn drop(&mut self) {
        BUSY_HELPERS.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Runs `f` over `items` in parallel, preserving order: the caller and its leased
/// helpers each claim the next unclaimed index from one atomic cursor until none is left.
fn parallel_map<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync>(items: &'a [T], f: &F) -> Vec<U> {
    let lease = HelperLease::reserve(items.len().min(parallelism()).saturating_sub(1));
    if lease.0 == 0 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices.  The items were shared before
            // the helpers spawned, and results come back through `join`.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..lease.0).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(part) => parts.push(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, value) in parts.into_iter().flatten() {
            slots[i] = Some(value);
        }
    });
    drop(lease);
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// A parallel iterator over borrowed slice elements.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Applies `f` to every element in parallel.
    pub fn map<U, F: Fn(&'a T) -> U>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let _ = parallel_map(self.items, &|t| f(t));
    }
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Executes the map in parallel and collects the results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// `par_iter()` for by-reference collections, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;

    /// A parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Owned parallel iteration, mirroring `rayon::iter::IntoParallelIterator`.
///
/// Implemented by collecting into a vector first; the workspace only uses it for small
/// work-unit lists where the extra allocation is irrelevant.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;

    /// Consumes `self` into an owned parallel iterator.
    fn into_par_iter(self) -> OwnedParIter<Self::Item>;
}

/// An owning parallel iterator.
pub struct OwnedParIter<T> {
    items: Vec<T>,
}

impl<T: Send + Sync> OwnedParIter<T> {
    /// Applies `f` to every element in parallel, preserving order.
    pub fn map<U, F: Fn(T) -> U>(self, f: F) -> OwnedParMap<T, F> {
        OwnedParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped owning parallel iterator.
pub struct OwnedParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send + Sync, U: Send, F: Fn(T) -> U + Sync> OwnedParMap<T, F> {
    /// Executes the map in parallel and collects the results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let f = &self.f;
        // Each item moves out of its own slot exactly once, by whichever worker claims
        // the slot's index.
        let slots: Vec<Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        parallel_map(&slots, &|slot: &Mutex<Option<T>>| {
            let item = slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take()
                .expect("slot filled");
            f(item)
        })
        .into_iter()
        .collect()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> OwnedParIter<T> {
        OwnedParIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::{RwLock, RwLockReadGuard};

    /// Every test here draws on the one process-wide helper budget.  The nested test
    /// counts the threads its calls use, which holds only when its outer call got the
    /// helpers — not when a concurrently running test held them at that moment and
    /// released them mid-run — so it takes this lock exclusively and the rest share it.
    static BUDGET: RwLock<()> = RwLock::new(());

    fn shared_budget() -> RwLockReadGuard<'static, ()> {
        BUDGET
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn map_collect_preserves_order() {
        let _budget = shared_budget();
        let xs: Vec<u64> = (0..1000).collect();
        let squares: Vec<u64> = xs.par_iter().map(|x| x * x).collect();
        assert_eq!(squares, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn runs_closures_with_captured_state() {
        let _budget = shared_budget();
        let offset = 7u64;
        let xs = [1u64, 2, 3, 4, 5];
        let ys: Vec<u64> = xs.par_iter().map(|x| x + offset).collect();
        assert_eq!(ys, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn owned_into_par_iter() {
        let _budget = shared_budget();
        let xs: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        let lens: Vec<usize> = xs.clone().into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, xs.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_everything() {
        let _budget = shared_budget();
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        let xs: Vec<u64> = (1..=100).collect();
        xs.par_iter().for_each(|x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    /// Busy-waits roughly `micros` microseconds, so item costs are really skewed.
    fn spin(micros: u64) -> u64 {
        let start = std::time::Instant::now();
        let mut n = 0u64;
        while start.elapsed() < std::time::Duration::from_micros(micros) {
            n = n.wrapping_add(1);
        }
        n
    }

    #[test]
    fn skewed_items_keep_order_and_stay_within_the_thread_budget() {
        let _budget = shared_budget();
        use std::collections::HashSet;
        use std::sync::Mutex;
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        // One item costs as much as all the others together: a contiguous split would
        // leave every other worker idle behind it; the shared cursor must not.
        let xs: Vec<u64> = (0..64).collect();
        let threads = Mutex::new(HashSet::new());
        let ys: Vec<u64> = xs
            .par_iter()
            .map(|&x| {
                threads.lock().unwrap().insert(std::thread::current().id());
                spin(if x == 0 { 3000 } else { 50 });
                x * 3
            })
            .collect();
        assert_eq!(ys, xs.iter().map(|x| x * 3).collect::<Vec<_>>());
        let used = threads.lock().unwrap().len();
        assert!(
            used <= parallelism,
            "{used} threads for parallelism {parallelism}"
        );

        // The owned form claims dynamically too.
        let owned: Vec<String> = xs
            .clone()
            .into_par_iter()
            .map(|x| {
                spin(if x % 16 == 0 { 500 } else { 10 });
                format!("{x}")
            })
            .collect();
        assert_eq!(owned, xs.iter().map(u64::to_string).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_iter_completes_without_oversubscribing() {
        let _budget = BUDGET
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        use std::collections::HashSet;
        use std::sync::Mutex;
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = Mutex::new(HashSet::new());
        let outer: Vec<u64> = (0..8).collect();
        let sums: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..50).map(|i| o * 100 + i).collect();
                let doubled: Vec<u64> = inner
                    .par_iter()
                    .map(|&v| {
                        threads.lock().unwrap().insert(std::thread::current().id());
                        spin(if v % 7 == 0 { 40 } else { 5 });
                        v * 2
                    })
                    .collect();
                doubled.iter().sum()
            })
            .collect();
        let expected: Vec<u64> = outer
            .iter()
            .map(|&o| (0..50).map(|i| (o * 100 + i) * 2).sum())
            .collect();
        assert_eq!(sums, expected);
        // Inner calls find the budget taken by the outer call's helpers and run inline.
        let used = threads.lock().unwrap().len();
        assert!(
            used <= parallelism,
            "{used} threads for parallelism {parallelism}"
        );
    }

    #[test]
    fn empty_input() {
        let _budget = shared_budget();
        let xs: Vec<u64> = Vec::new();
        let ys: Vec<u64> = xs.par_iter().map(|x| x + 1).collect();
        assert!(ys.is_empty());
    }
}
