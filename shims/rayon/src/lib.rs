//! Offline shim of the `rayon` data-parallelism API used by the pvtm
//! workspace.
//!
//! Unlike a sequential stub, this shim really fans work out across OS
//! threads (`std::thread::scope` with an atomic work-stealing index), which
//! is what the Monte-Carlo loops in `pvtm-stats`/`pvtm` need to saturate
//! the machine. Semantics differ from upstream rayon in one deliberate
//! way: iterators are *eager* — each adapter materializes its results —
//! which is fine for the workspace's usage (one heavy `map` followed by a
//! cheap reduction).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;

/// Number of worker threads used for parallel maps.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Joins every worker of a scope before it closes, then re-raises the
/// first worker panic with its original payload.
///
/// The implicit join of `std::thread::scope` returns once each worker's
/// closure has finished, which can be before the worker's thread-local
/// destructors have run; `join` waits for the thread to exit. Telemetry
/// merges each worker's thread-local counters in such a destructor, so a
/// caller that reads totals right after a parallel call needs this wait.
fn join_all(handles: Vec<ScopedJoinHandle<'_, ()>>) {
    let mut panic = None;
    for h in handles {
        if let Err(payload) = h.join() {
            panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Order-preserving parallel map with dynamic load balancing.
fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    par_map_vec_init(items, || (), |_, x| f(x))
}

/// Order-preserving parallel map with per-worker state: `init` runs once
/// per worker thread and its value is threaded (mutably) through every
/// element that worker processes.
fn par_map_vec_init<T: Send, S, R: Send>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        let mut state = init();
        return items.into_iter().map(|x| f(&mut state, x)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let x = slots[i]
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("slot taken twice");
                        let r = f(&mut state, x);
                        *results[i].lock().expect("result slot poisoned") = Some(r);
                    }
                })
            })
            .collect();
        join_all(workers);
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

/// An eager "parallel iterator": adapters with a parallel body (`map`,
/// `for_each`) run on worker threads; cheap adapters run inline.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every element in parallel, preserving order.
    pub fn map<R: Send>(self, f: impl Fn(T) -> R + Sync) -> ParIter<R> {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    /// [`Self::map`] with per-worker state: `init` runs once per worker
    /// thread (rayon proper runs it once per split — same contract: the
    /// state is reused across many elements, never shared across threads).
    /// The hot-path use case is a stateful evaluator, e.g. compiled
    /// circuit templates carrying warm-started solver state.
    pub fn map_init<S, R: Send>(
        self,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, T) -> R + Sync,
    ) -> ParIter<R> {
        ParIter {
            items: par_map_vec_init(self.items, init, f),
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each(self, f: impl Fn(T) + Sync) {
        let _ = par_map_vec(self.items, f);
    }

    /// Pairs every element with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Keeps elements matching the predicate.
    pub fn filter(self, f: impl Fn(&T) -> bool + Sync) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().filter(|x| f(x)).collect(),
        }
    }

    /// Parallel filter-map.
    pub fn filter_map<R: Send>(self, f: impl Fn(T) -> Option<R> + Sync) -> ParIter<R> {
        ParIter {
            items: par_map_vec(self.items, f).into_iter().flatten().collect(),
        }
    }

    /// Collects into any `FromIterator` container (order preserved).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the elements.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Number of elements.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Folds the (already computed) elements with rayon's
    /// `reduce(identity, op)` signature.
    pub fn reduce(self, identity: impl Fn() -> T, op: impl Fn(T, T) -> T) -> T {
        self.items.into_iter().fold(identity(), op)
    }
}

/// Conversion of owned collections into a parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
range_into_par!(usize, u64, u32, i64, i32);

/// `par_iter()` on slices and `Vec`s (yields references).
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item: Send;
    /// Builds the parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn map_runs_on_multiple_threads() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let ids = Mutex::new(BTreeSet::new());
        let _: Vec<()> = (0..256usize)
            .into_par_iter()
            .map(|_| {
                let id = format!("{:?}", std::thread::current().id());
                ids.lock().unwrap().insert(id);
                std::thread::sleep(std::time::Duration::from_micros(200));
            })
            .collect();
        if super::current_num_threads() > 1 {
            assert!(ids.lock().unwrap().len() > 1, "work never left one thread");
        }
    }

    #[test]
    fn map_init_matches_map_and_reuses_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out: Vec<u64> = (0u64..500)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |acc, x| {
                    *acc += 1;
                    x * x
                },
            )
            .collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
        // One init per worker, not per element.
        assert!(inits.load(Ordering::Relaxed) <= super::current_num_threads());
    }

    #[test]
    fn workers_run_thread_local_destructors_before_the_call_returns() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static FLUSHED: AtomicUsize = AtomicUsize::new(0);
        struct Flush;
        impl Drop for Flush {
            fn drop(&mut self) {
                // Widens the window in which a call that did not wait for
                // its workers to exit would return with a short count.
                std::thread::sleep(std::time::Duration::from_millis(20));
                FLUSHED.fetch_add(1, SeqCst);
            }
        }
        thread_local! {
            static FLUSH: Flush = {
                STARTED.fetch_add(1, SeqCst);
                Flush
            };
        }
        // Only workers register: with one CPU a call runs inline on the
        // test thread, whose destructors run when the test ends.
        let caller = std::thread::current().id();
        let register = |x: u64| {
            if std::thread::current().id() != caller {
                FLUSH.with(|_| {});
            }
            x
        };
        for round in 0..3 {
            let _: Vec<u64> = (0u64..64).into_par_iter().map(register).collect();
            assert_eq!(
                FLUSHED.load(SeqCst),
                STARTED.load(SeqCst),
                "map, round {round}"
            );
            let _: Vec<u64> = (0u64..64)
                .into_par_iter()
                .map_init(|| (), |_, x| register(x))
                .collect();
            assert_eq!(
                FLUSHED.load(SeqCst),
                STARTED.load(SeqCst),
                "map_init, round {round}"
            );
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<u32> = (0u32..64)
                .into_par_iter()
                .map(|x| if x == 37 { panic!("item 37") } else { x })
                .collect();
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37"));
    }

    #[test]
    fn par_iter_references() {
        let data = vec![1.0f64, 2.0, 3.0];
        let s: f64 = data.par_iter().map(|&x| x * 2.0).sum();
        assert_eq!(s, 12.0);
    }

    #[test]
    fn reduce_matches_fold() {
        let total = (1u64..=100)
            .collect::<Vec<_>>()
            .into_par_iter()
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 5050);
    }

    #[test]
    fn collect_into_result_short_circuits_to_err() {
        let r: Result<Vec<u32>, &'static str> = (0u32..10)
            .into_par_iter()
            .map(|x| if x == 7 { Err("boom") } else { Ok(x) })
            .collect();
        assert_eq!(r, Err("boom"));
    }
}
