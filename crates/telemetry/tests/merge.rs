//! Thread-local collector merge under the rayon shim's `map_init`
//! parallelism: merged totals must be independent of how work was chunked
//! across worker threads.

use pvtm_telemetry as tm;
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    // Telemetry state is process-global; serialize the tests in this binary.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn parallel_workload(items: usize) -> tm::Report {
    tm::reset();
    let _figure = tm::span("workload");
    let total: u64 = (0..items)
        .into_par_iter()
        .map_init(
            || (),
            |(), i| {
                let _s = tm::span("item");
                tm::counter_add("items", 1);
                tm::hist_record("value", (i + 1) as f64);
                tm::record_solver(&tm::SolverStats {
                    solves: 1,
                    newton_iterations: 2,
                    warm_attempts: 1,
                    warm_hits: u64::from(i % 10 != 0),
                    ..Default::default()
                });
                1u64
            },
        )
        .sum();
    assert_eq!(total as usize, items);
    drop(_figure);
    tm::snapshot()
}

#[test]
fn map_init_merge_is_exact_and_chunking_independent() {
    let _g = lock();
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);

    let items = 500;
    let r = parallel_workload(items);

    // Exact totals: every worker thread's collector merged exactly once.
    assert_eq!(r.counter("items"), items as u64);
    assert_eq!(r.solver.solves, items as u64);
    assert_eq!(r.solver.warm_attempts, items as u64);
    assert_eq!(r.solver.warm_hits, items as u64 - items as u64 / 10);
    let h = r.histograms.iter().find(|h| h.name == "value").unwrap();
    assert_eq!(h.count, items as u64);
    assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), items as u64);

    // Spans: worker threads have no parent span (the `workload` span lives
    // on the coordinating thread), so items aggregate under their own root —
    // except on a single-core host, where the shim runs inline and the item
    // spans nest under the caller's open span.
    assert_eq!(r.span("workload").unwrap().count, 1);
    let item_path = if rayon::current_num_threads() > 1 {
        "item"
    } else {
        "workload/item"
    };
    assert_eq!(r.span(item_path).unwrap().count, items as u64);

    // Re-running the identical workload merges to the identical report —
    // scheduling and work-stealing order must not show through.
    let again = parallel_workload(items);
    assert_eq!(r, again);
    assert_eq!(
        r.to_json_pretty("merge"),
        again.to_json_pretty("merge"),
        "clock-off reports must be byte-identical"
    );

    tm::set_mode(tm::Mode::Off);
    tm::set_clock_enabled(true);
}

#[test]
fn trace_chunks_recorded_from_workers_reconstruct_in_order() {
    let _g = lock();
    tm::set_mode(tm::Mode::Summary);
    tm::reset();

    {
        let _t = tm::trace_scope("par.trace");
        // Capture on the coordinating thread, move into the workers — the
        // same pattern the Monte-Carlo chunk loops use.
        let handle = tm::active_trace().unwrap();
        (0..8u64).into_par_iter().for_each(|c| {
            tm::record_chunk(&handle, c, 100, c as f64, 0.0, None);
        });
    }

    let r = tm::snapshot();
    let t = r.trace("par.trace").unwrap();
    assert_eq!(t.points.len(), 8);
    for (i, p) in t.points.iter().enumerate() {
        assert_eq!(p.chunk, i as u64);
        assert_eq!(p.samples, 100 * (i as u64 + 1));
    }
    // Running mean of 0..=k is k/2 at every prefix.
    assert_eq!(t.points[7].value, 3.5);

    tm::set_mode(tm::Mode::Off);
}

fn adopted_workload(items: usize) -> tm::Report {
    tm::reset();
    {
        let _figure = tm::span("workload");
        let ctx = tm::parallel_context();
        let total: u64 = (0..items)
            .into_par_iter()
            .map_init(
                || tm::adopt(&ctx),
                |_adopted, i| {
                    let _s = tm::span("item");
                    tm::record_solver(&tm::SolverStats {
                        solves: 1,
                        newton_iterations: 3,
                        cold_solves: u64::from(i % 7 == 0),
                        ..Default::default()
                    });
                    1u64
                },
            )
            .sum();
        assert_eq!(total as usize, items);
    }
    tm::snapshot()
}

#[test]
fn adopted_worker_spans_nest_under_the_coordinator_span() {
    let _g = lock();
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);

    let items = 500;
    let r = adopted_workload(items);

    // With adoption, worker item spans nest under the figure span on every
    // host — the thread-count-dependent root-level "item" path is gone.
    assert!(r.span("item").is_none());
    let item = r.span("workload/item").unwrap();
    assert_eq!(item.count, items as u64);

    // Solver work lands on the innermost enclosing span.
    assert_eq!(item.solver.solves, items as u64);
    assert_eq!(item.solver.newton_iterations, 3 * items as u64);
    assert_eq!(item.solver.cold_solves, (items as u64).div_ceil(7));
    let workload = r.span("workload").unwrap();
    assert_eq!(
        workload.solver.solves, 0,
        "no solver work outside the items"
    );

    // Adoption must not break merge determinism.
    let again = adopted_workload(items);
    assert_eq!(
        r.to_json_pretty("adopt"),
        again.to_json_pretty("adopt"),
        "clock-off adopted reports must be byte-identical"
    );

    tm::set_mode(tm::Mode::Off);
    tm::set_clock_enabled(true);
}

#[test]
fn adopted_children_are_excluded_from_parent_self_time() {
    let _g = lock();
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(true);

    tm::reset();
    {
        let _figure = tm::span("workload");
        let ctx = tm::parallel_context();
        (0..256usize).into_par_iter().for_each(|_| {
            let _adopted = tm::adopt(&ctx);
            let _s = tm::span("item");
            // Enough work per item for a nonzero clock delta.
            let mut acc = 0u64;
            for k in 0..2000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
        });
    }
    let r = tm::snapshot();
    let workload = r.span("workload").unwrap();
    let item = r.span("workload/item").unwrap();
    assert!(item.total_ns > 0, "items must have measured time");
    assert!(
        workload.self_ns < workload.total_ns,
        "adopted child time must be charged to the parent ({} !< {})",
        workload.self_ns,
        workload.total_ns
    );
    // Parallel children can sum past the parent's wall-clock; self-time
    // saturates at zero rather than wrapping.
    assert!(workload.self_ns <= workload.total_ns);

    tm::set_mode(tm::Mode::Off);
}

#[test]
fn sequential_nested_span_self_time_is_exact() {
    let _g = lock();
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(true);

    tm::reset();
    {
        let _outer = tm::span("workload");
        for _ in 0..3 {
            let _inner = tm::span("item");
            let mut acc = 1u64;
            for k in 1..5000u64 {
                acc = acc.wrapping_mul(k) ^ (acc >> 7);
            }
            std::hint::black_box(acc);
        }
    }
    let r = tm::snapshot();
    let outer = r.span("workload").unwrap();
    let inner = r.span("workload/item").unwrap();
    // Same-thread nesting is exact: the parent's self time is its total
    // minus precisely the children's total.
    assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);

    tm::set_mode(tm::Mode::Off);
}

#[test]
fn chan_merge_reconstruction_is_chunk_order_independent() {
    let _g = lock();
    tm::set_mode(tm::Mode::Summary);

    // Per-chunk Welford moments with distinct means and spreads.
    let chunks: Vec<(u64, u64, f64, f64)> = (0..12u64)
        .map(|c| {
            (
                c,
                256 + 16 * c,
                1e-3 * (c as f64 + 1.0),
                1e-7 * (c as f64 + 0.5),
            )
        })
        .collect();

    let record = |order: &[usize]| {
        tm::reset();
        {
            let _t = tm::trace_scope("order.trace");
            let h = tm::active_trace().unwrap();
            for &i in order {
                let (c, n, mean, m2) = chunks[i];
                tm::record_chunk(&h, c, n, mean, m2, None);
            }
        }
        tm::snapshot().trace("order.trace").unwrap().clone()
    };

    let ascending: Vec<usize> = (0..chunks.len()).collect();
    let descending: Vec<usize> = (0..chunks.len()).rev().collect();
    let interleaved: Vec<usize> = (0..chunks.len()).map(|i| (i * 5) % chunks.len()).collect();

    let reference = record(&ascending);
    // The single-thread ascending recording is the reference; any other
    // arrival order (work-stealing workers record chunks as they finish)
    // must reconstruct the identical running (n, mean, m2) sequence —
    // bit-for-bit, not approximately.
    assert_eq!(record(&descending), reference);
    assert_eq!(record(&interleaved), reference);

    // And the same chunks recorded from parallel workers, racing, still
    // reconstruct the reference sequence.
    tm::reset();
    {
        let _t = tm::trace_scope("order.trace");
        let h = tm::active_trace().unwrap();
        chunks.par_iter().for_each(|&(c, n, mean, m2)| {
            tm::record_chunk(&h, c, n, mean, m2, None);
        });
    }
    let parallel = tm::snapshot().trace("order.trace").unwrap().clone();
    assert_eq!(parallel, reference);

    // Sanity on the reconstruction itself: cumulative sample counts.
    let expect_samples: u64 = chunks.iter().map(|&(_, n, _, _)| n).sum();
    assert_eq!(reference.points.last().unwrap().samples, expect_samples);

    tm::set_mode(tm::Mode::Off);
}

#[test]
fn disabled_mode_stays_silent_under_parallelism() {
    let _g = lock();
    tm::set_mode(tm::Mode::Off);
    tm::reset();
    (0..64usize).into_par_iter().for_each(|_| {
        let _s = tm::span("ghost");
        tm::counter_add("ghost", 1);
    });
    let r = tm::snapshot();
    assert!(r.spans.is_empty());
    assert!(r.counters.is_empty());
}
