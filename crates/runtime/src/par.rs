//! The one parallel-map primitive of the workspace.
//!
//! Sweeps, searches, corpus ingestion, grid search and per-family model
//! training all fan independent items across scoped worker threads through
//! [`par_map`] / [`par_map_with`]. Workers claim indices from a shared
//! counter (dynamic self-scheduling: idle workers take over whatever slow
//! workers have not started) and every result lands in the slot of its
//! *input index*, never in completion order — so the output is a pure
//! function of the items whenever `f` is, at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::token::CancellationToken;

/// Pads its contents to a 64-byte cache line so two frequently-written
/// atomics (a cache's hit/miss counters, [`par_map`]'s work-claim counter)
/// never share a line — false sharing turns every counter bump into
/// cross-core cache-line ping-pong. Wrap each hot atomic separately;
/// access the value through `.0`.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// Work-distributing parallel map with cooperative cancellation: applies
/// `f` to every item on `threads` scoped workers that claim indices from
/// a shared counter. Results land in input order; a cancelled run leaves
/// `None` in the unvisited slots.
///
/// # Panics
/// Propagates panics from `f`.
pub fn par_map<S, R, F>(
    threads: usize,
    token: &CancellationToken,
    items: &[S],
    f: F,
) -> Vec<Option<R>>
where
    S: Sync,
    R: Send,
    F: Fn(usize, &S) -> R + Sync,
{
    par_map_with(threads, token, items, || (), |_, i, s| f(i, s))
}

/// [`par_map`] with a per-worker context: each worker (or the one
/// sequential loop) calls `init` once and threads the resulting value
/// mutably through every item it claims. The context lives exactly as long
/// as the worker, so scratch capacity amortizes across all the items that
/// worker steals, and contexts never cross threads.
///
/// The context must not influence results (buffer pools are invisible by
/// construction); under that condition the determinism contract of
/// [`par_map`] carries over unchanged.
///
/// # Panics
/// Propagates panics from `init` and `f`.
pub fn par_map_with<S, R, C, I, F>(
    threads: usize,
    token: &CancellationToken,
    items: &[S],
    init: I,
    f: F,
) -> Vec<Option<R>>
where
    S: Sync,
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &S) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        // The sequential reference path: same claim order, same results.
        let mut ctx = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| (!token.is_cancelled()).then(|| f(&mut ctx, i, item)))
            .collect();
    }

    let next = CachePadded(AtomicUsize::new(0));
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut ctx = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.0.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() || token.is_cancelled() {
                            return done;
                        }
                        done.push((i, f(&mut ctx, i, &items[i])));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, r) in done {
                        out[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let token = CancellationToken::new();
        let reference: Vec<Option<u64>> = items.iter().map(|v| Some(v * v + 1)).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(
                par_map(threads, &token, &items, |_, v| v * v + 1),
                reference
            );
        }
        let empty: [u64; 0] = [];
        assert!(par_map(4, &token, &empty, |_, v| *v).is_empty());
    }

    #[test]
    fn worker_context_is_created_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items = [1u32; 40];
        let token = CancellationToken::new();
        let out = par_map_with(
            3,
            &token,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |seen, i, v| {
                *seen += v;
                i
            },
        );
        assert_eq!(out, (0..40).map(Some).collect::<Vec<_>>());
        assert!((1..=3).contains(&inits.load(Ordering::Relaxed)));
    }

    #[test]
    fn cancelled_run_leaves_unvisited_slots_empty() {
        let token = CancellationToken::new();
        token.cancel();
        assert_eq!(
            par_map(2, &token, &[1, 2, 3], |_, v| *v),
            vec![None, None, None]
        );
        assert_eq!(par_map(1, &token, &[1, 2], |_, v| *v), vec![None, None]);
    }

    #[test]
    #[should_panic(expected = "item 5 is bad")]
    fn worker_panics_propagate_with_their_payload() {
        let items: Vec<usize> = (0..16).collect();
        par_map(2, &CancellationToken::new(), &items, |_, &v| {
            assert!(v != 5, "item {v} is bad");
            v
        });
    }
}
