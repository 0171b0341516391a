//! The parallel simulation harness.
//!
//! The paper ran its `O(|M||D|(|V|+|E|))` computations with MPI on Blue
//! Gene and Blacklight (Appendix H); here a `std::thread::scope` plays the
//! same role on one machine. [`map_reduce`] is the one reduction every
//! runner, estimator and the planner rides: work items (destination-major
//! pair groups, whole destinations, or single pairs) are claimed from an
//! atomic counter in chunks, every worker owns its own reusable scratch
//! (an engine), so there is no shared mutable state in the steady loop,
//! and chunk accumulators merge **in chunk order** — so every result,
//! floating-point sums included, is bit-identical at any [`Parallelism`].
//! [`map_reduce_isolated`] is the same driver with panic isolation: a
//! poisoned chunk is dropped and reported instead of re-raised.
//!
//! The paper's metric itself is served by [`crate::sweep`] (one cell grid
//! along one deployment sequence); [`metric`] is its one-cell, one-step
//! case.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use sbgp_core::{
    AttackStrategy, Bounds, CellSet, Deployment, PairAnalysis, PairAnalyzer, PartitionComputer,
    PartitionCounts, Policy,
};
use sbgp_topology::AsId;

use crate::Internet;

/// Number of worker threads to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism(pub usize);

impl Parallelism {
    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Parallelism {
        Parallelism(1)
    }
}

/// Chunk size for *light* items (single pairs): amortizes the atomic
/// claim. Heavy items — a destination group, which costs a compute per
/// attacker — go one per chunk, or a 16-item chunk would cap
/// the worker count at `⌈groups/16⌉`.
pub const PAIR_CHUNK: usize = 16;

/// Parallel map-reduce over `items`, claimed `chunk` at a time.
///
/// `make_worker` builds per-thread scratch (typically an engine); `step`
/// folds one item into a per-chunk accumulator; chunk accumulators are
/// merged with `merge` into a fresh `make_acc()` **in chunk order**,
/// regardless of which worker computed which chunk. With a deterministic
/// `step`, results are therefore bit-identical across every
/// [`Parallelism`] — floating-point reductions included — which
/// `tests/determinism.rs` pins down. A panic in `step` is re-raised on the
/// calling thread with its original payload.
///
/// # Panics
///
/// Panics when `chunk` is zero, and re-raises any panic of `make_worker`
/// or `step`.
pub fn map_reduce<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    chunk: usize,
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    drive(par, items, chunk, false, make_worker, make_acc, step, merge).0
}

/// As [`map_reduce`], with **panic isolation**: a chunk whose evaluation
/// panics (a bug, or an injected fault) loses *that chunk* instead of
/// tearing down the whole reduction. Returns the merged accumulator plus
/// the indices of the items in poisoned chunks, in item order; the worker
/// scratch is rebuilt after a catch (an engine mid-panic is in no state to
/// serve the next item).
///
/// Surviving chunks merge in chunk order, so with no poisoned chunk the
/// result is bit-identical to [`map_reduce`] at any [`Parallelism`].
///
/// # Panics
///
/// Panics when `chunk` is zero.
pub fn map_reduce_isolated<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    chunk: usize,
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> (Acc, Vec<usize>)
where
    T: Sync,
    Acc: Send,
{
    drive(par, items, chunk, true, make_worker, make_acc, step, merge)
}

/// The chunk-order driver behind both entry points.
#[allow(clippy::too_many_arguments)]
fn drive<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    chunk: usize,
    isolate: bool,
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    mut merge: impl FnMut(&mut Acc, Acc),
) -> (Acc, Vec<usize>)
where
    T: Sync,
    Acc: Send,
{
    assert!(chunk > 0, "map_reduce needs a positive chunk size");
    let n_chunks = items.len().div_ceil(chunk);
    let threads = par.0.clamp(1, n_chunks.max(1));
    let span = |c: usize| c * chunk..((c + 1) * chunk).min(items.len());
    // One chunk per catch domain. The closures are not UnwindSafe in the
    // type-system sense only because they borrow shared state; a poisoned
    // worker is discarded and rebuilt, and a poisoned chunk accumulator
    // never escapes, so the assertion is sound.
    let run_chunk = |worker: &mut Option<W>, c: usize| -> std::thread::Result<Acc> {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let w = worker.get_or_insert_with(&make_worker);
            let mut acc = make_acc();
            for item in &items[span(c)] {
                step(w, &mut acc, item);
            }
            acc
        }));
        if out.is_err() {
            *worker = None;
        }
        out
    };

    let mut total = make_acc();
    let mut poisoned = Vec::new();
    let mut fold = |c: usize, out: std::thread::Result<Acc>| match out {
        Ok(acc) => merge(&mut total, acc),
        Err(_) if isolate => poisoned.extend(span(c)),
        Err(payload) => resume_unwind(payload),
    };
    if threads == 1 {
        let mut worker = None;
        for c in 0..n_chunks {
            fold(c, run_chunk(&mut worker, c));
        }
    } else {
        // Workers stream chunk results to this thread, which folds them
        // the moment the next-expected chunk is available: the reduction
        // order stays fixed, and only out-of-order chunks are buffered
        // (bounded by scheduling skew, not by item count).
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            for _ in 0..threads {
                let (cursor, run_chunk, tx) = (&cursor, &run_chunk, tx.clone());
                scope.spawn(move || {
                    let mut worker = None;
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks || tx.send((c, run_chunk(&mut worker, c))).is_err() {
                            break; // Done, or the fold re-raised a panic.
                        }
                    }
                });
            }
            drop(tx);
            let mut pending = HashMap::new();
            let mut next = 0;
            for (c, out) in rx {
                pending.insert(c, out);
                while let Some(out) = pending.remove(&next) {
                    fold(next, out);
                    next += 1;
                }
            }
            debug_assert_eq!(next, n_chunks, "every chunk folds exactly once");
        });
    }
    (total, poisoned)
}

/// The metric `H_{M,D}(S)` over explicit pairs under the paper's fake-link
/// attack: one cell, one deployment of [`crate::sweep::metric_sweep_cells`].
///
/// Evaluated destination-major: the pair list is grouped by destination
/// ([`crate::sample::group_by_destination`]), one compute per pair.
pub fn metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    par: Parallelism,
) -> Bounds {
    let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
    crate::sweep::metric_sweep_cells(net, pairs, std::slice::from_ref(deployment), &cells, par)[0]
        [0]
}

/// Summed root-cause analysis over pairs (Figures 13 and 16).
pub fn analysis(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    par: Parallelism,
) -> PairAnalysis {
    map_reduce(
        par,
        pairs,
        PAIR_CHUNK,
        || PairAnalyzer::new(&net.graph),
        PairAnalysis::default,
        |analyzer, acc, &(m, d)| {
            *acc += analyzer.analyze(m, d, deployment, policy);
        },
        |a, b| *a += b,
    )
}

/// Summed doomed/protectable/immune partition counts over pairs
/// (Figures 3–6).
pub fn partitions(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    policy: Policy,
    par: Parallelism,
) -> PartitionCounts {
    map_reduce(
        par,
        pairs,
        PAIR_CHUNK,
        || PartitionComputer::new(&net.graph),
        PartitionCounts::default,
        |computer, acc, &(m, d)| {
            acc.add(&computer.counts(m, d, policy));
        },
        |a, b| a.add(&b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample, sweep};
    use sbgp_core::SecurityModel;

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 6, 1);
        let dests = sample::sample_all(&net, 10, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let seq = metric(&net, &pairs, &dep, policy, Parallelism(1));
        let par = metric(&net, &pairs, &dep, policy, Parallelism(4));
        assert!((seq.lower - par.lower).abs() < 1e-12);
        assert!((seq.upper - par.upper).abs() < 1e-12);
    }

    #[test]
    fn isolated_map_reduce_drops_only_poisoned_items() {
        let items: Vec<usize> = (0..40).collect();
        let poison = |i: usize| i % 13 == 5;
        for threads in [1, 4] {
            let (sum, poisoned) = map_reduce_isolated(
                Parallelism(threads),
                &items,
                1,
                || (),
                || 0usize,
                |_, acc, &i| {
                    assert!(!poison(i), "poisoned {i}");
                    *acc += i;
                },
                |a, b| *a += b,
            );
            assert_eq!(poisoned, vec![5, 18, 31], "threads={threads}");
            let expect: usize = items.iter().filter(|&&i| !poison(i)).sum();
            assert_eq!(sum, expect, "threads={threads}");
            // A poisoned chunk loses every item it holds, and only those.
            let (sum, poisoned) = map_reduce_isolated(
                Parallelism(threads),
                &items,
                8,
                || (),
                || 0usize,
                |_, acc, &i| {
                    assert!(!poison(i), "poisoned {i}");
                    *acc += i;
                },
                |a, b| *a += b,
            );
            let lost: Vec<usize> = (0..8).chain(16..24).chain(24..32).collect();
            assert_eq!(poisoned, lost, "threads={threads}, chunk 8");
            let expect: usize = items.iter().filter(|i| !lost.contains(i)).sum();
            assert_eq!(sum, expect, "threads={threads}, chunk 8");
        }
        // No poison: identical to the plain reduction.
        let (clean, none) = map_reduce_isolated(
            Parallelism(3),
            &items,
            1,
            || (),
            || 0usize,
            |_, acc, &i| *acc += i,
            |a, b| *a += b,
        );
        assert!(none.is_empty());
        assert_eq!(clean, items.iter().sum::<usize>());
    }

    #[test]
    fn map_reduce_propagates_step_panics() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                map_reduce(
                    Parallelism(threads),
                    &items,
                    PAIR_CHUNK,
                    || (),
                    || 0usize,
                    |_, acc, &i| {
                        assert!(i != 23, "item {i} is poisoned");
                        *acc += i;
                    },
                    |a, b| *a += b,
                )
            });
            let payload = caught.expect_err("the step panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(msg, "item 23 is poisoned", "threads={threads}");
        }
    }

    #[test]
    fn baseline_metric_is_majority_happy() {
        // §4.2: with origin authentication alone, well over half the
        // sources stay happy on average.
        let net = net();
        let attackers = sample::sample_all(&net, 12, 3);
        let dests = sample::sample_all(&net, 12, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let b = metric(
            &net,
            &pairs,
            &dep,
            Policy::new(SecurityModel::Security3rd),
            Parallelism(2),
        );
        assert!(b.lower > 0.5, "baseline lower bound {b}");
        assert!(b.upper >= b.lower);
    }

    #[test]
    fn per_destination_counts_align() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 5, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security2nd);
        let (per, _) = sweep::metric_churn_by_destination(
            &net,
            &attackers,
            &dests,
            std::slice::from_ref(&dep),
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].len(), dests.len());
        // Cross-check one destination against a direct metric call.
        let pairs: Vec<(AsId, AsId)> = attackers
            .iter()
            .filter(|&&m| m != dests[0])
            .map(|&m| (m, dests[0]))
            .collect();
        let direct = metric(&net, &pairs, &dep, policy, Parallelism(1));
        let f = per[0][0].fraction();
        assert!((f.lower - direct.lower).abs() < 1e-12);
    }

    #[test]
    fn analysis_identity_holds_in_aggregate() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 9);
        let dests = sample::sample_all(&net, 6, 10);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
        for model in SecurityModel::ALL {
            let a = analysis(&net, &pairs, &dep, Policy::new(model), Parallelism(2));
            assert!(a.metric_change_identity_holds(), "{model}");
            assert_eq!(a.pairs, pairs.len());
        }
    }

    #[test]
    fn partition_fractions_bound_the_metric() {
        // Immune fraction ≤ baseline happy ≤ 1 − doomed fraction, per pair
        // set (§4.3's whole point).
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 5, 21);
        let dests = sample::sample_all(&net, 8, 22);
        let pair_list = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let parts = partitions(&net, &pair_list, policy, Parallelism(2));
            let total = parts.sources() as f64;
            let immune = parts.immune as f64 / total;
            let doomed = parts.doomed as f64 / total;
            let h = metric(&net, &pair_list, &dep, policy, Parallelism(2));
            assert!(
                immune <= h.lower + 1e-9,
                "{model}: immune {immune} vs H {h}"
            );
            assert!(
                h.upper <= 1.0 - doomed + 1e-9,
                "{model}: doomed {doomed} vs H {h}"
            );
        }
    }
}
