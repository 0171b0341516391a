//! The parallel simulation harness.
//!
//! The paper ran its `O(|M||D|(|V|+|E|))` computations with MPI on Blue
//! Gene and Blacklight (Appendix H); here a `std::thread::scope` plays the
//! same role on one machine. Work items (destination-major pair groups, or
//! whole destinations) are claimed from an atomic counter in small chunks;
//! every worker owns its own reusable [`AttackDeltaEngine`] /
//! [`PairAnalyzer`] / [`PartitionComputer`], so there is no shared mutable
//! state and no allocation in the steady loop. The metric runners iterate
//! destination-major so the delta engine amortizes the destination-rooted
//! base computation across a group's attackers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use sbgp_core::{
    AttackDeltaEngine, AttackStrategy, Bounds, CellSet, Deployment, FusedDeltaEngine, HappyCount,
    PairAnalysis, PairAnalyzer, PartitionComputer, PartitionCounts, Policy,
};
use sbgp_topology::AsId;

use sbgp_core::metric::MetricAccumulator;

use crate::{sample, Internet};

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

/// Items claimed per atomic fetch (amortizes contention) and folded into
/// one sub-accumulator (fixes the reduction order).
const CHUNK: usize = 16;

/// Generic parallel map-reduce over `items`, claimed `CHUNK` at a time
/// (right for light items like individual pairs).
///
/// `make_worker` builds per-thread scratch (typically an engine); `step`
/// folds one item into a per-chunk accumulator; chunk accumulators are
/// merged with `merge` **in chunk order**, regardless of which worker
/// computed which chunk. With a deterministic `step`, results are
/// therefore bit-identical across every [`Parallelism`] — floating-point
/// reductions included — which `tests/determinism.rs` pins down.
pub fn map_reduce<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    map_reduce_chunked(par, items, CHUNK, make_worker, make_acc, step, merge)
}

/// As [`map_reduce`], claiming one item per fetch. Use for *heavy* items —
/// destination-major pair groups, where each item is a whole base fix plus
/// all of a destination's attackers: batching 16 of those per chunk would
/// cap the worker count at `⌈groups/16⌉` and leave most cores idle.
pub fn map_reduce_grouped<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    map_reduce_chunked(par, items, 1, make_worker, make_acc, step, merge)
}

/// As [`map_reduce_grouped`], with **panic isolation**: each item's
/// evaluation runs under `catch_unwind`, so one poisoned item (a bug, or
/// an injected fault) loses *that item* instead of tearing down the whole
/// reduction. Returns the merged accumulator plus the indices of the
/// poisoned items, in item order; the worker scratch is rebuilt after a
/// catch (an engine mid-panic is in no state to serve the next item).
///
/// The merge stays chunk-order exact: surviving items merge in item order,
/// so with no poisoned items the result is bit-identical to
/// [`map_reduce_grouped`] at any [`Parallelism`].
pub fn map_reduce_grouped_isolated<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> (Acc, Vec<usize>)
where
    T: Sync,
    Acc: Send,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = items.len();
    let threads = par.0.clamp(1, n.max(1));
    let mut merge = merge;
    // One item per catch domain. The closures are not UnwindSafe in the
    // type-system sense only because they borrow shared state; a poisoned
    // worker is discarded and rebuilt, and a poisoned per-item accumulator
    // never escapes, so the assertion is sound.
    let run_item = |worker: &mut Option<W>, i: usize| -> Option<Acc> {
        let w = worker.get_or_insert_with(&make_worker);
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut acc = make_acc();
            step(w, &mut acc, &items[i]);
            acc
        }));
        if out.is_err() {
            *worker = None; // rebuild before the next item
        }
        out.ok()
    };

    if threads == 1 {
        let mut worker: Option<W> = None;
        let mut total = make_acc();
        let mut poisoned = Vec::new();
        for i in 0..n {
            match run_item(&mut worker, i) {
                Some(acc) => merge(&mut total, acc),
                None => poisoned.push(i),
            }
        }
        return (total, poisoned);
    }

    let cursor = AtomicUsize::new(0);
    let mut total = make_acc();
    let mut merged = 0usize;
    let mut poisoned = Vec::new();
    let mut pending: HashMap<usize, Option<Acc>> = HashMap::new();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Option<Acc>)>();
        for _ in 0..threads {
            let cursor = &cursor;
            let run_item = &run_item;
            let tx = tx.clone();
            scope.spawn(move || {
                let mut worker: Option<W> = None;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, run_item(&mut worker, i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, acc) in rx {
            pending.insert(i, acc);
            while let Some(acc) = pending.remove(&merged) {
                match acc {
                    Some(acc) => merge(&mut total, acc),
                    None => poisoned.push(merged),
                }
                merged += 1;
            }
        }
    });
    assert_eq!(merged, n, "an isolated worker died outside its catch");
    (total, poisoned)
}

fn map_reduce_chunked<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    chunk_size: usize,
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = par.0.clamp(1, n_chunks.max(1));
    let mut merge = merge;
    let run_chunk = |worker: &mut W, chunk: usize| -> Acc {
        let mut acc = make_acc();
        let start = chunk * chunk_size;
        let end = (start + chunk_size).min(items.len());
        for item in &items[start..end] {
            step(worker, &mut acc, item);
        }
        acc
    };

    if threads == 1 {
        let mut worker = make_worker();
        let mut total = make_acc();
        for chunk in 0..n_chunks {
            let acc = run_chunk(&mut worker, chunk);
            merge(&mut total, acc);
        }
        return total;
    }

    // Workers stream chunk accumulators to the main thread, which merges
    // them eagerly the moment the next-expected chunk is available: the
    // reduction order stays fixed, and only out-of-order chunks are ever
    // buffered (bounded by scheduling skew, not by item count).
    let cursor = AtomicUsize::new(0);
    let mut total = make_acc();
    let mut merged = 0usize;
    let mut pending: HashMap<usize, Acc> = HashMap::new();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Acc)>();
        for _ in 0..threads {
            let cursor = &cursor;
            let make_worker = &make_worker;
            let run_chunk = &run_chunk;
            let tx = tx.clone();
            scope.spawn(move || {
                let mut worker = make_worker();
                loop {
                    let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    if tx.send((chunk, run_chunk(&mut worker, chunk))).is_err() {
                        break; // Receiver gone: a sibling worker panicked.
                    }
                }
            });
        }
        drop(tx);
        for (chunk, acc) in rx {
            pending.insert(chunk, acc);
            while let Some(acc) = pending.remove(&merged) {
                merge(&mut total, acc);
                merged += 1;
            }
        }
    });
    assert_eq!(merged, n_chunks, "a worker panicked mid-reduction");
    total
}

/// As [`map_reduce`], for reductions whose merge is **exactly**
/// commutative and associative — integer counters, not floating-point
/// sums. One accumulator lives per worker (not per chunk), so dense
/// accumulators like the per-destination count matrices are allocated
/// `threads` times instead of `items/16` times; exactness makes the
/// result identical at any thread count regardless of merge order.
pub fn map_reduce_commutative<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    map_reduce_commutative_chunked(par, items, CHUNK, make_worker, make_acc, step, merge)
}

/// As [`map_reduce_commutative`], claiming one item per fetch — for heavy
/// items (whole destinations, each costing a base fix plus every
/// attacker), where a 16-item batch would serialize small workloads.
pub fn map_reduce_commutative_grouped<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    map_reduce_commutative_chunked(par, items, 1, make_worker, make_acc, step, merge)
}

fn map_reduce_commutative_chunked<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    chunk_size: usize,
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    merge: impl FnMut(&mut Acc, Acc),
) -> Acc
where
    T: Sync,
    Acc: Send,
{
    let threads = par.0.clamp(1, items.len().max(1));
    let mut merge = merge;

    if threads == 1 {
        let mut worker = make_worker();
        let mut total = make_acc();
        for item in items {
            step(&mut worker, &mut total, item);
        }
        return total;
    }

    let cursor = AtomicUsize::new(0);
    let mut total = make_acc();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let make_worker = &make_worker;
            let make_acc = &make_acc;
            let step = &step;
            handles.push(scope.spawn(move || {
                let mut worker = make_worker();
                let mut acc = make_acc();
                loop {
                    let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk_size).min(items.len());
                    for item in &items[start..end] {
                        step(&mut worker, &mut acc, item);
                    }
                }
                acc
            }));
        }
        for h in handles {
            merge(&mut total, h.join().expect("worker panicked"));
        }
    });
    total
}

/// The metric `H_{M,D}(S)` over explicit pairs.
///
/// Evaluated destination-major: the pair list is grouped by destination
/// ([`sample::group_by_destination`]) and each group shares one
/// normal-conditions base computation through an [`AttackDeltaEngine`], so
/// a group of `k` attackers costs one full fix plus `k` contested-region
/// patches instead of `k` full fixes.
pub fn metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    par: Parallelism,
) -> Bounds {
    metric_with_stderr(
        net,
        pairs,
        deployment,
        policy,
        AttackStrategy::FakeLink,
        par,
    )
    .0
}

/// As [`metric`], additionally returning the standard error of the mean
/// over the sampled pairs (how much subsampling `V × V` costs), under an
/// explicit attack strategy.
pub fn metric_with_stderr(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> (Bounds, Bounds) {
    let acc = metric_accumulate(net, pairs, deployment, policy, strategy, par);
    (acc.value(), acc.stderr())
}

/// As [`metric`], with an explicit attack strategy (the RPKI-value ladder
/// compares [`AttackStrategy::OriginHijack`] against the fake link).
pub fn metric_with_strategy(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> Bounds {
    metric_accumulate(net, pairs, deployment, policy, strategy, par).value()
}

fn metric_accumulate(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> MetricAccumulator {
    let groups = sample::group_by_destination(pairs);
    map_reduce_grouped(
        par,
        &groups,
        || AttackDeltaEngine::new(&net.graph),
        MetricAccumulator::default,
        |delta, acc, (d, attackers)| {
            delta.begin(*d, deployment, policy);
            for &m in attackers {
                if m == *d {
                    // Self-attacks are outside the paper's metric; skip
                    // them like the sweep runners do instead of tripping
                    // the delta engine's attacker != destination assert.
                    continue;
                }
                delta.attack(m, strategy);
                let (lower, upper) = delta.count_happy();
                acc.add(HappyCount {
                    lower,
                    upper,
                    sources: net.graph.len() - 2,
                });
            }
        },
        |a, b| a.merge(b),
    )
}

/// The metric `H_{M,D}(S)` for **every policy cell** of a [`CellSet`]
/// over the same pair sample, one fused engine pass per destination
/// group. Returned in input-cell order (duplicate spellings report their
/// shared lane's value).
///
/// Each cell's column is bit-identical to running
/// [`metric_with_strategy`] for that `(policy, strategy)` alone: the
/// fused engine returns per-cell outcomes identical to the single-cell
/// engines, and every cell's accumulator folds the same per-pair
/// fractions in the same (group, attacker) order.
pub fn metric_cells(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    cells: &CellSet,
    par: Parallelism,
) -> Vec<Bounds> {
    let groups = sample::group_by_destination(pairs);
    let sources = net.graph.len() - 2;
    let accs = map_reduce_grouped(
        par,
        &groups,
        || FusedDeltaEngine::new(&net.graph, cells.clone()),
        || vec![MetricAccumulator::default(); cells.input_len()],
        |fused, acc, (d, attackers)| {
            fused.begin(*d, deployment);
            for &m in attackers {
                if m == *d {
                    continue;
                }
                fused.attack(m);
                for (i, a) in acc.iter_mut().enumerate() {
                    let (lower, upper) = fused.count_happy(i);
                    a.add(HappyCount {
                        lower,
                        upper,
                        sources,
                    });
                }
            }
        },
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        },
    );
    accs.into_iter().map(|a| a.value()).collect()
}

/// Per-destination happy counts (summed over the attackers), for the
/// per-destination sequences of Figures 7(b), 9, 10 and 12. Returned in
/// `destinations` order. Each destination is one [`AttackDeltaEngine`]
/// cell: the normal-conditions outcome is fixed once and every attacker is
/// served as a contested-region patch.
pub fn metric_by_destination(
    net: &Internet,
    attackers: &[AsId],
    destinations: &[AsId],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> Vec<HappyCount> {
    let indexed: Vec<(usize, AsId)> = destinations.iter().copied().enumerate().collect();
    map_reduce_commutative_grouped(
        par,
        &indexed,
        || AttackDeltaEngine::new(&net.graph),
        || vec![HappyCount::default(); destinations.len()],
        |delta, acc, &(slot, d)| {
            delta.begin(d, deployment, policy);
            for &m in attackers {
                if m == d {
                    continue;
                }
                delta.attack(m, strategy);
                let (lower, upper) = delta.count_happy();
                acc[slot] += HappyCount {
                    lower,
                    upper,
                    sources: net.graph.len() - 2,
                };
            }
        },
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        },
    )
}

/// Summed root-cause analysis over pairs (Figures 13 and 16).
pub fn analysis(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    par: Parallelism,
) -> PairAnalysis {
    map_reduce_commutative(
        par,
        pairs,
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
    map_reduce_commutative(
        par,
        pairs,
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
    use crate::sample;
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
            let (sum, poisoned) = map_reduce_grouped_isolated(
                Parallelism(threads),
                &items,
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
        }
        // No poison: identical to the plain grouped reduction.
        let (clean, none) = map_reduce_grouped_isolated(
            Parallelism(3),
            &items,
            || (),
            || 0usize,
            |_, acc, &i| *acc += i,
            |a, b| *a += b,
        );
        assert!(none.is_empty());
        assert_eq!(clean, items.iter().sum::<usize>());
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
        let per = metric_by_destination(
            &net,
            &attackers,
            &dests,
            &dep,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        assert_eq!(per.len(), dests.len());
        // Cross-check one destination against a direct metric call.
        let pairs: Vec<(AsId, AsId)> = attackers
            .iter()
            .filter(|&&m| m != dests[0])
            .map(|&m| (m, dests[0]))
            .collect();
        let direct = metric(&net, &pairs, &dep, policy, Parallelism(1));
        let f = per[0].fraction();
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
