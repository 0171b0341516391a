//! Fused multi-cell marginal cost: what one *additional* policy lane
//! costs when it collapses onto an existing computation. The envelope
//! pinned here: at zero validators the full 9-lane grid (3 models × 3 LP
//! variants) must cost far closer to the 3 distinct computations it
//! collapses to than to 9 composed-delta loops — a collapsed lane costs
//! one `count_happy` readout, not a traversal.
//!
//! (`bench_fused` emits the composed-vs-fused comparison with the
//! exactness cross-check as `BENCH_fused.json`.)

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sbgp_core::{
    AttackDeltaEngine, AttackStrategy, CellSet, Deployment, FusedDeltaEngine, LpVariant, Policy,
    SecurityModel,
};
use sbgp_sim::{sample, Internet};
use sbgp_topology::AsId;

const VARIANTS: [LpVariant; 3] = [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf];

fn fused_benches(c: &mut Criterion) {
    let net = Internet::synthetic(4_000, 11);
    let empty = Deployment::empty(net.len());
    let d = net.tiers.tier2()[0];
    let attackers: Vec<AsId> = sample::sample_non_stubs(&net, 20, 3)
        .into_iter()
        .filter(|&m| m != d)
        .collect();

    let mut group = c.benchmark_group("fused-20-attackers");
    group.sample_size(5);
    for models in 1..=SecurityModel::ALL.len() {
        let policies: Vec<Policy> = SecurityModel::ALL[..models]
            .iter()
            .flat_map(|&m| VARIANTS.map(|v| Policy::with_variant(m, v)))
            .collect();
        let label = format!("{}x{}-lanes", models, VARIANTS.len());

        group.bench_with_input(
            BenchmarkId::new("composed", &label),
            &policies,
            |b, policies| {
                let mut delta = AttackDeltaEngine::new(&net.graph);
                b.iter(|| {
                    let mut happy = 0usize;
                    for &policy in policies {
                        delta.begin(d, &empty, policy);
                        for &m in &attackers {
                            delta.attack(m, AttackStrategy::FakeLink);
                            happy += delta.count_happy().0;
                        }
                    }
                    black_box(happy)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fused", &label),
            &policies,
            |b, policies| {
                let cells = CellSet::per_policy(policies, AttackStrategy::FakeLink);
                let mut fused = FusedDeltaEngine::new(&net.graph, cells);
                b.iter(|| {
                    let mut happy = 0usize;
                    fused.begin(d, &empty);
                    for &m in &attackers {
                        fused.attack(m);
                        for c in 0..policies.len() {
                            happy += fused.count_happy(c).0;
                        }
                    }
                    black_box(happy)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fused_benches);
criterion_main!(benches);
