//! Input generation. Everything a workload reads is written here: the
//! as-rel file (from the repository's synthetic generator), the
//! content-provider list, and from the seed the estimator's sampler seeds,
//! pair lists and planner request frames. The workload process receives
//! only these files.
//!
//! The graph is one fixed snapshot per workload size, like the paper's
//! single routing snapshot: generated graphs of one size differ in cost
//! per pair by 10–20% (seed 5's 100k graph ran at 23 ms per pair, seed
//! 11's at 28 ms), which would make every seed a different workload.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sbgp_core::SecurityModel;
use sbgp_sim::serve::model_token;
use sbgp_sim::supervise::write_frame;
use sbgp_sim::{scenario, Internet};
use sbgp_topology::gen::{generate, InternetConfig};
use sbgp_topology::{io, AsId};

use crate::util::{Digest, Rng};
use crate::Workload;

/// Paths of one workload's inputs.
pub struct Inputs {
    pub cells: PathBuf,
    pub graph: PathBuf,
    pub cps: PathBuf,
    pub pairs: PathBuf,
    pub warmup: PathBuf,
    pub queries: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

impl Inputs {
    pub fn at(dir: &Path) -> Inputs {
        Inputs {
            cells: dir.join("cells.txt"),
            graph: dir.join("graph.as-rel"),
            cps: dir.join("cps.txt"),
            pairs: dir.join("pairs.txt"),
            warmup: dir.join("warmup.frames"),
            queries: dir.join("queries.frames"),
            spans: dir.join("spans.tsv"),
        }
    }

    /// Every input file in digest order (absent files are skipped).
    fn files(&self) -> [&Path; 6] {
        [
            &self.graph,
            &self.cps,
            &self.cells,
            &self.pairs,
            &self.warmup,
            &self.queries,
        ]
    }

    /// Digest of every input file, so a seed can be shown to pin its inputs.
    pub fn digest(&self) -> std::io::Result<String> {
        let mut d = Digest::new();
        for f in self.files() {
            if f.exists() {
                d.bytes(
                    f.file_name()
                        .map(|s| s.as_encoded_bytes())
                        .unwrap_or_default(),
                );
                d.bytes(&std::fs::read(f)?);
            }
        }
        Ok(d.hex())
    }

    /// The content-provider ASNs written next to the graph.
    pub fn read_cps(&self) -> std::io::Result<Vec<u32>> {
        let text = std::fs::read_to_string(&self.cps)?;
        Ok(text.lines().filter_map(|l| l.trim().parse().ok()).collect())
    }

    /// The estimator's sampler seed for each cell, in run order.
    pub fn read_cells(&self) -> std::io::Result<Vec<u64>> {
        let text = std::fs::read_to_string(&self.cells)?;
        Ok(text.lines().filter_map(|l| l.trim().parse().ok()).collect())
    }

    /// The `attacker destination` pair list (dense ids of the parsed graph).
    pub fn read_pairs(&self) -> std::io::Result<Vec<(AsId, AsId)>> {
        let text = std::fs::read_to_string(&self.pairs)?;
        Ok(text
            .lines()
            .filter_map(|l| {
                let mut it = l.split_whitespace().map(|t| t.parse::<u32>().ok());
                Some((AsId(it.next()??), AsId(it.next()??)))
            })
            .collect())
    }
}

/// The generator seed of every workload's graph (the generator's default).
const GRAPH_SEED: u64 = 20_130_812;
/// Sampler seeds written for the baseline cells; the run cycles through
/// them (a 25 s run uses about five).
const CELLS: usize = 64;
/// Pairs written for the churn workload; the run cycles through them.
const CHURN_PAIRS: usize = 4_000;
/// The churn trajectory's peak (`scenario::churn_trajectory(net, 10)`).
pub const CHURN_PEAK: usize = 10;
/// Pairs per stratified block, and how many of them have a destination
/// that never joins the deployment.
const CHURN_BLOCK: usize = 100;
const CHURN_NEVER: usize = 70;
/// Distinct request frames written for the planner; the loop cycles
/// through them (a repeated novel probe still misses: its bases were
/// evicted long before it comes round again).
const PLANNER_FRAMES: usize = 2_048;
/// Operator destinations, suspected attackers, candidate deployments.
const OPERATOR_DESTS: usize = 24;
const SUSPECTS: usize = 64;
const CANDIDATES: usize = 8;
const DESTS_PER_QUERY: usize = 4;
const ATTACKERS_PER_QUERY: usize = 2;
/// One query in every `NOVEL_EVERY` (5%) probes a never-seen deployment,
/// at a random position within each block of that many queries.
const NOVEL_EVERY: usize = 20;

/// Write every input of `workload` for `seed` into `dir`.
pub fn write_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let inputs = Inputs::at(dir);
    let generated = generate(&InternetConfig::sized(workload.asns(), GRAPH_SEED));
    let wr = |p: &Path, data: &[u8]| {
        std::fs::write(p, data).map_err(|e| format!("{}: {e}", p.display()))
    };
    wr(
        &inputs.graph,
        io::write_relationships(&generated.graph).as_bytes(),
    )?;
    let mut cps = String::new();
    for &cp in &generated.content_providers {
        let _ = writeln!(cps, "{}", generated.graph.asn_label(cp));
    }
    wr(&inputs.cps, cps.as_bytes())?;
    drop(generated);

    // Pairs and frames name ASes by the dense ids of the *parsed* file,
    // which is what the workload process serves.
    let cp_asns = inputs.read_cps().map_err(|e| e.to_string())?;
    let net = Internet::from_file(&inputs.graph, &cp_asns).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed);
    match workload {
        Workload::Baseline => {
            let cells: String = (0..CELLS)
                .map(|_| format!("{}\n", rng.next_u64()))
                .collect();
            wr(&inputs.cells, cells.as_bytes())?;
        }
        Workload::Churn => wr(&inputs.pairs, churn_pairs(&net, &mut rng).as_bytes())?,
        Workload::Planner => {
            let (warmup, queries) = planner_frames(&net, &mut rng);
            wr(&inputs.warmup, &warmup)?;
            wr(&inputs.queries, &queries)?;
        }
    }
    inputs.digest().map_err(|e| e.to_string())
}

/// Non-stub attackers against sampled destinations, stratified by the
/// trajectory step at which the destination joins the deployment. A
/// destination that joins (a stub of a deployed Tier 2) makes its pair
/// several times dearer than one that never does, so every block of
/// [`CHURN_BLOCK`] pairs holds the same mix: [`CHURN_NEVER`] destinations
/// that never join and an equal share joining at each wax step. Without
/// this, a seed's cost would swing with its share of joining destinations.
fn churn_pairs(net: &Internet, rng: &mut Rng) -> String {
    let non_stubs = net.tiers.non_stubs();
    let wax = scenario::sweep_rollout_steps(net, CHURN_PEAK);
    // classes[k]: destinations joining at wax step k; the last: never.
    let mut classes: Vec<Vec<AsId>> = vec![Vec::new(); CHURN_PEAK + 1];
    for v in net.graph.ases() {
        let k = wax
            .iter()
            .position(|dep| dep.is_secure(v))
            .unwrap_or(CHURN_PEAK);
        classes[k].push(v);
    }
    let per_step = (CHURN_BLOCK - CHURN_NEVER) / CHURN_PEAK;
    let mut pools: Vec<Vec<AsId>> = classes.iter().map(|c| rng.choose(c, c.len())).collect();
    let mut out = String::new();
    for _ in 0..CHURN_PAIRS / CHURN_BLOCK {
        let mut block: Vec<AsId> = Vec::with_capacity(CHURN_BLOCK);
        for (k, pool) in pools.iter_mut().enumerate() {
            let want = if k == CHURN_PEAK {
                CHURN_NEVER
            } else {
                per_step
            };
            for _ in 0..want {
                if pool.is_empty() {
                    // A class smaller than its share repeats its members.
                    *pool = rng.choose(&classes[k], classes[k].len());
                }
                block.extend(pool.pop());
            }
        }
        for d in rng.choose(&block, block.len()) {
            let m = loop {
                let m = non_stubs[rng.below(non_stubs.len())];
                if m != d {
                    break m;
                }
            };
            let _ = writeln!(out, "{} {}", m.0, d.0);
        }
    }
    out
}

fn query_frame(out: &mut Vec<u8>, id: u64, secure: &[AsId], attackers: &[AsId], dests: &[AsId]) {
    let ids = |v: &[AsId]| {
        v.iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let text = format!(
        "{{\"op\":\"query\",\"id\":{id},\"secure\":[{}],\"attackers\":[{}],\"destinations\":[{}],\
         \"models\":[\"{}\"]}}",
        ids(secure),
        ids(attackers),
        ids(dests),
        model_token(SecurityModel::Security1st)
    );
    write_frame(out, &text).expect("writing to a Vec cannot fail");
}

/// An operator's what-if loop: warm-up frames covering the hot set
/// (every candidate × every operator destination), then the query
/// stream.
fn planner_frames(net: &Internet, rng: &mut Rng) -> (Vec<u8>, Vec<u8>) {
    let stubs: Vec<AsId> = net.graph.ases().filter(|&v| net.tiers.is_stub(v)).collect();
    let picked = rng.choose(&stubs, OPERATOR_DESTS + SUSPECTS + CANDIDATES / 2);
    let dests = &picked[..OPERATOR_DESTS];
    let suspects = &picked[OPERATOR_DESTS..OPERATOR_DESTS + SUSPECTS];
    let extras = &picked[OPERATOR_DESTS + SUSPECTS..];
    // Never-seen stubs for the novel probes, in draw order.
    let novel: Vec<AsId> = {
        let rest: Vec<AsId> = stubs
            .iter()
            .copied()
            .filter(|v| !picked.contains(v))
            .collect();
        rng.choose(&rest, rest.len())
    };

    // The candidates: all non-stubs plus the operator's destinations, with
    // one extra stub added (first half) or one destination left out
    // (second half).
    let mut base: Vec<AsId> = net.tiers.non_stubs();
    base.extend_from_slice(dests);
    base.sort_unstable();
    let candidates: Vec<Vec<AsId>> = (0..CANDIDATES)
        .map(|k| {
            let mut c = base.clone();
            if k < CANDIDATES / 2 {
                c.push(extras[k]);
                c.sort_unstable();
            } else {
                c.retain(|&v| v != dests[k - CANDIDATES / 2]);
            }
            c
        })
        .collect();

    let mut warmup = Vec::new();
    let mut id = 0u64;
    for c in &candidates {
        for group in dests.chunks(DESTS_PER_QUERY) {
            query_frame(&mut warmup, id, c, &suspects[..ATTACKERS_PER_QUERY], group);
            id += 1;
        }
    }

    let mut queries = Vec::new();
    let mut next_novel = 0usize;
    let mut novel_at = 0;
    for i in 0..PLANNER_FRAMES {
        if i % NOVEL_EVERY == 0 {
            novel_at = i + rng.below(NOVEL_EVERY);
        }
        let qdests = rng.choose(dests, DESTS_PER_QUERY);
        let attackers = rng.choose(suspects, ATTACKERS_PER_QUERY);
        let mut secure = candidates[rng.below(CANDIDATES)].clone();
        if i == novel_at {
            secure.push(novel[next_novel % novel.len()]);
            next_novel += 1;
        }
        query_frame(&mut queries, id, &secure, &attackers, &qdests);
        id += 1;
    }
    (warmup, queries)
}
