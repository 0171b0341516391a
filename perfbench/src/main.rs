//! The repository benchmark's workload program.
//!
//! ```text
//! perfbench gen --workload W --seed S --dir D     write W's inputs for S into D
//! perfbench run --workload W --seed S --dir D --seconds T --trace 0|1
//! ```
//!
//! `gen` prints the digest of the inputs it wrote. `run` reads only those
//! inputs, runs the workload in this process, checks its outputs, and
//! prints one JSON report line. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` drives the same public functions step by step
//! with spans around every call and reports the per-layer metrics.
//! `perfbench/run.py` is the entry point that builds, generates and runs.

mod baseline;
mod churn;
mod gen;
mod planner;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;

use sbgp_sim::Internet;
use sbgp_topology::tier::TierConfig;
use sbgp_topology::{io, AsId, GraphBuilder};

use crate::gen::Inputs;
use crate::util::{median, ms_since, Report};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Baseline,
    Churn,
    Planner,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "baseline-100k" => Some(Workload::Baseline),
            "churn-40k" => Some(Workload::Churn),
            "planner-10k" => Some(Workload::Planner),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Baseline => "baseline-100k",
            Workload::Churn => "churn-40k",
            Workload::Planner => "planner-10k",
        }
    }

    pub fn asns(self) -> usize {
        match self {
            Workload::Baseline => 100_000,
            Workload::Churn => 40_000,
            Workload::Planner => 10_000,
        }
    }
}

/// Set-up runs at least this many times, and until this much time has
/// gone into it; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// Run `build` repeatedly (see [`SETUP_REPEATS`]), dropping each result
/// before the next build, and return the last result with the set-up
/// times (s).
pub fn repeat_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last: Option<T> = None;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Load the workload's graph exactly as the program's entry points do.
pub fn load_internet(inputs: &Inputs) -> Result<Internet, String> {
    let cps = inputs
        .read_cps()
        .map_err(|e| format!("{}: {e}", inputs.cps.display()))?;
    Internet::from_file(&inputs.graph, &cps).map_err(|e| format!("{}: {e}", inputs.graph.display()))
}

/// The ingest layer, stage by stage: parse (which includes one CSR
/// build), a separate CSR build from the parsed edges, the acyclicity
/// check, and tier classification. Each stage is timed three times and
/// reported as its median.
pub fn trace_topology(inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let cps = inputs.read_cps().map_err(|e| e.to_string())?;
    let (mut parse, mut build, mut acyclic, mut classify) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let t = Instant::now();
        let graph = io::read_relationships_file(&inputs.graph).map_err(|e| e.to_string())?;
        parse.push(ms_since(t));
        let labels: Vec<u32> = graph.ases().map(|v| graph.asn_label(v)).collect();
        let edges: Vec<_> = graph.edges().collect();
        let t = Instant::now();
        let rebuilt =
            GraphBuilder::from_edges(graph.len(), labels, edges).map_err(|e| e.to_string())?;
        build.push(ms_since(t));
        drop(rebuilt);
        let t = Instant::now();
        let ok = graph.provider_hierarchy_is_acyclic();
        acyclic.push(ms_since(t));
        if !ok {
            return Err("generated graph has a provider cycle".into());
        }
        let t = Instant::now();
        let cfg =
            TierConfig::with_content_provider_asns(&graph, &cps).map_err(|e| e.to_string())?;
        let net = Internet::from_graph(graph, &cfg, "traced");
        classify.push(ms_since(t));
        drop(net);
    }
    let text = std::fs::read_to_string(&inputs.graph).map_err(|e| e.to_string())?;
    let lines = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();
    report.metric("topology.parse_ms", "ms", median(&parse), parse.len());
    report.metric("topology.build_ms", "ms", median(&build), build.len());
    report.metric("topology.acyclic_ms", "ms", median(&acyclic), acyclic.len());
    report.metric(
        "topology.classify_ms",
        "ms",
        median(&classify),
        classify.len(),
    );
    report.metric("topology.lines", "count", lines as f64, 1);
    Ok(())
}

/// Every per-layer metric, in report order. A workload that bypasses a
/// layer reports it as 0 with the reason.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("topology.parse_ms", "ms"),
    ("topology.build_ms", "ms"),
    ("topology.acyclic_ms", "ms"),
    ("topology.classify_ms", "ms"),
    ("topology.lines", "count"),
    ("engine.compute_ms_p50", "ms"),
    ("delta.begin_ms", "ms"),
    ("delta.begin_ms_p50", "ms"),
    ("delta.attacks", "count"),
    ("delta.patches", "count"),
    ("delta.fallbacks", "count"),
    ("delta.patch_frac", "ratio"),
    ("delta.patch_ms", "ms"),
    ("delta.patch_ms_p50", "ms"),
    ("delta.fallback_ms", "ms"),
    ("delta.fallback_ms_p50", "ms"),
    ("delta.fallback_over_compute", "ratio"),
    ("delta.refixed_ases", "count"),
    ("delta.grow_rounds", "count"),
    ("fused.computations", "count"),
    ("fused.collapsed_lanes", "count"),
    ("fused.forced_fallbacks", "count"),
    ("sweep.advance_ms", "ms"),
    ("sweep.advance_ms_p50", "ms"),
    ("sweep.advance_ms_p99", "ms"),
    ("sweep.wax_ms", "ms"),
    ("sweep.wane_ms", "ms"),
    ("sweep.monotone_steps", "count"),
    ("sweep.retracting_steps", "count"),
    ("sweep.fallback_steps", "count"),
    ("sweep.refixed_ases", "count"),
    ("sweep.grow_rounds", "count"),
    ("stats.self_ms", "ms"),
    ("stats.rounds", "count"),
    ("stats.groups", "count"),
    ("runner.busy_frac", "ratio"),
    ("serve.frame_us_p50", "us"),
    ("serve.decode_us_p50", "us"),
    ("serve.answer_hit_ms_p50", "ms"),
    ("serve.answer_miss_ms_p50", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.request_bytes_mean", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// Why a layer reads zero on a workload that never calls it.
fn why_absent(w: Workload, layer: &str) -> &'static str {
    match (w, layer) {
        (Workload::Baseline, "sweep") => "one deployment: no sweep steps",
        (Workload::Churn, "fused") => {
            "single-policy churn drives AttackDeltaEngine, not the fused engine"
        }
        (Workload::Planner, "delta" | "fused") => {
            "the planner's engines run inside Planner::answer; see serve.answer_*"
        }
        (Workload::Planner, "sweep") => "queries name one deployment: no sweep steps",
        (_, "stats") => "no estimator on this workload",
        (_, "runner") => "one evaluation thread",
        (_, "serve") => "batch workload: no frames or cache",
        _ => "not exercised by this workload",
    }
}

fn fill_absent(w: Workload, report: &mut Report) {
    for &(name, unit) in LAYER_METRICS {
        if !report.metrics.iter().any(|m| m.name == name) {
            let layer = name.split('.').next().unwrap_or(name);
            let unit: &'static str = unit;
            report.absent(name, unit, why_absent(w, layer));
        }
    }
    // Report order follows LAYER_METRICS; extra metrics go last.
    let pos = |n: &str| {
        LAYER_METRICS
            .iter()
            .position(|&(m, _)| m == n)
            .unwrap_or(usize::MAX)
    };
    report.metrics.sort_by_key(|m| pos(&m.name));
}

/// Dense ids of a pair list, for error messages.
pub fn fmt_pair((m, d): (AsId, AsId)) -> String {
    format!("({}, {})", m.0, d.0)
}

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or(
        "usage: perfbench gen|run --workload W --seed S --dir D [--seconds T --trace 0|1]",
    )?;
    let (mut workload, mut seed, mut dir, mut seconds, mut trace) = (None, None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--dir" => dir = Some(PathBuf::from(val)),
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad seconds {val:?}"))?,
            "--trace" => trace = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        cmd,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        dir: dir.ok_or("--dir is required")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let inputs = Inputs::at(Path::new(&args.dir));
    let mut report = Report::new(args.workload.name(), args.seed, args.trace);
    match args.workload {
        Workload::Baseline => baseline::run(&inputs, args.seconds, args.trace, &mut report)?,
        Workload::Churn => churn::run(&inputs, args.seconds, args.trace, &mut report)?,
        Workload::Planner => planner::run(&inputs, args.seconds, args.trace, &mut report)?,
    }
    if args.trace {
        fill_absent(args.workload, &mut report);
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.cmd.as_str() {
        "gen" => gen::write_inputs(args.workload, args.seed, &args.dir).map(|digest| {
            println!("{{\"inputs_digest\":\"{digest}\"}}");
        }),
        "run" => run(&args).map(|report| println!("{}", report.to_json())),
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
