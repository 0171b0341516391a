//! Fused multi-cell benchmark: the whole (security model × LP variant)
//! policy grid served by one [`FusedDeltaEngine`] pass per attacker,
//! against PR 3's composed-delta path (one [`AttackDeltaEngine`] loop per
//! policy cell) — cross-checked for identical happy counts and emitted as
//! `BENCH_fused.json` for the perf trajectory and the CI bench-smoke job.
//!
//! Two regimes per graph size:
//!
//! * **empty** — zero validators: the models collapse onto one lane per
//!   LP variant (the fused engine computes 3 lanes where the composed
//!   path computes 9). This is the campaign-baseline shape and the
//!   acceptance gate (≥ 2× at 4000 ASes on the full 3-model grid).
//! * **rollout** — a mid-rollout deployment: no model collapse, so the
//!   fused engine runs the same computations as the composed path and
//!   the measured ratio is its bookkeeping overhead (≈1×).
//!
//! ```text
//! bench_fused --asns 4000,40000 --seed 42 --out BENCH_fused.json
//! bench_fused --validate BENCH_fused.json   # schema drift check
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use sbgp_bench::sweep_rollout_steps;
use sbgp_core::{
    AttackDeltaEngine, AttackStrategy, CellSet, Deployment, FusedDeltaEngine, LpVariant, Policy,
    SecurityModel,
};
use sbgp_sim::{sample, Internet};
use sbgp_topology::AsId;

/// Timed repetitions per side; the minimum is reported.
const REPS: usize = 3;
/// The LP variants of the grid (Appendix K), Standard first.
const VARIANTS: [LpVariant; 3] = [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf];

struct Args {
    asns: Vec<usize>,
    seed: u64,
    out: PathBuf,
    validate: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        asns: vec![4_000],
        seed: 42,
        out: PathBuf::from("BENCH_fused.json"),
        validate: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--asns" => {
                a.asns = take("--asns")?
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| t.trim().parse().map_err(|_| format!("bad size {t:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                a.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?
            }
            "--out" => a.out = PathBuf::from(take("--out")?),
            "--validate" => a.validate = Some(PathBuf::from(take("--validate")?)),
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.asns.is_empty() {
        return Err("empty --asns list".into());
    }
    Ok(a)
}

/// Schema check for an emitted JSON (the CI drift gate).
fn validate(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for key in [
        "\"bench\": \"fused\"",
        "\"grid\"",
        "\"cells\"",
        "\"asns\"",
        "\"regime\"",
        "\"models\"",
        "\"variants\"",
        "\"lanes\"",
        "\"pairs\"",
        "\"composed_ms\"",
        "\"fused_ms\"",
        "\"composed_pairs_per_sec\"",
        "\"fused_pairs_per_sec\"",
        "\"speedup\"",
        "\"computations\"",
        "\"collapsed_lanes\"",
        "\"forced_fallbacks\"",
        "\"gate\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{}: missing {key}", path.display()));
        }
    }
    Ok(())
}

struct Cell {
    asns: usize,
    regime: &'static str,
    models: usize,
    lanes: usize,
    pairs: usize,
    composed_ms: f64,
    fused_ms: f64,
    computations: usize,
    collapsed: usize,
    fallbacks: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.composed_ms / self.fused_ms.max(1e-9)
    }
}

/// Time one (size, regime, model-count) cell both ways.
fn run_cell(
    net: &Internet,
    dep: &Deployment,
    regime: &'static str,
    models: &[SecurityModel],
    dests: &[AsId],
    attackers: &[AsId],
) -> Cell {
    let policies: Vec<Policy> = models
        .iter()
        .flat_map(|&m| VARIANTS.map(|v| Policy::with_variant(m, v)))
        .collect();
    let pairs = dests.len() * attackers.len();

    // Side 1: the composed-delta path — one AttackDeltaEngine loop per
    // policy cell (PR 3's shape, what the campaign ran per model).
    let mut composed = std::time::Duration::MAX;
    let mut composed_counts = 0usize;
    let mut delta = AttackDeltaEngine::new(&net.graph);
    for _ in 0..REPS {
        let t0 = Instant::now();
        composed_counts = 0;
        for &policy in &policies {
            for &d in dests {
                delta.begin(d, dep, policy);
                for &m in attackers {
                    delta.attack(m, AttackStrategy::FakeLink);
                    composed_counts += delta.count_happy().0;
                }
            }
        }
        composed = composed.min(t0.elapsed());
    }

    // Side 2: the fused pass — every policy cell served from one snapshot
    // traversal per attacker.
    let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
    let mut fused_time = std::time::Duration::MAX;
    let mut fused_counts = 0usize;
    let mut computations = 0usize;
    let mut stats = sbgp_core::FusedStats::default();
    for _ in 0..REPS {
        // Fresh engine per rep so the reported stats cover exactly one
        // pass over the workload (construction stays outside the timer,
        // matching the composed side's reused engine).
        let mut fused = FusedDeltaEngine::new(&net.graph, cells.clone());
        let t1 = Instant::now();
        fused_counts = 0;
        for &d in dests {
            fused.begin(d, dep);
            for &m in attackers {
                fused.attack(m);
                for c in 0..policies.len() {
                    fused_counts += fused.count_happy(c).0;
                }
            }
        }
        fused_time = fused_time.min(t1.elapsed());
        computations = fused.computations();
        stats = fused.stats();
    }

    assert_eq!(
        composed_counts,
        fused_counts,
        "{regime}/{}-model: fused diverged from composed-delta outcomes",
        models.len()
    );
    Cell {
        asns: net.graph.len(),
        regime,
        models: models.len(),
        lanes: policies.len(),
        pairs,
        composed_ms: composed.as_secs_f64() * 1e3,
        fused_ms: fused_time.as_secs_f64() * 1e3,
        computations,
        collapsed: stats.collapsed_lanes,
        fallbacks: stats.forced_fallbacks,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: [--asns N,...] [--seed S] [--out FILE] [--validate FILE]");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        match validate(path) {
            Ok(()) => {
                println!("{}: fused bench schema ok", path.display());
                return;
            }
            Err(msg) => {
                eprintln!("schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    let mut cells: Vec<Cell> = Vec::new();
    for &asns in &args.asns {
        let t0 = Instant::now();
        let net = Internet::synthetic(asns, args.seed);
        // Scale the pair sample down on huge graphs so a 40k row stays in
        // minutes; the per-pair cost is what's compared, not the total.
        let (n_dests, n_attackers) = if asns > 10_000 { (2, 10) } else { (4, 25) };
        let attackers = sample::sample_non_stubs(&net, n_attackers, args.seed);
        let dests: Vec<AsId> = sample::sample_all(&net, n_dests, args.seed ^ 0xD)
            .into_iter()
            .filter(|d| !attackers.contains(d))
            .collect();
        assert!(!attackers.is_empty() && !dests.is_empty(), "empty samples");
        let rollout = sweep_rollout_steps(&net, 20).swap_remove(9);
        println!(
            "graph synthetic-{asns} seed {}: generated in {:.1} ms; {} destinations x {} attackers",
            args.seed,
            t0.elapsed().as_secs_f64() * 1e3,
            dests.len(),
            attackers.len()
        );
        let empty = Deployment::empty(net.len());
        for (regime, dep) in [("empty", &empty), ("rollout", &rollout)] {
            for k in 1..=SecurityModel::ALL.len() {
                let cell = run_cell(
                    &net,
                    dep,
                    regime,
                    &SecurityModel::ALL[..k],
                    &dests,
                    &attackers,
                );
                println!(
                    "{asns:>6} {regime:<8} {k} model(s) x {} variants: composed {:>9.1} ms, \
                     fused {:>9.1} ms, speedup {:>5.2}x ({} computations for {} lanes, \
                     {} collapsed, {} fallbacks)",
                    VARIANTS.len(),
                    cell.composed_ms,
                    cell.fused_ms,
                    cell.speedup(),
                    cell.computations,
                    cell.lanes,
                    cell.collapsed,
                    cell.fallbacks
                );
                cells.push(cell);
            }
        }
    }

    // The acceptance gate: the full 3-model grid at the smallest
    // requested size, empty deployment (the campaign-baseline shape).
    let gate = cells
        .iter()
        .find(|c| c.regime == "empty" && c.models == SecurityModel::ALL.len())
        .expect("the 3-model empty cell always runs");
    println!(
        "\ngate: {} ASes, empty deployment, {}-model x {}-variant grid: {:.2}x",
        gate.asns,
        gate.models,
        VARIANTS.len(),
        gate.speedup()
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"fused\",");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"strategy\": \"fakelink\",");
    let _ = writeln!(
        json,
        "  \"grid\": {{\"models\": [\"sec1\", \"sec2\", \"sec3\"], \"variants\": [\"lp\", \"lp2\", \"lpinf\"]}},"
    );
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"asns\": {}, \"regime\": \"{}\", \"models\": {}, \"variants\": {}, \
             \"lanes\": {}, \"pairs\": {}, \"composed_ms\": {:.3}, \"fused_ms\": {:.3}, \
             \"composed_pairs_per_sec\": {:.3}, \"fused_pairs_per_sec\": {:.3}, \
             \"speedup\": {:.3}, \"computations\": {}, \"collapsed_lanes\": {}, \
             \"forced_fallbacks\": {}}}{}",
            c.asns,
            c.regime,
            c.models,
            VARIANTS.len(),
            c.lanes,
            c.pairs,
            c.composed_ms,
            c.fused_ms,
            c.pairs as f64 / (c.composed_ms / 1e3).max(1e-9),
            c.pairs as f64 / (c.fused_ms / 1e3).max(1e-9),
            c.speedup(),
            c.computations,
            c.collapsed,
            c.fallbacks,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"asns\": {}, \"regime\": \"empty\", \"models\": {}, \"speedup\": {:.3}}}",
        gate.asns,
        gate.models,
        gate.speedup()
    );
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {}", args.out.display());
    if let Err(msg) = validate(&args.out) {
        eprintln!("self-check failed: {msg}");
        std::process::exit(1);
    }
}
