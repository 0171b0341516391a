//! The large-graph estimation campaign runner.
//!
//! Runs a (figure × asns × seed × model) grid of stratified-estimation
//! cells — synthetic graphs up to 40k ASes and beyond — with **per-cell
//! JSON checkpointing and resume**: every finished cell is written
//! atomically to the checkpoint directory, so a killed campaign restarted
//! with the same flags recomputes only the missing cells. The assembled
//! `BENCH_campaign.json` records wall-clock, pairs/sec and the CI-width
//! trajectory of every cell, and feeds the CI bench-smoke job.
//!
//! The model axis is **fused**: all models of one `(figure, asns, seed)`
//! group, described by one `sbgp_bench::campaign::CellSpec`, run through
//! a single multi-cell estimator pass over the evaluator
//! `CellSpec::with_eval` builds, so one snapshot traversal serves every
//! model's lane — and at zero validators the models collapse onto one
//! computation outright. Fused ≡ per-model bit for bit (pinned in
//! `sbgp_sim::stats`), and a cell's estimates are independent of which
//! lanes share its pass (the adaptive round schedule depends only on the
//! universe and seed), so checkpoints stay per-model cells with the
//! `campaign-cell-v1` schema and resume granularity is unchanged: a
//! restarted group fuses only its *missing* model cells.
//!
//! The graph axis is synthetic by default; `--file <as-rel>` swaps it for
//! a **parsed CAIDA snapshot next to its synthetic twin** — each seed runs
//! every figure × model cell on the parsed graph *and* on a synthetic
//! graph of the same size, so real-snapshot numbers always sit beside a
//! like-for-like baseline. Parsed cells carry the snapshot name in their
//! checkpoint id and an extra `"graph"` field in their JSON; synthetic
//! cells keep their existing ids and bytes, so old checkpoints and the
//! committed campaign JSON stay valid. `--cps <asn,asn,...>` names the
//! content providers by real ASN (resolved through the snapshot's
//! labels).
//!
//! `--workers N` swaps the in-process thread pool for a **supervised
//! fleet of N worker processes** (this binary re-invoked with
//! `--worker`), speaking length-prefixed JSON over stdin/stdout: worker
//! crashes, hangs and garbage replies walk a retry ladder (kill →
//! exponential-backoff respawn → reassign → after `--strikes` failures
//! mark the cell *degraded* and keep going), and the merge order is
//! group-exact, so an N-worker run is **bit-identical** to the
//! single-process run. Every checkpoint carries an FNV-1a content
//! checksum; resume quarantines torn/corrupted/zero-byte cells to
//! `<name>.json.quarantined` and recomputes them, and `--validate`
//! audits the checksums of an assembled campaign JSON. `--fault-plan`
//! arms deterministic fault injection (`sbgp_sim::faultpoint`; needs the
//! `fault-injection` build feature) to exercise all of the above.
//!
//! ```text
//! campaign --figures baseline,rollout --asns 4000,40000 --seeds 42 \
//!          --models sec1,sec2,sec3 --pairs 2000 --ci 0.01
//! campaign --file cyclops.as-rel --cps 15169,8075 --seeds 42
//! campaign --smoke                 # the tiny CI grid
//! campaign --smoke --workers 4     # same bytes, four worker processes
//! campaign --validate BENCH_campaign.json   # schema drift check
//! ```

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sbgp_bench::campaign::{CampaignEval, Cell, CellSpec, Figure, CAMPAIGN_SCHEMA, CELL_KEYS};
use sbgp_bench::parse_list;
use sbgp_core::SecurityModel;
use sbgp_sim::faultpoint;
use sbgp_sim::json;
use sbgp_sim::serve::{model_token, parse_model};
use sbgp_sim::stats::{self, AdaptiveRun};
use sbgp_sim::supervise::{self, ChecksumStatus, Supervisor, SupervisorConfig, WorkerMsg};
use sbgp_sim::{Internet, Parallelism};

#[derive(Clone, Debug)]
struct Args {
    figures: Vec<Figure>,
    asns: Vec<usize>,
    seeds: Vec<u64>,
    /// What every group shares: models, rollout steps, budget, CI target
    /// and the `--file` snapshot; each group sets its figure, size, seed.
    cell: CellSpec,
    threads: Parallelism,
    checkpoint_dir: PathBuf,
    out: PathBuf,
    validate: Option<PathBuf>,
    /// Number of supervised worker processes; 0 = in-process thread pool.
    workers: usize,
    /// Run as a supervised worker child (internal; set by the coordinator).
    worker: bool,
    /// Worker incarnation id (internal; distinguishes respawns in fault
    /// plans and diagnostics).
    worker_id: u64,
    fault_plan: Option<PathBuf>,
    watchdog_ms: u64,
    strikes: u32,
    backoff_ms: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            figures: vec![Figure::Baseline, Figure::Rollout],
            asns: vec![4_000],
            seeds: vec![42],
            cell: CellSpec {
                models: SecurityModel::ALL.to_vec(),
                rollout_steps: 5,
                budget: 2_000,
                ..CellSpec::default()
            },
            threads: Parallelism::auto(),
            checkpoint_dir: PathBuf::from("campaign_ckpt"),
            out: PathBuf::from("BENCH_campaign.json"),
            validate: None,
            workers: 0,
            worker: false,
            worker_id: 0,
            fault_plan: None,
            watchdog_ms: 120_000,
            strikes: 3,
            backoff_ms: 50,
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} wants a number"))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut asns_explicit = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut take = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--figures" => a.figures = parse_list(flag, &take()?, Figure::parse)?,
            "--asns" => {
                a.asns = parse_list(flag, &take()?, |t| {
                    let n = t.parse::<usize>().map_err(|e| e.to_string())?;
                    sbgp_bench::check_asns(flag, n)
                })?;
                asns_explicit = true;
            }
            "--seeds" => a.seeds = parse_list(flag, &take()?, |t| t.parse::<u64>())?,
            "--models" => a.cell.models = parse_list(flag, &take()?, parse_model)?,
            "--ci" => {
                let target: f64 = number(flag, take()?)?;
                // Same contract as the shared figure CLI: a fractional
                // half-width, not percentage points.
                if !(target > 0.0 && target < 1.0) {
                    return Err(format!("--ci wants a half-width in (0, 1), got {target}"));
                }
                a.cell.ci_target = Some(target);
            }
            "--pairs" => {
                a.cell.budget = number(flag, take()?)?;
                if a.cell.budget == 0 {
                    return Err("--pairs wants at least 1".into());
                }
            }
            "--rollout-steps" => a.cell.rollout_steps = number(flag, take()?)?,
            "--threads" => a.threads = Parallelism(number(flag, take()?)?),
            "--checkpoint-dir" => a.checkpoint_dir = PathBuf::from(take()?),
            "--out" => a.out = PathBuf::from(take()?),
            "--validate" => a.validate = Some(PathBuf::from(take()?)),
            "--file" => a.cell.snapshot = Some(PathBuf::from(take()?)),
            "--cps" => a.cell.cps = parse_list(flag, &take()?, |t| t.parse::<u32>())?,
            "--workers" => a.workers = number(flag, take()?)?,
            "--worker" => a.worker = true,
            "--worker-id" => a.worker_id = number(flag, take()?)?,
            "--fault-plan" => a.fault_plan = Some(PathBuf::from(take()?)),
            "--watchdog-ms" => a.watchdog_ms = number(flag, take()?)?,
            "--strikes" => {
                a.strikes = number(flag, take()?)?;
                if a.strikes == 0 {
                    return Err("--strikes wants at least 1".into());
                }
            }
            "--backoff-ms" => a.backoff_ms = number(flag, take()?)?,
            "--smoke" => {
                // The CI grid: small enough for a PR gate, still covering
                // two figures, every model, checkpoint + resume and the
                // full JSON schema. Writes to scratch paths so running it
                // from the repo root never clobbers the committed
                // release-grid BENCH_campaign.json (later --out /
                // --checkpoint-dir flags still override).
                a.figures = vec![Figure::Baseline, Figure::Rollout];
                a.asns = vec![400];
                a.seeds = vec![11];
                a.cell.models = SecurityModel::ALL.to_vec();
                a.cell.budget = 300;
                a.cell.rollout_steps = 3;
                a.out = PathBuf::from("BENCH_campaign_smoke.json");
                a.checkpoint_dir = PathBuf::from("campaign_smoke_ckpt");
            }
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.figures.is_empty() || a.asns.is_empty() || a.seeds.is_empty() || a.cell.models.is_empty() {
        return Err("empty grid axis".into());
    }
    if !a.cell.cps.is_empty() && a.cell.snapshot.is_none() {
        return Err("--cps only makes sense with --file (real ASNs need a snapshot)".into());
    }
    if asns_explicit && a.cell.snapshot.is_some() {
        return Err("--asns conflicts with --file (the snapshot fixes the graph size)".into());
    }
    Ok(a)
}

struct CellOutcome {
    id: String,
    json: String,
    wall_ms: f64,
    pairs: u64,
    resumed: bool,
    /// Some destination groups were lost to worker strikes; the cell's
    /// estimates cover only the surviving sample.
    degraded: bool,
}

/// Move a damaged checkpoint aside so it is never trusted again (and a
/// human can still autopsy it), then warn.
fn quarantine(path: &Path, cell_id: &str, why: &str) {
    let qpath = path.with_extension("json.quarantined");
    match std::fs::rename(path, &qpath) {
        Ok(()) => eprintln!(
            "warning: cell {cell_id}: checkpoint {why}; quarantined to {}, recomputing",
            qpath.display()
        ),
        Err(e) => eprintln!(
            "warning: cell {cell_id}: checkpoint {why}; quarantine rename failed ({e}), recomputing"
        ),
    }
}

/// Attempt to reuse `model`'s cell of `spec` from its checkpoint file.
///
/// Integrity comes first: a zero-byte file (a crashed `write(2)` that got
/// as far as `create`), a torn tail, or an embedded-checksum mismatch is
/// **quarantined** to `<name>.json.quarantined` and recomputed — resume
/// never trusts checkpoint bytes it cannot verify. A checkpoint that
/// predates content checksums, one marked `"degraded"` by a supervised
/// run, one whose content names another cell, or one estimated under
/// other parameters is recomputed in place (the file itself is healthy).
fn try_resume(spec: &CellSpec, model: SecurityModel, dir: &Path) -> Option<CellOutcome> {
    let cell_id = spec.cell_id(model);
    let path = dir.join(format!("{cell_id}.json"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("warning: cell {cell_id}: cannot read checkpoint: {e}; recomputing");
            return None;
        }
    };
    if text.is_empty() {
        quarantine(&path, &cell_id, "is zero bytes (torn write)");
        return None;
    }
    let cell = match Cell::parse(&text) {
        Ok(cell) => cell,
        Err(e) => {
            let why = format!("is torn or not a campaign cell ({e})");
            quarantine(&path, &cell_id, &why);
            return None;
        }
    };
    let why = match cell.checksum(&text) {
        ChecksumStatus::Mismatch => {
            quarantine(&path, &cell_id, "fails its content checksum");
            return None;
        }
        // Healthy pre-hardening checkpoint: recompute (don't quarantine)
        // so every trusted cell carries a checksum going forward.
        ChecksumStatus::Missing => Some("predates content checksums"),
        ChecksumStatus::Valid if cell.degraded => Some("is degraded (lost groups)"),
        // A copied or renamed file, or a rerun with a different --pairs /
        // --ci / --rollout-steps: never reuse its estimates here.
        ChecksumStatus::Valid => spec.mismatch(model, &cell),
    };
    if let Some(why) = why {
        println!("cell {cell_id}: checkpoint {why}, recomputing to repair");
        return None;
    }
    println!("cell {cell_id}: resumed from checkpoint");
    Some(CellOutcome {
        id: cell_id,
        json: text,
        wall_ms: cell.wall_ms,
        pairs: cell.pairs,
        resumed: true,
        degraded: false,
    })
}

/// Write one cell checkpoint atomically (tmp + rename), warning and
/// continuing on I/O failure — a lost checkpoint only costs a recompute
/// on the next resume, never the campaign. The `ckpt.write` /
/// `ckpt.rename` fault points tear, corrupt or drop the write under a
/// `--fault-plan` to prove exactly that.
fn write_checkpoint(dir: &Path, cell_id: &str, json: &str) {
    let path = dir.join(format!("{cell_id}.json"));
    let tmp = dir.join(format!("{cell_id}.json.tmp"));
    let mut content = json.to_string();
    match faultpoint::check("ckpt.write", cell_id) {
        Some(faultpoint::Fault::Torn) => {
            content.truncate(content.len() / 2);
            eprintln!("faultpoint: tearing checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Corrupt) => {
            // Flip one digit mid-file: still valid UTF-8 and JSON, but
            // the content checksum no longer matches.
            if let Some(pos) = content.rfind(|c: char| c.is_ascii_digit()) {
                let b = content.as_bytes()[pos];
                let flipped = (b'0' + (b - b'0' + 1) % 10) as char;
                content.replace_range(pos..pos + 1, &flipped.to_string());
            }
            eprintln!("faultpoint: corrupting checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Garbage) => {
            content = "garbage\n".to_string();
            eprintln!("faultpoint: scribbling over checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Err) => {
            eprintln!(
                "faultpoint: simulated ENOSPC writing checkpoint {cell_id}; \
                 continuing without checkpoint"
            );
            return;
        }
        None => {}
    }
    if let Err(e) = std::fs::write(&tmp, &content) {
        eprintln!(
            "warning: cannot write checkpoint {}: {e}; continuing without checkpoint",
            tmp.display()
        );
        return;
    }
    if faultpoint::check("ckpt.rename", cell_id).is_some() {
        // A crash between write and rename: the tmp file survives, the
        // final name never appears.
        eprintln!("faultpoint: simulated rename failure for checkpoint {cell_id}");
        return;
    }
    if let Err(e) = std::fs::rename(&tmp, &path) {
        eprintln!(
            "warning: cannot finalize checkpoint {}: {e}; continuing without checkpoint",
            path.display()
        );
    }
}

/// Run every model cell of one group — one fused multi-cell estimator
/// pass serving every model whose checkpoint is missing or stale, while
/// present cells resume untouched (each cell's estimates don't depend on
/// which lanes shared its pass, so partial groups recompute only their
/// gaps). Results are in `spec.models` order, one [`CellOutcome`] per
/// model; wall-clock is attributed evenly across the group's computed
/// cells, so per-cell `pairs_per_sec` reflects the fused amortization.
///
/// With `sup` set, the group's destination groups are sharded across the
/// supervised worker fleet instead of the in-process pool. The workers
/// rebuild the evaluator from the same spec, and the coordinator merges
/// their accumulators in group order, so the estimates are bit-identical
/// either way.
fn run_figure_group(
    spec: &CellSpec,
    net: &Internet,
    args: &Args,
    sup: Option<&mut Supervisor>,
) -> Vec<CellOutcome> {
    let resumed: Vec<Option<CellOutcome>> = spec
        .models
        .iter()
        .map(|&m| try_resume(spec, m, &args.checkpoint_dir))
        .collect();
    let models = spec.models.iter().zip(&resumed);
    let missing = CellSpec {
        models: models
            .filter(|(_, r)| r.is_none())
            .map(|(&m, _)| m)
            .collect(),
        ..spec.clone()
    };
    if missing.models.is_empty() {
        return resumed.into_iter().flatten().collect();
    }
    let est = missing.estimator();
    let t0 = Instant::now();
    let runs: Vec<AdaptiveRun> = missing.with_eval(net, |universe, eval| match sup {
        Some(sup) => supervise::estimate_adaptive_supervised(
            universe,
            &est,
            &eval.cell_stats(),
            &missing.to_json(),
            sup,
        ),
        None => stats::estimate_adaptive_cells_eval(universe, &est, eval, args.threads),
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let share_ms = wall_ms / missing.models.len() as f64;
    let mut computed = missing.models.iter().zip(&runs).map(|(&model, run)| {
        let cell_id = missing.cell_id(model);
        let json = missing.write_cell(model, run, share_ms);
        // Atomic checkpoint: a kill mid-write leaves only the tmp file
        // behind.
        write_checkpoint(&args.checkpoint_dir, &cell_id, &json);
        let degraded = run.lost_groups > 0 || run.lost_pairs > 0;
        println!(
            "cell {cell_id}: {} pairs in {:.1} ms fused share ({:.0} pairs/s), max CI ±{:.3}pp{}",
            run.sampled.len(),
            share_ms,
            run.sampled.len() as f64 / (share_ms / 1e3).max(1e-9),
            100.0 * run.max_halfwidth(),
            match degraded {
                true => format!(
                    " [DEGRADED: {} group(s), {} pair(s) lost]",
                    run.lost_groups, run.lost_pairs
                ),
                false => String::new(),
            }
        );
        CellOutcome {
            id: cell_id,
            json,
            wall_ms: share_ms,
            pairs: run.sampled.len() as u64,
            resumed: false,
            degraded,
        }
    });
    // Stitch the freshly computed cells back into `spec.models` order.
    resumed
        .into_iter()
        .map(|r| r.unwrap_or_else(|| computed.next().expect("one run per missing model")))
        .collect()
}

/// Schema check for an assembled campaign JSON (the CI drift gate): every
/// top-level key and every key of every cell, then the embedded content
/// checksum of every cell that carries one (pre-hardening campaign files
/// carry none and are still accepted), over the bytes the reader located.
fn validate(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let cells = sbgp_bench::campaign::read_campaign(&text, "schema grid cells totals", CELL_KEYS)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    match cells
        .iter()
        .find(|c| c.checksum(&text) == ChecksumStatus::Mismatch)
    {
        Some(c) => Err(format!(
            "{}: cell checksum mismatch (figure {}, byte {})",
            path.display(),
            c.figure,
            c.start
        )),
        None => Ok(()),
    }
}

fn list_json<T: std::fmt::Display>(xs: &[T], quoted: bool) -> String {
    let items: Vec<String> = xs
        .iter()
        .map(|x| match quoted {
            true => format!("\"{x}\""),
            false => x.to_string(),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: [--figures baseline,rollout,ladder] [--asns N,...] [--seeds S,...] \
                 [--models sec1,sec2,sec3] [--ci H] [--pairs B] [--rollout-steps K] \
                 [--threads T] [--checkpoint-dir DIR] [--out FILE] [--smoke] \
                 [--file AS-REL [--cps ASN,...]] [--validate FILE] \
                 [--workers N [--watchdog-ms MS] [--strikes K] [--backoff-ms MS]] \
                 [--fault-plan FILE]"
            );
            std::process::exit(2);
        }
    };
    if args.worker {
        worker_main(&args);
    }
    faultpoint::set_role("coord");
    if let Some(plan) = &args.fault_plan {
        match faultpoint::load_plan(plan) {
            Ok(n) => println!("fault plan: {n} fault(s) armed from {}", plan.display()),
            Err(e) => {
                eprintln!("cannot load fault plan {}: {e}", plan.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.validate {
        match validate(path) {
            Ok(()) => {
                println!("{}: schema {CAMPAIGN_SCHEMA} ok", path.display());
                return;
            }
            Err(msg) => {
                eprintln!("schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&args.checkpoint_dir) {
        eprintln!(
            "cannot create checkpoint dir {}: {e}",
            args.checkpoint_dir.display()
        );
        std::process::exit(1);
    }
    println!(
        "campaign: {} figure(s) × {} × {} seed(s) × {} model(s), \
         budget {} pairs{}, checkpoints in {}{}",
        args.figures.len(),
        match &args.cell.snapshot {
            Some(p) => format!("snapshot {} + synthetic twin", p.display()),
            None => format!("{} size(s)", args.asns.len()),
        },
        args.seeds.len(),
        args.cell.models.len(),
        args.cell.budget,
        args.cell
            .ci_target
            .map(|t| format!(", CI target ±{:.2}pp", 100.0 * t))
            .unwrap_or_default(),
        args.checkpoint_dir.display(),
        if args.workers > 0 {
            format!(", {} supervised worker(s)", args.workers)
        } else {
            String::new()
        }
    );
    let mut sup: Option<Supervisor> = if args.workers > 0 {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot locate own executable for worker spawn: {e}");
                std::process::exit(1);
            }
        };
        let mut argv = vec![exe.display().to_string(), "--worker".to_string()];
        if let Some(plan) = &args.fault_plan {
            argv.push("--fault-plan".to_string());
            argv.push(plan.display().to_string());
        }
        Some(Supervisor::new(SupervisorConfig {
            workers: args.workers,
            argv,
            watchdog: Duration::from_millis(args.watchdog_ms),
            strikes: args.strikes,
            backoff: Duration::from_millis(args.backoff_ms),
        }))
    } else {
        None
    };

    let mut cells: Vec<String> = Vec::new();
    let mut degraded_ids: Vec<String> = Vec::new();
    let (mut total_ms, mut total_pairs) = (0f64, 0u64);
    let (mut resumed, mut computed) = (0usize, 0usize);
    {
        // One figure × model sweep over a graph; appends its cells in
        // figure-major, model-minor order.
        let mut sweep = |graph: &CellSpec, net: &Internet| {
            for &figure in &args.figures {
                // All models of the figure in one fused pass (or all
                // resumed).
                let spec = CellSpec {
                    figure,
                    ..graph.clone()
                };
                for out in run_figure_group(&spec, net, &args, sup.as_mut()) {
                    total_ms += out.wall_ms;
                    total_pairs += out.pairs;
                    if out.resumed {
                        resumed += 1;
                    } else {
                        computed += 1;
                    }
                    if out.degraded {
                        degraded_ids.push(out.id);
                    }
                    cells.push(out.json);
                }
            }
        };
        // One graph per (size, seed), shared by every figure × model cell.
        let synthetic = |asns: usize, seed: u64, twin: &str| {
            let spec = CellSpec {
                asns,
                seed,
                snapshot: None,
                cps: Vec::new(),
                ..args.cell.clone()
            };
            let t0 = Instant::now();
            let net = Internet::synthetic(asns, seed);
            println!(
                "graph synthetic-{asns} seed {seed}{twin}: generated in {:.1} ms",
                t0.elapsed().as_secs_f64() * 1e3
            );
            (spec, net)
        };
        if let Some(path) = &args.cell.snapshot {
            // The parsed-snapshot axis: load once, then per seed run the
            // snapshot's cells followed by a synthetic twin of the same
            // size so the real graph always has a like-for-like baseline.
            let t0 = Instant::now();
            let parsed = match args.cell.internet() {
                Ok(net) => net,
                Err(e) => {
                    eprintln!("cannot load snapshot {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            // The twins are synthetic: a snapshot below the generator's
            // floor has none.
            if let Err(e) = sbgp_bench::check_asns("its synthetic twin's size", parsed.len()) {
                eprintln!("snapshot {}: {e}", path.display());
                std::process::exit(1);
            }
            println!(
                "graph {} ({} ASes, {} CPs): parsed in {:.1} ms",
                parsed.name,
                parsed.len(),
                parsed.content_providers.len(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            for &seed in &args.seeds {
                let spec = CellSpec {
                    asns: parsed.len(),
                    seed,
                    ..args.cell.clone()
                };
                sweep(&spec, &parsed);
                let (twin, net) = synthetic(spec.asns, seed, " (twin)");
                sweep(&twin, &net);
            }
        } else {
            for &asns in &args.asns {
                for &seed in &args.seeds {
                    let (spec, net) = synthetic(asns, seed, "");
                    sweep(&spec, &net);
                }
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{CAMPAIGN_SCHEMA}\",");
    let _ = writeln!(json, "  \"grid\": {{");
    let figures: Vec<&str> = args.figures.iter().map(|f| f.name()).collect();
    let models: Vec<&str> = args.cell.models.iter().map(|&m| model_token(m)).collect();
    let _ = writeln!(json, "    \"figures\": {},", list_json(&figures, true));
    if let Some(path) = &args.cell.snapshot {
        // Only parsed-snapshot runs carry these keys; the synthetic grid
        // (and the committed release JSON) is byte-for-byte unchanged.
        let mut snapshot = String::new();
        json::write_str(&mut snapshot, &path.display().to_string());
        let _ = writeln!(json, "    \"snapshot\": {snapshot},");
        let _ = writeln!(json, "    \"cps\": {},", list_json(&args.cell.cps, false));
    }
    let _ = writeln!(json, "    \"asns\": {},", list_json(&args.asns, false));
    let _ = writeln!(json, "    \"seeds\": {},", list_json(&args.seeds, false));
    let _ = writeln!(json, "    \"models\": {},", list_json(&models, true));
    let ci = args.cell.ci_target.map_or("null".into(), |t| t.to_string());
    let _ = writeln!(json, "    \"ci\": {ci},");
    let _ = writeln!(json, "    \"pairs\": {},", args.cell.budget);
    let _ = writeln!(json, "    \"rollout_steps\": {}", args.cell.rollout_steps);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(json, "{c}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    // Cells whose supervised run exhausted the retry ladder; the grid
    // still validates, and a rerun repairs them from their (untrusted)
    // degraded checkpoints.
    let _ = writeln!(json, "  \"degraded\": {},", list_json(&degraded_ids, true));
    let _ = writeln!(json, "  \"totals\": {{");
    let _ = writeln!(json, "    \"cells\": {},", cells.len());
    let _ = writeln!(json, "    \"computed_this_run\": {computed},");
    let _ = writeln!(json, "    \"resumed\": {resumed},");
    let _ = writeln!(json, "    \"degraded\": {},", degraded_ids.len());
    let _ = writeln!(json, "    \"pairs\": {total_pairs},");
    let _ = writeln!(json, "    \"wall_ms\": {total_ms:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} cells: {computed} computed, {resumed} resumed, {} degraded; \
         {total_pairs} pairs, {:.1} s)",
        args.out.display(),
        cells.len(),
        degraded_ids.len(),
        total_ms / 1e3
    );
    if let Err(msg) = validate(&args.out) {
        eprintln!("self-check failed: {msg}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Supervised worker mode
// ---------------------------------------------------------------------------

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_string())
}

/// Serve evaluation tasks for one group until the coordinator re-inits
/// (returns the new payload), shuts us down, or disappears (returns
/// `None`). Stdout carries only protocol frames — diagnostics go to
/// stderr, which the coordinator leaves attached to its own.
///
/// A panic inside the fused kernels (real, or injected through the
/// `worker.eval` fault point) is caught, converted into an `error`
/// reply, and the scratch engines are rebuilt — one poisoned cell
/// evaluation never takes the worker down with it.
fn serve_tasks(
    eval: &CampaignEval<'_>,
    nstrata: usize,
    stdin: &mut impl Read,
    stdout: &mut impl Write,
) -> Option<String> {
    let cell_stats = eval.cell_stats();
    if supervise::write_frame(stdout, &supervise::encode_ready(&cell_stats, nstrata)).is_err() {
        return None;
    }
    let mut w = eval.make_worker();
    loop {
        let frame = match supervise::read_frame(stdin) {
            Ok(Some(f)) => f,
            _ => return None,
        };
        match supervise::parse_worker_msg(&frame) {
            Ok(WorkerMsg::Init(p)) => return Some(p),
            Ok(WorkerMsg::Shutdown) => return None,
            Ok(WorkerMsg::Task {
                id,
                dest,
                attackers,
            }) => {
                let key = format!("task{id}");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(f) = faultpoint::check("worker.eval", &key) {
                        return Err(format!("injected {f:?} fault at worker.eval"));
                    }
                    Ok(supervise::eval_task_data(
                        eval, &mut w, nstrata, dest, &attackers,
                    ))
                }));
                let reply = match outcome {
                    Ok(Ok(data)) => supervise::encode_result(id, &data),
                    Ok(Err(msg)) => supervise::encode_error(id, &msg),
                    Err(panic) => {
                        // The scratch engines may be mid-update; rebuild.
                        w = eval.make_worker();
                        supervise::encode_error(id, &panic_message(panic))
                    }
                };
                let reply = match faultpoint::check("worker.reply", &key) {
                    // Wrong-schema reply: right type, missing data — the
                    // coordinator must strike it, not merge it.
                    Some(_) => format!("{{\"type\":\"result\",\"id\":{id}}}"),
                    None => reply,
                };
                if supervise::write_frame(stdout, &reply).is_err() {
                    return None;
                }
            }
            Err(e) => {
                // An unparseable coordinator frame (e.g. the injected
                // `coord.frame` garbage): we can't know which task it
                // carried, so stay silent and let the coordinator's
                // watchdog reassign it.
                eprintln!("worker: ignoring bad coordinator frame: {e}");
            }
        }
    }
}

/// The `--worker` child process: rebuild each group the coordinator
/// announces and serve its cell evaluations over stdin/stdout. Never
/// returns; exits 0 on shutdown/EOF, nonzero on a broken spec or graph.
fn worker_main(args: &Args) -> ! {
    faultpoint::set_role(&format!("worker{}", args.worker_id));
    if let Some(plan) = &args.fault_plan {
        if let Err(e) = faultpoint::load_plan(plan) {
            eprintln!(
                "worker {}: cannot load fault plan {}: {e}",
                args.worker_id,
                plan.display()
            );
            std::process::exit(2);
        }
    }
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut next_init: Option<String> = None;
    loop {
        let payload = match next_init.take() {
            Some(p) => p,
            None => match supervise::read_frame(&mut stdin) {
                Ok(Some(f)) => match supervise::parse_worker_msg(&f) {
                    Ok(WorkerMsg::Init(p)) => p,
                    Ok(WorkerMsg::Shutdown) => std::process::exit(0),
                    Ok(WorkerMsg::Task { .. }) => {
                        eprintln!("worker {}: task before init, ignoring", args.worker_id);
                        continue;
                    }
                    Err(e) => {
                        eprintln!("worker {}: ignoring bad frame: {e}", args.worker_id);
                        continue;
                    }
                },
                _ => std::process::exit(0), // EOF: the coordinator is gone
            },
        };
        let spec = match CellSpec::read(&payload) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("worker {}: bad group spec: {e}", args.worker_id);
                std::process::exit(2);
            }
        };
        let net = match spec.internet() {
            Ok(net) => net,
            Err(e) => {
                eprintln!(
                    "worker {}: cannot load the group's graph: {e}",
                    args.worker_id
                );
                std::process::exit(1);
            }
        };
        next_init = spec.with_eval(&net, |universe, eval| {
            serve_tasks(eval, universe.strata().len(), &mut stdin, &mut stdout)
        });
        if next_init.is_none() {
            std::process::exit(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint cell with every key, `pairs` and `wall_ms` spliced in.
    fn cell(pairs: &str, wall_ms: &str) -> String {
        format!(
            "{{\n  \"schema\": \"campaign-cell-v1\",\n  \"figure\": \"baseline\",\n  \"asns\": 400,\n  \
             \"seed\": 11,\n  \"model\": \"sec1\",\n  \"steps\": 1,\n  \"budget\": 300,\n  \
             \"ci_target\": null,\n  \"population\": 159600,\n  \"strata\": 16,\n  \
             \"pairs\": {pairs},\n  \"wall_ms\": {wall_ms},\n  \"pairs_per_sec\": 32401.782,\n  \
             \"max_halfwidth\": 0.01,\n  \"ci_trajectory\": [{{\"pairs\": 128, \"max_halfwidth\": 0.02}}],\n  \
             \"estimates\": [{{\"step\": 0, \"lower\": 0.5, \"upper\": 0.6, \"hw_lower\": 0.01, \"hw_upper\": 0.02}}]\n}}"
        )
    }

    #[test]
    fn checkpoint_fields_keep_their_fractions() {
        let c = Cell::parse(&cell("400", "12.345")).unwrap();
        assert_eq!(c.wall_ms, 12.345);
        assert_eq!(c.pairs, 400);
        assert_eq!(c.ci_target, None);
        // A count is strict digits: a fraction or a sign is an error at
        // the value, not a silent truncation.
        for bad in ["400.5", "-3", "4e2"] {
            let text = cell(bad, "12.345");
            let err = Cell::parse(&text).unwrap_err();
            assert_eq!(err.at, text.find(bad).unwrap(), "{bad}: {err}");
        }
        // A checkpoint missing a key is no checkpoint.
        let text = cell("400", "12.345").replace("\"strata\"", "\"stratum\"");
        let err = Cell::parse(&text).unwrap_err();
        assert_eq!(
            (err.at, err.what.as_str()),
            (text.len() - 1, "missing \"strata\"")
        );
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn asns_below_the_generator_floor_are_a_usage_error() {
        let floor = sbgp_topology::gen::InternetConfig::default().min_total_ases();
        for small in ["0", "5", "20", "50", "100"] {
            let err = parse(&["--smoke", "--asns", small]).err().unwrap();
            assert_eq!(
                err,
                format!("--asns {small} is below the synthetic generator's floor of {floor} ASes")
            );
        }
        // One size below the floor spoils the whole list.
        assert!(parse(&["--asns", &format!("4000,{}", floor - 1)]).is_err());
        let a = parse(&["--asns", &format!("{floor},400")]).unwrap();
        assert_eq!(a.asns, [floor, 400]);
    }

    #[test]
    fn a_zero_pair_budget_is_a_usage_error() {
        assert_eq!(
            parse(&["--pairs", "0"]).err().unwrap(),
            "--pairs wants at least 1"
        );
        assert_eq!(parse(&["--smoke", "--pairs", "1"]).unwrap().cell.budget, 1);
        assert_eq!(
            parse(&["--pairs", "x"]).err().unwrap(),
            "--pairs wants a number"
        );
    }

    // A repeated grid value would run (and report) its cells twice.
    #[test]
    fn a_repeated_figure_is_a_usage_error() {
        assert_eq!(
            parse(&["--figures", "rollout,baseline,rollout"])
                .err()
                .unwrap(),
            "--figures lists rollout twice (items 1 and 3)"
        );
    }

    #[test]
    fn a_repeated_size_is_a_usage_error() {
        assert_eq!(
            parse(&["--asns", "400, 4000,400"]).err().unwrap(),
            "--asns lists 400 twice (items 1 and 3)"
        );
    }

    #[test]
    fn a_repeated_seed_is_a_usage_error() {
        assert_eq!(
            parse(&["--seeds", "11,11"]).err().unwrap(),
            "--seeds lists 11 twice (items 1 and 2)"
        );
        assert_eq!(parse(&["--seeds", "11,12"]).unwrap().seeds, [11, 12]);
    }

    #[test]
    fn a_repeated_model_is_a_usage_error() {
        assert_eq!(
            parse(&["--models", "sec1,sec3,sec1"]).err().unwrap(),
            "--models lists sec1 twice (items 1 and 3)"
        );
    }
}
