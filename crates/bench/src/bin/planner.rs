//! The deployment-planner what-if service binary.
//!
//! Load the snapshot once (`--file` or synthetic), then serve
//! [`sbgp_sim::serve::Planner`] queries over length-prefixed JSON frames
//! on stdin/stdout until EOF or a `{"op":"shutdown"}` frame. Diagnostics
//! go to stderr; stdout carries frames only.
//!
//! ```text
//! planner --file snapshot.as-rel --cps 15169,20940 --prewarm 32
//! planner --asns 4000 --threads 8 --cache 512
//! ```
//!
//! The cache's speed gate (warm ≥5× cold) is `tests/speed_gates.rs`.

use std::io::Write as _;

use sbgp_bench::Cli;
use sbgp_sim::serve::{Planner, PlannerConfig};

struct Args {
    cache: usize,
    prewarm: usize,
    cli: Cli,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut cache = 256usize;
    let mut prewarm = 0usize;
    let mut rest: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--cache" => {
                cache = take("--cache")?
                    .parse()
                    .map_err(|_| "--cache wants a number".to_string())?
            }
            "--prewarm" => {
                prewarm = take("--prewarm")?
                    .parse()
                    .map_err(|_| "--prewarm wants a number".to_string())?
            }
            other => {
                // Everything else is the shared experiment CLI
                // (--asns/--seed/--file/--cps/--threads/...). Flags that
                // carry values must travel with them.
                rest.push(other.to_string());
                if matches!(
                    other,
                    "--asns"
                        | "--seed"
                        | "--attackers"
                        | "--destinations"
                        | "--per-tier"
                        | "--threads"
                        | "--file"
                        | "--cps"
                        | "--strategy"
                        | "--ci"
                        | "--pairs"
                        | "--policy"
                ) {
                    rest.push(take(other)?);
                }
            }
        }
    }
    let cli = Cli::try_parse(rest)?;
    Ok(Args {
        cache,
        prewarm,
        cli,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: planner [--cache N] [--prewarm N] [shared flags: --asns N \
                 --seed S --file AS-REL --cps ASN,... --threads T ...]"
            );
            std::process::exit(2);
        }
    };
    let net = match args.cli.try_internet() {
        Ok(net) => net,
        Err(e) => {
            eprintln!("cannot load snapshot: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "planner: serving {} ({} ASes) — cache {}, prewarm {}, {} thread(s)",
        net.name,
        net.len(),
        args.cache,
        args.prewarm,
        args.cli.config.parallelism.0
    );
    let mut planner = Planner::new(
        net,
        PlannerConfig {
            cache_capacity: args.cache,
            prewarm: args.prewarm,
            parallelism: args.cli.config.parallelism,
        },
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    if let Err(e) = planner.serve(&mut reader, &mut writer) {
        eprintln!("planner: stream error: {e}");
        std::process::exit(1);
    }
    let _ = writer.flush();
    let s = planner.cache_stats();
    eprintln!(
        "planner: done — {} hits, {} misses ({} derived), {} pairs answered from kept counts, \
         {} evictions",
        s.hits, s.misses, s.derived, s.answered, s.evictions
    );
}
