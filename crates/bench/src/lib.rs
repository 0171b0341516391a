//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one figure or table from the
//! paper. They share a tiny argument parser ([`Cli`]) and the rendering
//! code in [`render`], so `run_all` can regenerate the whole evaluation in
//! one go:
//!
//! ```text
//! cargo run --release -p sbgp_bench --bin figure03 -- --asns 8000
//! cargo run --release -p sbgp_bench --bin run_all -- --asns 4000 > EXPERIMENTS.txt
//! ```
//!
//! Common flags: `--asns N`, `--seed S`, `--attackers A`,
//! `--destinations D`, `--per-tier P`, `--threads T`, `--ixp`
//! (Appendix J graph), `--file <as-rel>` (run on a parsed CAIDA
//! serial-1/serial-2 snapshot instead of the synthetic generator) with
//! `--cps <asn,asn,...>` (the paper's explicit 17-content-provider list as
//! real ASNs, resolved through the snapshot's labels),
//! `--policy lp|lp2|lpinf` (Appendix K variants),
//! `--strategy fakelink|hijack|pathK` (the Goldberg et al. attack
//! taxonomy; honored by the rollout, per-destination and baseline
//! figures), and the estimation mode `--ci H` / `--pairs B` (stratified
//! estimates with confidence intervals, honored by the baseline, the
//! rollout figures and the strategy ladder; off by default so classic
//! output stays byte-identical), and `--sweep-stats` (append the
//! sweep engines' per-run serving stats — fallback rate, refixed
//! fraction, step directions — to the sweep-backed reports; also off by
//! default for the same reason).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod render;

use std::path::PathBuf;

use sbgp_core::{AttackStrategy, LpVariant};
use sbgp_sim::experiments::ExperimentConfig;
use sbgp_sim::{Internet, Parallelism};
use sbgp_topology::gen::InternetConfig;

/// Parsed command-line options for the figure binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Synthetic graph size.
    pub asns: usize,
    /// Generator/sampler seed.
    pub seed: u64,
    /// Use the IXP-augmented graph (Appendix J).
    pub ixp: bool,
    /// Parse a real CAIDA serial-1/serial-2 snapshot instead of
    /// generating a synthetic graph.
    pub file: Option<PathBuf>,
    /// Content-provider list as real-world ASNs (the paper's explicit
    /// 17-CP list), resolved through the snapshot's preserved labels.
    pub cps: Vec<u32>,
    /// LP variant (Appendix K).
    pub variant: LpVariant,
    /// Sampling configuration.
    pub config: ExperimentConfig,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            asns: 4_000,
            seed: 42,
            ixp: false,
            file: None,
            cps: Vec::new(),
            variant: LpVariant::Standard,
            config: ExperimentConfig::default(),
        }
    }
}

impl Cli {
    /// Parse `std::env::args`, exiting with usage on errors or `--help`.
    pub fn parse() -> Cli {
        match Cli::try_parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: [--asns N] [--seed S] [--attackers A] [--destinations D] \
                     [--per-tier P] [--threads T] [--ixp] [--file AS-REL] \
                     [--cps ASN,ASN,...] [--policy lp|lp2|lpinf] \
                     [--strategy fakelink|hijack|pathK] [--ci H] [--pairs B] \
                     [--sweep-stats]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit iterator (testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--asns" => cli.asns = check_asns("--asns", parse_num(&take("--asns")?)?)?,
                "--seed" => cli.seed = parse_num(&take("--seed")?)?,
                "--attackers" => cli.config.attackers = parse_num(&take("--attackers")?)?,
                "--destinations" => cli.config.destinations = parse_num(&take("--destinations")?)?,
                "--per-tier" => cli.config.per_tier = parse_num(&take("--per-tier")?)?,
                "--threads" => {
                    cli.config.parallelism = Parallelism(parse_num(&take("--threads")?)?)
                }
                "--ixp" => cli.ixp = true,
                "--file" => cli.file = Some(PathBuf::from(take("--file")?)),
                // A repeated ASN would double-count that content provider
                // in every per-CP average.
                "--cps" => cli.cps = parse_list("--cps", &take("--cps")?, parse_num)?,
                "--strategy" => {
                    let value = take("--strategy")?;
                    let strategy = match value.as_str() {
                        "fakelink" | "fake-link" => AttackStrategy::FakeLink,
                        "hijack" => AttackStrategy::OriginHijack,
                        other => match other.strip_prefix("path") {
                            Some(k) => AttackStrategy::FakePath {
                                hops: parse_num(k)?,
                            },
                            None => return Err(format!("unknown strategy {other:?}")),
                        },
                    };
                    // `path1` IS the fake link (and `path0` the hijack):
                    // canonicalize so the non-default banner and any
                    // equality-keyed logic never treat identical behavior
                    // as a different strategy.
                    cli.config.strategy = strategy.canonical();
                }
                "--ci" => {
                    let target: f64 = parse_num(&take("--ci")?)?;
                    if !(target > 0.0 && target < 1.0) {
                        return Err(format!("--ci wants a half-width in (0, 1), got {target}"));
                    }
                    cli.config.ci_target = Some(target);
                }
                "--pairs" => cli.config.pair_budget = Some(parse_num(&take("--pairs")?)?),
                "--sweep-stats" => cli.config.sweep_stats = true,
                "--policy" => {
                    cli.variant = match take("--policy")?.as_str() {
                        "lp" => LpVariant::Standard,
                        "lp2" => LpVariant::LpK(2),
                        "lpinf" => LpVariant::LpInf,
                        other => return Err(format!("unknown policy {other:?}")),
                    }
                }
                "--help" | "-h" => return Err("help requested".into()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        cli.config.seed = cli.seed;
        if !cli.cps.is_empty() && cli.file.is_none() {
            return Err("--cps only makes sense with --file (synthetic graphs \
                        carry their own generated CP list)"
                .into());
        }
        if cli.file.is_some() && cli.ixp {
            return Err(
                "--ixp augments synthetic graphs and cannot be combined with --file".into(),
            );
        }
        Ok(cli)
    }

    /// Build the experiment topology, exiting with a diagnostic when a
    /// `--file` snapshot fails to load.
    pub fn internet(&self) -> Internet {
        match self.try_internet() {
            Ok(net) => net,
            Err(e) => {
                eprintln!(
                    "cannot load snapshot {}: {e}",
                    self.file
                        .as_deref()
                        .unwrap_or(std::path::Path::new("?"))
                        .display()
                );
                std::process::exit(1);
            }
        }
    }

    /// Build the experiment topology: the parsed `--file` snapshot when
    /// given (CPs resolved from the real-ASN `--cps` list), otherwise the
    /// synthetic generator (IXP-augmented under `--ixp`).
    pub fn try_internet(&self) -> Result<Internet, sbgp_topology::TopologyError> {
        if let Some(path) = &self.file {
            Internet::from_file(path, &self.cps)
        } else if self.ixp {
            Ok(Internet::synthetic_with_ixp(self.asns, self.seed))
        } else {
            Ok(Internet::synthetic(self.asns, self.seed))
        }
    }

    /// Print the standard experiment banner.
    pub fn banner(&self, title: &str, net: &Internet) {
        println!("=== {title} ===");
        println!(
            "graph: {} ({} ASes, {} c2p, {} p2p edges); seed {}; policy {}",
            net.name,
            net.graph.len(),
            net.graph.num_customer_provider_edges(),
            net.graph.num_peer_edges(),
            self.seed,
            self.variant,
        );
        println!(
            "sampling: {} attackers x {} destinations ({} per tier), {} thread(s)",
            self.config.attackers,
            self.config.destinations,
            self.config.per_tier,
            self.config.parallelism.0
        );
        // Only announced when non-default, so the legacy fake-link
        // banners (and their golden snapshots) stay byte-identical. The
        // qualifier matters: drivers that fix their own strategy (the
        // partition figures, the RPKI-value and strategy-ladder tables)
        // ignore the flag, and their numbers must not be misattributed.
        if self.config.strategy != AttackStrategy::FakeLink {
            println!(
                "attack strategy: {} (strategy-aware drivers only; partition/ladder \
                 tables fix their own)",
                self.config.strategy
            );
        }
        // Like the strategy line: only announced when requested, so the
        // flag-less banners (and their golden snapshots) never move.
        if let Some(est) = self.config.estimation() {
            match est.ci_target {
                Some(t) => println!(
                    "estimation: stratified, CI target ±{:.2}pp (95%), pair budget {}",
                    100.0 * t,
                    est.budget
                ),
                None => println!("estimation: stratified, pair budget {}", est.budget),
            }
        }
        println!();
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// Parse a comma-separated list flag's value, item by item (empty items
/// are skipped, the others trimmed). A value that names one item twice
/// is an error naming the item and both 1-based positions: every list flag
/// is a set, and a repeat would count its item twice.
pub fn parse_list<T: PartialEq, E: std::fmt::Display>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    for token in value.split(',').filter(|t| !t.is_empty()).map(str::trim) {
        let item = parse(token).map_err(|e| e.to_string())?;
        if let Some(j) = items.iter().position(|seen| *seen == item) {
            return Err(format!(
                "{flag} lists {token} twice (items {} and {})",
                j + 1,
                items.len() + 1
            ));
        }
        items.push(item);
    }
    Ok(items)
}

/// `asns`, unless it is below the synthetic generator's floor
/// ([`InternetConfig::min_total_ases`] of the default shape); the error
/// names `what` (a flag or a key) and the floor.
pub fn check_asns(what: &str, asns: usize) -> Result<usize, String> {
    let floor = InternetConfig::default().min_total_ases();
    match asns >= floor {
        true => Ok(asns),
        false => Err(format!(
            "{what} {asns} is below the synthetic generator's floor of {floor} ASes"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.asns, 4_000);
        assert!(!cli.ixp);

        let cli = parse(&[
            "--asns",
            "1000",
            "--seed",
            "7",
            "--attackers",
            "9",
            "--ixp",
            "--policy",
            "lp2",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(cli.asns, 1000);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.config.attackers, 9);
        assert_eq!(cli.config.seed, 7);
        assert!(cli.ixp);
        assert_eq!(cli.variant, LpVariant::LpK(2));
        assert_eq!(cli.config.parallelism, Parallelism(3));
        assert_eq!(cli.config.strategy, AttackStrategy::FakeLink);
    }

    #[test]
    fn strategy_flag_parses_the_ladder() {
        assert_eq!(
            parse(&["--strategy", "hijack"]).unwrap().config.strategy,
            AttackStrategy::OriginHijack
        );
        assert_eq!(
            parse(&["--strategy", "fakelink"]).unwrap().config.strategy,
            AttackStrategy::FakeLink
        );
        assert_eq!(
            parse(&["--strategy", "path3"]).unwrap().config.strategy,
            AttackStrategy::FakePath { hops: 3 }
        );
        // The degenerate forged paths canonicalize to the legacy variants,
        // so `--strategy path1` is exactly the default (no banner line).
        assert_eq!(
            parse(&["--strategy", "path0"]).unwrap().config.strategy,
            AttackStrategy::OriginHijack
        );
        assert_eq!(
            parse(&["--strategy", "path1"]).unwrap().config.strategy,
            AttackStrategy::FakeLink
        );
        assert!(parse(&["--strategy", "bogus"]).is_err());
        assert!(parse(&["--strategy", "pathx"]).is_err());
        assert!(parse(&["--strategy"]).is_err());
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse(&["--asns"]).is_err());
        assert!(parse(&["--asns", "x"]).is_err());
        // Below the generator's floor is a usage error naming the flag
        // and the floor, not a panic inside the generator.
        let floor = InternetConfig::default().min_total_ases();
        for small in ["0", "5", "50", &(floor - 1).to_string()] {
            let err = parse(&["--asns", small]).unwrap_err();
            assert!(
                err.contains("--asns") && err.contains(&format!("floor of {floor} ASes")),
                "{err}"
            );
        }
        assert_eq!(parse(&["--asns", &floor.to_string()]).unwrap().asns, floor);
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--policy", "lp9"]).is_err());
    }

    #[test]
    fn file_and_cps_flags_parse() {
        let cli = parse(&["--file", "snap.as-rel", "--cps", "15169,20940, 8075"]).unwrap();
        assert_eq!(
            cli.file.as_deref(),
            Some(std::path::Path::new("snap.as-rel"))
        );
        assert_eq!(cli.cps, vec![15169, 20940, 8075]);

        // --file alone is fine (empty CP list).
        let cli = parse(&["--file", "snap.as-rel"]).unwrap();
        assert!(cli.cps.is_empty());

        // --cps without --file, --file+--ixp, and junk ASNs are rejected.
        assert!(parse(&["--cps", "15169"]).is_err());
        assert!(parse(&["--file", "x", "--ixp"]).is_err());
        assert!(parse(&["--file", "x", "--cps", "google"]).is_err());
        assert!(parse(&["--file"]).is_err());
        assert!(parse(&["--cps"]).is_err());
    }

    #[test]
    fn duplicate_cps_are_a_located_error() {
        // A repeated ASN used to be double-counted as two content
        // providers; now the parse names the ASN and both positions.
        let err = parse(&["--file", "x", "--cps", "15169,20940,15169"]).unwrap_err();
        assert!(err.contains("15169"), "{err}");
        assert!(err.contains("items 1 and 3"), "{err}");
        // Whitespace variants collide too.
        assert!(parse(&["--file", "x", "--cps", "8075, 8075"]).is_err());
        // Distinct ASNs still parse.
        assert_eq!(
            parse(&["--file", "x", "--cps", "15169,20940"]).unwrap().cps,
            vec![15169, 20940]
        );
    }

    #[test]
    fn try_internet_loads_a_snapshot_with_resolved_cps() {
        let dir = std::env::temp_dir().join(format!("sbgp_cli_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.as-rel");
        std::fs::write(
            &path,
            "3356|15169|-1\n3356|174|0\n174|15169|-1\n701|3356|-1\n",
        )
        .unwrap();
        let cli = parse(&[
            "--file",
            path.to_str().unwrap(),
            "--cps",
            "15169",
            "--seed",
            "3",
        ])
        .unwrap();
        let net = cli.try_internet().unwrap();
        assert_eq!(net.name, "mini");
        assert_eq!(net.len(), 4);
        assert_eq!(net.content_providers.len(), 1);
        assert_eq!(net.graph.asn_label(net.content_providers[0]), 15169);
        // An unknown CP ASN is a load error, not a silent drop.
        let cli = parse(&["--file", path.to_str().unwrap(), "--cps", "64512"]).unwrap();
        assert!(cli.try_internet().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimation_flags_parse_and_default_off() {
        let cli = parse(&[]).unwrap();
        assert!(cli.config.estimation().is_none());

        let cli = parse(&["--ci", "0.005"]).unwrap();
        assert_eq!(cli.config.ci_target, Some(0.005));
        let est = cli.config.estimation().unwrap();
        assert_eq!(est.ci_target, Some(0.005));

        let cli = parse(&["--sweep-stats"]).unwrap();
        assert!(cli.config.sweep_stats);
        assert!(!parse(&[]).unwrap().config.sweep_stats);

        let cli = parse(&["--pairs", "2500"]).unwrap();
        assert_eq!(cli.config.pair_budget, Some(2500));
        assert_eq!(cli.config.estimation().unwrap().budget, 2500);
        assert_eq!(cli.config.estimation().unwrap().ci_target, None);

        assert!(parse(&["--ci", "0"]).is_err());
        assert!(parse(&["--ci", "1.5"]).is_err());
        assert!(parse(&["--ci"]).is_err());
        assert!(parse(&["--pairs", "x"]).is_err());
    }
}
