//! The campaign runner's cells as a library type.
//!
//! A [`CellSpec`] describes one group of cells: a figure on one graph at
//! one seed, for a set of security models, under one estimation budget.
//! [`CellSpec::with_eval`] maps it to the pair universe, the deployments
//! and the evaluator, the one map behind the `campaign` binary's
//! in-process pool, its supervised coordinator and its worker processes.
//! The spec's own JSON ([`CellSpec::to_json`], [`CellSpec::read`]) is the
//! workers' `init` payload.
//!
//! Each cell is written by [`CellSpec::write_cell`] and read back through
//! [`sbgp_sim::json`] by [`Cell::read`]: one checkpoint file, or one entry
//! of an assembled `BENCH_campaign.json` ([`read_campaign`]). The binary
//! resumes and validates with these readers, and `run_all` quotes the
//! committed estimates through them.

use std::fmt::Write as _;
use std::path::PathBuf;

use sbgp_core::{AttackStrategy, Deployment, Policy, SecurityModel};
use sbgp_sim::json::{self, JsonError, Reader};
use sbgp_sim::scenario::sweep_rollout_steps;
use sbgp_sim::serve::{model_token, parse_model};
use sbgp_sim::stats::{
    AdaptiveRun, CellEval, EstimatorConfig, LadderCellsEval, PairUniverse, SweepCellsEval,
    SweepWorker,
};
use sbgp_sim::supervise::{self, ChecksumStatus};
use sbgp_sim::Internet;
use sbgp_topology::{AsId, TopologyError};

/// Cell schema marker; bump on any layout change.
pub const CELL_SCHEMA: &str = "campaign-cell-v1";
/// Assembled-document schema marker.
pub const CAMPAIGN_SCHEMA: &str = "campaign-v1";
/// The keys every cell the `campaign` binary writes carries.
pub const CELL_KEYS: &str = "schema figure asns seed model steps budget ci_target population \
                             strata pairs wall_ms pairs_per_sec max_halfwidth ci_trajectory estimates";

/// The campaign's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Figure {
    /// `H_{V,V}(∅)` — the §4.2 baseline.
    #[default]
    Baseline,
    /// `H_{M',V}(S_k)` along a monotone Tier-2 rollout.
    Rollout,
    /// The per-pair optimal forged-path ladder at `S = ∅`.
    Ladder,
}

impl Figure {
    /// Every figure.
    pub const ALL: [Figure; 3] = [Figure::Baseline, Figure::Rollout, Figure::Ladder];

    /// Parse a figure name.
    pub fn parse(s: &str) -> Result<Figure, String> {
        Figure::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("unknown figure {s:?} (baseline|rollout|ladder)"))
    }

    /// The figure's name in cell ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Baseline => "baseline",
            Figure::Rollout => "rollout",
            Figure::Ladder => "ladder",
        }
    }
}

/// The evaluator every campaign figure runs through.
pub type CampaignEval<'a> = dyn CellEval<Worker = SweepWorker<'a>> + 'a;

/// One group of campaign cells: a figure on one graph at one seed, one
/// cell per security model.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellSpec {
    /// The figure.
    pub figure: Figure,
    /// Graph size: the synthetic generator's, or the snapshot's.
    pub asns: usize,
    /// Graph and sampler seed.
    pub seed: u64,
    /// One cell per model.
    pub models: Vec<SecurityModel>,
    /// Deployment steps of the rollout after `∅`.
    pub rollout_steps: usize,
    /// Pair budget.
    pub budget: u64,
    /// Confidence-interval half-width target (`None`: run to the budget).
    pub ci_target: Option<f64>,
    /// A parsed CAIDA snapshot in place of the synthetic graph.
    pub snapshot: Option<PathBuf>,
    /// The snapshot's content providers, by real ASN.
    pub cps: Vec<u32>,
}

/// An error at `end` (an object's closing brace) naming the first of the
/// space-separated `keys` that `seen` lacks.
fn require(seen: &[String], keys: &str, end: usize) -> Result<(), JsonError> {
    match keys
        .split_whitespace()
        .find(|k| !seen.iter().any(|s| s == k))
    {
        Some(k) => Err(JsonError::new(end, format!("missing \"{k}\""))),
        None => Ok(()),
    }
}

/// A count read from JSON as a size.
fn size(v: u64) -> Result<usize, String> {
    usize::try_from(v).map_err(|_| format!("{v} does not fit a usize"))
}

/// `s` as a JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// Items as a JSON list, one per line under a cell (eight-space indent).
fn lines(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("        {i}")).collect();
    match items.is_empty() {
        true => "[\n      ]".into(),
        false => format!("[\n{}\n      ]", items.join(",\n")),
    }
}

impl CellSpec {
    /// Statistics tracked per pair: `"steps"` in the cell JSON.
    pub fn steps(&self) -> usize {
        match self.figure {
            Figure::Baseline => 1,
            Figure::Rollout => self.rollout_steps + 1, // ∅ first
            Figure::Ladder => AttackStrategy::LADDER.len() + 1, // rungs + optimal
        }
    }

    /// The snapshot's label in cell ids and in the cells' `"graph"` field:
    /// its file stem (the parsed Internet's name) with every character but
    /// ASCII letters and digits turned into `-`, so ids stay safe file
    /// names. `None` for a synthetic graph.
    pub fn label(&self) -> Option<String> {
        let path = self.snapshot.as_ref()?;
        let stem = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        Some(
            stem.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect(),
        )
    }

    /// The checkpoint file name of `model`'s cell. Snapshot cells prefix
    /// the size with the snapshot's [`label`](CellSpec::label), so they
    /// never collide with their synthetic twin's.
    pub fn cell_id(&self, model: SecurityModel) -> String {
        let size = match self.label() {
            Some(g) => format!("{g}-{}", self.asns),
            None => self.asns.to_string(),
        };
        let (figure, seed) = (self.figure.name(), self.seed);
        format!("{figure}_{size}_{seed}_{}", model_token(model))
    }

    /// The graph: the snapshot, or the synthetic Internet of `asns` ASes.
    pub fn internet(&self) -> Result<Internet, TopologyError> {
        match &self.snapshot {
            Some(path) => Internet::from_file(path, &self.cps),
            None => Ok(Internet::synthetic(self.asns, self.seed)),
        }
    }

    /// The estimator's budget, CI target and sampler seed.
    pub fn estimator(&self) -> EstimatorConfig {
        let est = EstimatorConfig::with_budget(self.budget, self.seed);
        match self.ci_target {
            Some(t) => est.with_ci(t),
            None => est,
        }
    }

    /// Build the group's pair universe, deployments and evaluator on
    /// `net` (the graph of [`internet`](CellSpec::internet)) and hand the
    /// universe and evaluator to `run`. The baseline draws attackers from
    /// every AS, the rollout and the ladder from the non-stubs; every
    /// figure draws destinations from every AS. Cell `c` of the evaluator
    /// is model `c`'s, and the models collapse onto shared computations
    /// wherever they agree, so each cell's estimates do not depend on
    /// which models share its group.
    pub fn with_eval<R>(
        &self,
        net: &Internet,
        run: impl FnOnce(&PairUniverse, &CampaignEval<'_>) -> R,
    ) -> R {
        let all: Vec<AsId> = net.graph.ases().collect();
        let universe = match self.figure {
            Figure::Baseline => PairUniverse::new(net, &all, &all),
            Figure::Rollout | Figure::Ladder => {
                PairUniverse::new(net, &net.tiers.non_stubs(), &all)
            }
        };
        let policies: Vec<Policy> = self.models.iter().map(|&m| Policy::new(m)).collect();
        let mut deps = vec![Deployment::empty(net.len())];
        if self.figure == Figure::Rollout {
            deps.extend(sweep_rollout_steps(net, self.rollout_steps));
        }
        match self.figure {
            Figure::Ladder => run(
                &universe,
                &LadderCellsEval::new(net, &deps[0], &policies, &AttackStrategy::LADDER),
            ),
            _ => run(
                &universe,
                &SweepCellsEval::new(net, &deps, &policies, AttackStrategy::FakeLink),
            ),
        }
    }

    /// The spec as one line of JSON, its `steps` the rollout's
    /// (`rollout_steps`). Comparing two payloads compares the groups: the
    /// supervisor re-inits its workers only when the payload changes.
    pub fn to_json(&self) -> String {
        let models: Vec<String> = self
            .models
            .iter()
            .map(|&m| quoted(model_token(m)))
            .collect();
        let mut s = format!(
            "{{\"figure\":\"{}\",\"asns\":{},\"seed\":{},\"models\":[{}],\"steps\":{},\"budget\":{}",
            self.figure.name(),
            self.asns,
            self.seed,
            models.join(","),
            self.rollout_steps,
            self.budget
        );
        if let Some(t) = self.ci_target {
            let _ = write!(s, ",\"ci_target\":{t}");
        }
        if let Some(path) = &self.snapshot {
            s.push_str(",\"snapshot\":");
            json::write_str(&mut s, &path.display().to_string());
            let cps: Vec<String> = self.cps.iter().map(u32::to_string).collect();
            let _ = write!(s, ",\"cps\":[{}]", cps.join(","));
        }
        s.push('}');
        s
    }

    /// Read a spec written by [`to_json`](CellSpec::to_json). `figure`,
    /// `asns`, `seed`, `models` and `steps` are required; a worker needs
    /// no budget, so an absent `budget` reads as 0 and an absent
    /// `ci_target` as none. A synthetic size below the generator's floor
    /// is an error at the size.
    pub fn read(text: &str) -> Result<CellSpec, JsonError> {
        let (mut s, mut seen, mut asns_at) = (CellSpec::default(), Vec::new(), 0);
        let end = Reader::parse(text, |r| {
            r.object(|key, r| {
                match key {
                    "figure" => s.figure = r.read_as(Reader::str, |f| Figure::parse(&f))?,
                    "asns" => {
                        asns_at = r.at();
                        s.asns = r.read_as(Reader::u64, size)?;
                    }
                    "seed" => s.seed = r.u64()?,
                    "models" => r.list(|r| {
                        s.models.push(r.read_as(Reader::str, |m| parse_model(&m))?);
                        Ok(())
                    })?,
                    "steps" => s.rollout_steps = r.read_as(Reader::u64, size)?,
                    "budget" => s.budget = r.u64()?,
                    "ci_target" if r.null() => s.ci_target = None,
                    "ci_target" => s.ci_target = Some(r.f64()?),
                    "snapshot" => s.snapshot = Some(PathBuf::from(&*r.str()?)),
                    "cps" => r.list(|r| {
                        let cp = r.read_as(Reader::u64, |v| {
                            u32::try_from(v).map_err(|_| format!("cp {v} above u32::MAX"))
                        })?;
                        s.cps.push(cp);
                        Ok(())
                    })?,
                    _ => _ = r.skip()?,
                }
                seen.push(key.to_string());
                Ok(())
            })
        })?;
        require(&seen, "figure asns seed models steps", end)?;
        if s.snapshot.is_none() {
            crate::check_asns("asns", s.asns).map_err(|what| JsonError::new(asns_at, what))?;
        }
        Ok(s)
    }

    /// Render `model`'s cell of a finished `run` that took `wall_ms` of
    /// wall-clock (four-space indent, the shape it takes under `cells`).
    /// It embeds its own content checksum (the `"checksum"` line elides
    /// itself from the hash), so resume and `--validate` can detect any
    /// corruption of the other bytes. Only snapshot cells carry `"graph"`,
    /// and only degraded ones the loss counts.
    pub fn write_cell(&self, model: SecurityModel, run: &AdaptiveRun, wall_ms: f64) -> String {
        let pairs = run.sampled.len() as u64;
        let mut fields = vec![
            ("figure", quoted(self.figure.name())),
            ("asns", self.asns.to_string()),
        ];
        fields.extend(self.label().map(|g| ("graph", quoted(&g))));
        fields.extend([
            ("seed", self.seed.to_string()),
            ("model", quoted(model_token(model))),
            ("steps", self.steps().to_string()),
            ("budget", self.budget.to_string()),
            (
                "ci_target",
                self.ci_target.map_or("null".into(), |t| t.to_string()),
            ),
            ("population", run.population.to_string()),
            ("strata", run.strata.to_string()),
            ("pairs", pairs.to_string()),
        ]);
        if run.lost_groups > 0 || run.lost_pairs > 0 {
            // The estimates cover only the surviving sample; resume never
            // trusts a degraded cell, so a rerun repairs it.
            fields.extend([
                ("degraded", "true".into()),
                ("lost_groups", run.lost_groups.to_string()),
                ("lost_pairs", run.lost_pairs.to_string()),
            ]);
        }
        let rounds = run.rounds.iter().map(|r| {
            format!(
                "{{\"pairs\": {}, \"max_halfwidth\": {:.6}}}",
                r.pairs, r.max_halfwidth
            )
        });
        let estimates = run.estimates.iter().enumerate().map(|(k, e)| {
            let (v, h) = (e.value, e.halfwidth);
            format!(
                "{{\"step\": {k}, \"lower\": {:.6}, \"upper\": {:.6}, \"hw_lower\": {:.6}, \"hw_upper\": {:.6}}}",
                v.lower, v.upper, h.lower, h.upper
            )
        });
        fields.extend([
            ("wall_ms", format!("{wall_ms:.3}")),
            (
                "pairs_per_sec",
                format!("{:.3}", pairs as f64 / (wall_ms / 1e3).max(1e-9)),
            ),
            ("max_halfwidth", format!("{:.6}", run.max_halfwidth())),
            ("ci_trajectory", lines(rounds)),
            ("estimates", lines(estimates)),
        ]);
        let head = format!("    {{\n      \"schema\": \"{CELL_SCHEMA}\",\n");
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("      \"{k}\": {v}"))
            .collect();
        let body = format!("{}\n    }}", body.join(",\n"));
        let sum = supervise::checksum_hex(&format!("{head}{body}"));
        format!("{head}      \"checksum\": \"{sum}\",\n{body}")
    }

    /// Why checkpoint `cell` cannot stand for `model`'s cell of this spec,
    /// if it cannot: it names another cell, or it was estimated under
    /// other parameters.
    pub fn mismatch(&self, model: SecurityModel, cell: &Cell) -> Option<&'static str> {
        let named = cell.figure == self.figure.name()
            && cell.asns == self.asns as u64
            && cell.seed == self.seed
            && cell.model == model_token(model)
            && cell.graph == self.label();
        if !named {
            return Some("names a different cell");
        }
        let params = (self.budget, self.ci_target, self.steps() as u64);
        match (cell.budget, cell.ci_target, cell.steps) == params {
            true => None,
            false => Some("has different estimation parameters"),
        }
    }
}

/// One campaign cell. A key the text lacks reads as its default;
/// [`Cell::require`] says which keys must be present.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// Figure name.
    pub figure: String,
    /// Snapshot label (`None`: a synthetic graph).
    pub graph: Option<String>,
    /// Security-model token.
    pub model: String,
    /// Graph size.
    pub asns: u64,
    /// Graph and sampler seed.
    pub seed: u64,
    /// Statistics tracked per pair.
    pub steps: u64,
    /// Pair budget.
    pub budget: u64,
    /// Size of the pair universe.
    pub population: u64,
    /// Pairs sampled.
    pub pairs: u64,
    /// Confidence-interval target (`null`: none).
    pub ci_target: Option<f64>,
    /// Some destination groups were lost to worker strikes.
    pub degraded: bool,
    /// Wall-clock share of the cell.
    pub wall_ms: f64,
    /// Per-step `[lower, upper, hw_lower, hw_upper]` estimates.
    pub estimates: Vec<[f64; 4]>,
    /// Offset of the cell's opening brace in the text it was read from.
    pub start: usize,
    /// Offset of the cell's closing brace in the text it was read from.
    pub end: usize,
    keys: Vec<String>,
}

/// Read an object of numbers, each of `keys` required (other keys are
/// skipped); the values come back in `keys` order.
fn numbers<const N: usize>(r: &mut Reader<'_>, keys: [&str; N]) -> Result<[f64; N], JsonError> {
    let (mut out, mut seen) = ([0.0; N], Vec::new());
    let end = r.object(|key, r| match keys.iter().position(|k| *k == key) {
        Some(i) => {
            out[i] = r.f64()?;
            seen.push(key.to_string());
            Ok(())
        }
        None => r.skip().map(drop),
    })?;
    require(&seen, &keys.join(" "), end)?;
    Ok(out)
}

/// Read a string that must equal `want`.
fn schema(r: &mut Reader<'_>, want: &str) -> Result<(), JsonError> {
    let at = r.at();
    match r.str()? {
        s if s == want => Ok(()),
        s => Err(JsonError::new(at, format!("schema {s:?} is not {want:?}"))),
    }
}

impl Cell {
    /// Read one cell object; every key it knows is type-checked, and other
    /// keys are skipped.
    pub fn read(r: &mut Reader<'_>) -> Result<Cell, JsonError> {
        let mut c = Cell {
            start: r.at(),
            ..Cell::default()
        };
        let end = r.object(|key, r| {
            match key {
                "schema" => schema(r, CELL_SCHEMA)?,
                "figure" => c.figure = r.str()?.into_owned(),
                "graph" => c.graph = Some(r.str()?.into_owned()),
                "model" => c.model = r.str()?.into_owned(),
                "asns" => c.asns = r.u64()?,
                "seed" => c.seed = r.u64()?,
                "steps" => c.steps = r.u64()?,
                "budget" => c.budget = r.u64()?,
                "population" => c.population = r.u64()?,
                "pairs" => c.pairs = r.u64()?,
                "ci_target" if r.null() => c.ci_target = None,
                "ci_target" => c.ci_target = Some(r.f64()?),
                "degraded" => c.degraded = r.bool()?,
                "wall_ms" => c.wall_ms = r.f64()?,
                "checksum" => _ = r.str()?,
                "strata" | "lost_groups" | "lost_pairs" => _ = r.u64()?,
                "pairs_per_sec" | "max_halfwidth" => _ = r.f64()?,
                "ci_trajectory" => r.list(|r| numbers(r, ["pairs", "max_halfwidth"]).map(drop))?,
                "estimates" => r.list(|r| {
                    let [_, e @ ..] =
                        numbers(r, ["step", "lower", "upper", "hw_lower", "hw_upper"])?;
                    c.estimates.push(e);
                    Ok(())
                })?,
                _ => _ = r.skip()?,
            }
            c.keys.push(key.to_string());
            Ok(())
        })?;
        c.end = end;
        Ok(c)
    }

    /// Read a checkpoint file: exactly one cell, carrying every key of
    /// [`CELL_KEYS`].
    pub fn parse(text: &str) -> Result<Cell, JsonError> {
        let cell = Reader::parse(text, Cell::read)?;
        cell.require(CELL_KEYS)?;
        Ok(cell)
    }

    /// An error at the cell's closing brace unless it carried every one of
    /// the space-separated `keys`.
    pub fn require(&self, keys: &str) -> Result<(), JsonError> {
        require(&self.keys, keys, self.end)
    }

    /// Audit the cell's embedded checksum against its bytes in `text`, the
    /// text it was read from: from the start of the line holding its
    /// opening brace through its closing brace, the bytes
    /// [`CellSpec::write_cell`] hashed.
    pub fn checksum(&self, text: &str) -> ChecksumStatus {
        let line = text[..self.start].rfind('\n').map_or(0, |i| i + 1);
        supervise::verify_checksum(&text[line..=self.end])
    }
}

/// Read an assembled campaign document: the [`CAMPAIGN_SCHEMA`], every one
/// of the space-separated top-level `keys`, and at least one cell, each
/// carrying every one of `cell_keys`. `grid` and `totals` must be objects.
pub fn read_campaign(text: &str, keys: &str, cell_keys: &str) -> Result<Vec<Cell>, JsonError> {
    let (mut cells, mut seen) = (Vec::new(), Vec::new());
    let end = Reader::parse(text, |r| {
        r.object(|key, r| {
            match key {
                "schema" => schema(r, CAMPAIGN_SCHEMA)?,
                "cells" => r.list(|r| {
                    let cell = Cell::read(r)?;
                    cell.require(cell_keys)?;
                    cells.push(cell);
                    Ok(())
                })?,
                "grid" | "totals" => _ = r.object(|_, r| r.skip().map(drop))?,
                _ => _ = r.skip()?,
            }
            seen.push(key.to_string());
            Ok(())
        })
    })?;
    require(&seen, keys, end)?;
    match cells.is_empty() {
        true => Err(JsonError::new(end, "no cells")),
        false => Ok(cells),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_sim::stats::{Estimate, RoundTrace};

    fn spec(figure: Figure, snapshot: Option<&str>) -> CellSpec {
        CellSpec {
            figure,
            asns: 400,
            seed: 11,
            models: vec![SecurityModel::Security1st, SecurityModel::Security3rd],
            rollout_steps: 3,
            budget: 300,
            ci_target: Some(0.005),
            snapshot: snapshot.map(PathBuf::from),
            cps: match snapshot {
                Some(_) => vec![15169, 8075],
                None => Vec::new(),
            },
        }
    }

    #[test]
    fn cell_specs_round_trip_every_figure_and_snapshot_path() {
        for figure in Figure::ALL {
            for snapshot in [None, Some("C:\\snaps\\\"odd\" name.as-rel"), Some("plain")] {
                for ci_target in [None, Some(0.005), Some(1e-9)] {
                    let s = CellSpec {
                        ci_target,
                        ..spec(figure, snapshot)
                    };
                    assert_eq!(
                        CellSpec::read(&s.to_json()),
                        Ok(s.clone()),
                        "{}",
                        s.to_json()
                    );
                }
            }
        }
        // The payload a worker needs: no budget, no CI target.
        let text = r#"{"figure":"rollout","asns":300,"seed":7,"models":["sec1","sec2"],"steps":5}"#;
        let s = CellSpec::read(text).unwrap();
        assert_eq!(
            (s.figure, s.asns, s.rollout_steps, s.budget),
            (Figure::Rollout, 300, 5, 0)
        );
        let err = CellSpec::read(r#"{"figure":"baseline"}"#).unwrap_err();
        assert_eq!(err.to_string(), "byte 20: missing \"asns\"");
    }

    #[test]
    fn spec_sizes_below_the_generator_floor_are_located_errors() {
        let text = spec(Figure::Baseline, None)
            .to_json()
            .replace(":400,", ":50,");
        let err = CellSpec::read(&text).unwrap_err();
        assert_eq!(err.at, text.find("50").unwrap(), "{err}");
        assert!(err.what.contains("floor"), "{err}");
        // A snapshot fixes its own size, however small.
        let text = spec(Figure::Baseline, Some("tiny.as-rel"))
            .to_json()
            .replace(":400,", ":4,");
        assert_eq!(CellSpec::read(&text).unwrap().asns, 4);
    }

    #[test]
    fn written_cells_read_back_with_every_key() {
        let run = |lost: u64| AdaptiveRun {
            estimates: vec![Estimate::default(); 4],
            rounds: vec![RoundTrace {
                pairs: 128,
                max_halfwidth: 0.25,
            }],
            sampled: Vec::new(),
            population: 159_600,
            strata: 16,
            lost_groups: lost,
            lost_pairs: 3 * lost,
        };
        for (s, lost) in [
            (spec(Figure::Rollout, None), 0),
            (spec(Figure::Ladder, Some("a b.as-rel")), 2),
        ] {
            let model = SecurityModel::Security3rd;
            let text = s.write_cell(model, &run(lost), 12.5);
            // `Cell::parse` requires every key of `CELL_KEYS`.
            let cell = Cell::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(cell.checksum(&text), ChecksumStatus::Valid);
            assert_eq!(s.mismatch(model, &cell), None);
            assert_eq!(cell.graph.as_deref(), s.snapshot.as_ref().map(|_| "a-b"));
            assert_eq!(
                (cell.population, cell.wall_ms, cell.degraded),
                (159_600, 12.5, lost > 0)
            );
            assert_eq!(cell.estimates.len(), 4);
            assert_eq!(
                s.mismatch(SecurityModel::Security1st, &cell),
                Some("names a different cell")
            );
            let rerun = CellSpec {
                budget: 301,
                ..s.clone()
            };
            assert_eq!(
                rerun.mismatch(model, &cell),
                Some("has different estimation parameters")
            );
        }
    }
}
