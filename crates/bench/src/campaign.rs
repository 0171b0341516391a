//! The campaign runner's JSON, read back through [`sbgp_sim::json`]: one
//! cell (a checkpoint file, or an entry of an assembled
//! `BENCH_campaign.json`) and the assembled document. The `campaign`
//! binary resumes and validates with these readers, and `run_all` quotes
//! the committed estimates through them.

use sbgp_sim::json::{JsonError, Reader};

/// Cell schema marker; bump on any layout change.
pub const CELL_SCHEMA: &str = "campaign-cell-v1";
/// Assembled-document schema marker.
pub const CAMPAIGN_SCHEMA: &str = "campaign-v1";
/// The keys every cell the `campaign` binary writes carries.
pub const CELL_KEYS: &str = "schema figure asns seed model steps budget ci_target population \
                             strata pairs wall_ms pairs_per_sec max_halfwidth ci_trajectory estimates";

/// One campaign cell. A key the text lacks reads as its default;
/// [`Cell::require`] says which keys must be present.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// Figure name.
    pub figure: String,
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
    /// Offset of the cell's closing brace in the text it was read from.
    pub end: usize,
    keys: Vec<String>,
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
        let mut c = Cell::default();
        let end = r.object(|key, r| {
            match key {
                "schema" => schema(r, CELL_SCHEMA)?,
                "figure" => c.figure = r.str()?.into_owned(),
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
                "checksum" | "graph" => _ = r.str()?,
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
