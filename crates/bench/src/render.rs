//! Rendering of every figure/table as aligned text.
//!
//! Each `render_*` function runs the corresponding `sbgp-sim` experiment
//! and returns the printable report, so individual binaries and `run_all`
//! share one implementation.

use sbgp_core::{LpVariant, Policy, SecurityModel};
use sbgp_sim::experiments::{
    baseline, churn, estimation, extensions, partitions, per_destination, rollout, root_cause,
    strategic, ExperimentConfig,
};
use sbgp_sim::json::JsonError;
use sbgp_sim::report::{
    delta_pair, pct, pct_bounds, pct_estimate, stacked_bar, sweep_stats_line, Table,
};
use sbgp_sim::scenario::NamedDeployment;
use sbgp_sim::stats::AdaptiveRun;
use sbgp_sim::Internet;

use crate::campaign;

/// One-line summary of an adaptive run (sample size, rounds, final width).
fn run_summary(run: &AdaptiveRun) -> String {
    format!(
        "{} of {} pairs ({} strata, {} round(s)), max CI half-width ±{:.3}pp",
        run.sampled.len(),
        run.population,
        run.strata,
        run.rounds.len(),
        100.0 * run.max_halfwidth()
    )
}

/// §4.2's baseline table.
pub fn render_baseline(net: &Internet, cfg: &ExperimentConfig) -> String {
    let r = baseline::baseline_metric(net, cfg);
    let mut out = String::new();
    out.push_str("H_{V,V}(∅): security from origin authentication alone\n\n");
    let mut t = Table::new(["quantity", "value"]);
    t.row(["pairs evaluated", &r.pairs.to_string()]);
    t.row([
        "H lower bound".to_string(),
        format!("{} ± {:.1}pp", pct(r.metric.lower), 100.0 * r.stderr.lower),
    ]);
    t.row([
        "H upper bound".to_string(),
        format!("{} ± {:.1}pp", pct(r.metric.upper), 100.0 * r.stderr.upper),
    ]);
    out.push_str(&t.render());
    out.push_str("\npaper: ≥ 60% (UCLA graph), ≥ 62% (IXP-augmented graph)\n");
    if let Some(est) = cfg.estimation() {
        let run = estimation::estimated_baseline(net, cfg, &est);
        out.push_str("\nstratified estimate over the full m ≠ d universe (95% CI)\n\n");
        let mut t = Table::new(["quantity", "value"]);
        t.row(["H_{V,V}(∅)".to_string(), pct_estimate(&run.estimates[0])]);
        t.row(["sample".to_string(), run_summary(&run)]);
        out.push_str(&t.render());
    }
    out
}

/// Figure 3 (or Appendix K Figure 24 with `LpVariant::LpK(2)`).
pub fn render_figure3(net: &Internet, cfg: &ExperimentConfig, variant: LpVariant) -> String {
    let f = partitions::figure3(net, cfg, variant);
    let mut out = String::new();
    out.push_str("Average immune/protectable/doomed source fractions, all pairs\n\n");
    let mut t = Table::new([
        "model",
        "immune",
        "protectable",
        "doomed",
        "H(S) ≤",
        "bar █=immune ▒=protectable ·=doomed",
    ]);
    for (model, s) in &f.models {
        t.row([
            model.label().to_string(),
            pct(s.immune),
            pct(s.protectable),
            pct(s.doomed),
            pct(s.upper_bound()),
            stacked_bar(s.immune, s.protectable, s.doomed, 32),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nbaseline H(∅) = {} over {} pairs (the figure's heavy line)\n",
        pct_bounds(f.baseline),
        f.pairs
    ));
    out.push_str("paper: upper bounds ≈ 100% (1st), 89% (2nd), 75% (3rd); baseline ≥ 60%\n");
    out
}

/// Figures 4/5/6 and the §4.7 source-tier table share this layout.
pub fn render_tier_rows(title: &str, rows: &[partitions::TierRow], with_baseline: bool) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\n\n");
    let mut t = Table::new(["tier", "immune", "protectable", "doomed", "H(∅)", "bar"]);
    for r in rows {
        t.row([
            r.tier.label().to_string(),
            pct(r.share.immune),
            pct(r.share.protectable),
            pct(r.share.doomed),
            if with_baseline {
                pct_bounds(r.baseline)
            } else {
                "-".to_string()
            },
            stacked_bar(r.share.immune, r.share.protectable, r.share.doomed, 32),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 4 (sec 3rd) / Figure 5 (sec 2nd) / Appendix K Figure 25.
pub fn render_by_destination_tier(
    net: &Internet,
    cfg: &ExperimentConfig,
    model: SecurityModel,
    variant: LpVariant,
) -> String {
    let rows = partitions::by_destination_tier(net, cfg, Policy::with_variant(model, variant));
    render_tier_rows(
        &format!(
            "Partitions by destination tier; {} / {variant}",
            model.label()
        ),
        &rows,
        true,
    )
}

/// Figure 6: partitions by attacker tier.
pub fn render_by_attacker_tier(
    net: &Internet,
    cfg: &ExperimentConfig,
    model: SecurityModel,
    variant: LpVariant,
) -> String {
    let rows = partitions::by_attacker_tier(net, cfg, Policy::with_variant(model, variant));
    render_tier_rows(
        &format!("Partitions by attacker tier; {} / {variant}", model.label()),
        &rows,
        true,
    )
}

/// §4.7: partitions by source tier.
pub fn render_by_source_tier(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rows = partitions::by_source_tier(net, cfg, Policy::new(SecurityModel::Security3rd));
    render_tier_rows(
        "Partitions by source tier; Sec 3rd (paper: roughly uniform ≈60/15/25)",
        &rows,
        false,
    )
}

/// Figures 7(a)+(b), 8, 11, and the early-adopter table.
pub fn render_rollout(r: &rollout::RolloutResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} — ΔH = H(S) − H(∅) over {}\n\n",
        r.name, r.destinations
    ));
    let mut t = Table::new([
        "step",
        "|S|",
        "ΔH sec1",
        "ΔH sec2",
        "ΔH sec3",
        "simplex sec1",
        "simplex sec3",
        "d∈S sec1",
        "d∈S sec2",
        "d∈S sec3",
    ]);
    for p in &r.points {
        t.row([
            p.label.clone(),
            p.secure_count.to_string(),
            delta_pair(p.delta[0]),
            delta_pair(p.delta[1]),
            delta_pair(p.delta[2]),
            delta_pair(p.delta_simplex[0]),
            delta_pair(p.delta_simplex[2]),
            delta_pair(p.delta_secure_dest[0]),
            delta_pair(p.delta_secure_dest[1]),
            delta_pair(p.delta_secure_dest[2]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n(Δlo/Δhi = movement of the lower/upper tie-break bound; they are\n independent curves, not an interval)\n");
    out
}

/// [`render_rollout`] plus, under `--sweep-stats`, the serving-stats block
/// — the form the figure binaries and `run_all` print.
pub fn render_rollout_report(
    r: &rollout::RolloutResult,
    cfg: &ExperimentConfig,
    universe: usize,
) -> String {
    let mut out = render_rollout(r);
    if cfg.sweep_stats {
        out.push_str(&render_rollout_stats(r, universe));
    }
    out
}

/// The `--sweep-stats` companion to [`render_rollout`]: how this rollout's
/// sweep engines served their steps, per model. Appended only on request
/// so the flag-less golden outputs never move.
pub fn render_rollout_stats(r: &rollout::RolloutResult, universe: usize) -> String {
    let mut out = String::new();
    out.push_str("\nsweep-engine serving stats (--sweep-stats):\n");
    for (model, s) in SecurityModel::ALL.into_iter().zip(&r.stats) {
        out.push_str(&format!(
            "  {}: {}\n",
            model.label(),
            sweep_stats_line(s, universe)
        ));
    }
    out
}

/// Figures 9/10/12: the sorted per-destination improvement curves, printed
/// as deciles plus the paper's summary statistics.
pub fn render_per_destination(r: &per_destination::PerDestinationResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Per-destination ΔH sequences; S = {} ({} secure destinations sampled)\n\n",
        r.label, r.destinations
    ));
    let mut t = Table::new([
        "model", "p0", "p25", "p50", "p75", "p90", "p100", "avg H(S)", "<4% gain",
    ]);
    for s in &r.series {
        t.row([
            s.model.label().to_string(),
            pct(s.percentile_lower(0.0)),
            pct(s.percentile_lower(0.25)),
            pct(s.percentile_lower(0.5)),
            pct(s.percentile_lower(0.75)),
            pct(s.percentile_lower(0.9)),
            pct(s.percentile_lower(1.0)),
            pct_bounds(s.average_metric),
            pct(s.fraction_below(0.04)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper (Fig 9): sec 1st averages 96.8–97.9% absolute H over secure destinations;\n\
         most destinations see <4% gain under sec 2nd and 3rd\n",
    );
    out
}

/// Figure 13: the fate of secure routes to the 17 content providers.
pub fn render_figure13(net: &Internet, cfg: &ExperimentConfig, model: SecurityModel) -> String {
    let bars = root_cause::figure13(net, cfg, model);
    let mut out = String::new();
    out.push_str(&format!(
        "Secure routes to each CP destination during attack ({}; S = T1s + CPs + stubs)\n\n",
        model.label()
    ));
    let mut t = Table::new([
        "CP",
        "secure (normal)",
        "downgraded",
        "kept, already happy",
        "kept, protecting",
    ]);
    for b in &bars {
        t.row([
            format!("AS{}", net.graph.asn_label(b.cp)),
            pct(b.secure_normal),
            pct(b.downgraded),
            pct(b.kept_already_happy),
            pct(b.kept_protecting),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper: most secure routes are lost to downgrades; almost all surviving ones\n\
         belong to sources that were already immune\n",
    );
    out
}

/// Figure 16: root-cause decomposition of the metric change.
pub fn render_figure16(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rcs = root_cause::figure16(net, cfg);
    let mut out = String::new();
    out.push_str("Root causes at the last Tier 1+2 rollout step (fractions of sources)\n\n");
    let mut t = Table::new([
        "model",
        "secure (normal)",
        "downgraded",
        "wasted on happy",
        "protected",
        "collateral+",
        "collateral-",
        "ΔH (lower)",
    ]);
    for r in &rcs {
        t.row([
            r.model.label().to_string(),
            pct(r.secure_normal()),
            pct(r.downgraded()),
            pct(r.wasted()),
            pct(r.protected()),
            pct(r.collateral_benefit()),
            pct(r.collateral_damage()),
            pct(r.analysis.metric_change_lower()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nidentity per model: ΔH = protected + collateral+ − collateral−\n\
         paper: downgrades dominate under sec 2nd/3rd; sec 1st converts secure routes\n\
         into protection and suffers only rare collateral damage\n",
    );
    out
}

/// Table 3: which phenomena occur in which model (validated empirically).
pub fn render_phenomena(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rcs = root_cause::figure16(net, cfg);
    let mut out = String::new();
    out.push_str("Phenomena by security model (Table 3), measured at the last T1+T2 step\n\n");
    let mut t = Table::new(["phenomenon", "Sec 1st", "Sec 2nd", "Sec 3rd"]);
    let mark = |present: bool| if present { "✓" } else { "—" }.to_string();
    t.row([
        "protocol downgrade attacks".to_string(),
        // Theorem 3.1: only via attacker-on-route in sec 1st.
        mark(rcs[0].analysis.downgraded > rcs[0].analysis.downgraded_via_attacker),
        mark(rcs[1].analysis.downgraded > 0),
        mark(rcs[2].analysis.downgraded > 0),
    ]);
    t.row([
        "collateral benefits".to_string(),
        mark(rcs[0].analysis.collateral_benefit > 0),
        mark(rcs[1].analysis.collateral_benefit > 0),
        mark(rcs[2].analysis.collateral_benefit > 0),
    ]);
    t.row([
        "collateral damages".to_string(),
        mark(rcs[0].analysis.collateral_damage > 0),
        mark(rcs[1].analysis.collateral_damage > 0),
        mark(rcs[2].analysis.collateral_damage > 0),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\npaper's Table 3: downgrades in {2nd,3rd}; benefits in all; damages in {1st,2nd}\n",
    );
    out
}

/// The §2.3 / Figure 1 wedgie exhibit, driven by the protocol simulator.
pub fn render_wedgie() -> String {
    use sbgp_proto::wedgie;
    let mut out = String::new();
    out.push_str("BGP wedgie (Figure 1): mixed SecP priorities + link flap\n\n");
    for model in [SecurityModel::Security2nd, SecurityModel::Security3rd] {
        let (intended, after) = wedgie::run_wedgie_experiment(model);
        out.push_str(&format!(
            "A ranks security 1st, others rank {}: wedged = {}\n",
            model.label(),
            intended != after
        ));
    }
    // Consistent priorities recover (Theorem 2.1).
    let (graph, ids) = wedgie::wedgie_graph();
    let dep = wedgie::wedgie_deployment(&ids);
    let mut sim = sbgp_proto::Simulator::new(
        &graph,
        &dep,
        Policy::new(SecurityModel::Security1st),
        sbgp_core::AttackScenario::normal(ids.d),
    );
    sim.run(sbgp_proto::Schedule::Fifo, 100_000);
    let before = sim.next_hop_snapshot();
    sim.fail_link(ids.p, ids.d);
    sim.run(sbgp_proto::Schedule::Fifo, 100_000);
    sim.restore_link(ids.p, ids.d);
    sim.run(sbgp_proto::Schedule::Fifo, 100_000);
    out.push_str(&format!(
        "everyone ranks security 1st:            wedged = {}\n",
        before != sim.next_hop_snapshot()
    ));
    out.push_str(
        "\npaper: inconsistent SecP placement admits two stable states and the\n\
                  system sticks in the unintended one after the link recovers\n",
    );

    // The same hysteresis without any link failure: S*BGP participation
    // wanes and waxes (adoption churn) instead of the p–d link flapping.
    let churn = churn::wedgie_churn();
    out.push_str("\nadoption churn (no link ever fails: A leaves S, then rejoins):\n");
    for row in &churn.rows {
        out.push_str(&format!(
            "A ranks security 1st, others rank {}: wedged = {}, A stuck insecure = {}\n",
            row.b_model.label(),
            row.wedged,
            row.a_stuck_insecure
        ));
    }
    out.push_str(&format!(
        "engine (uniform sec 1st, retraction path): returns to intended = {}, \
         retracting steps = {}\n",
        churn.engine_recovers, churn.engine_stats.retracting_steps
    ));
    out.push_str(
        "\ncoverage waning and waxing is enough to wedge mixed priorities; the\n\
         engine's unique stable state (Theorem 2.1) has nothing to stick in\n",
    );
    out
}

/// The non-monotone dynamics exhibit: the wax-and-wane RPKI churn
/// trajectory with its sweep-engine serving stats, and the Figure 2
/// protocol downgrade per model.
pub fn render_churn(net: &Internet, cfg: &ExperimentConfig) -> String {
    let r = churn::rpki_churn(net, cfg);
    let mut out = String::new();
    out.push_str(
        "RPKI churn: the Tier-2 rollout ladder waxes to its peak and wanes back\n\
         (expiring ROAs, disabled validators); H_{M,D}(S_k) per step\n\n",
    );
    let mut t = Table::new(["step", "|S|", "H sec1", "H sec2", "H sec3"]);
    for p in &r.points {
        t.row([
            p.label.clone(),
            p.secure_count.to_string(),
            pct_bounds(p.metric[0]),
            pct_bounds(p.metric[1]),
            pct_bounds(p.metric[2]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(the wane half retraces the wax half, so each step's metric equals its\n\
         mirror's — rewound from the entries the wax saved, not recomputed)\n",
    );
    out.push_str("\nsweep-engine serving stats:\n");
    for (model, s) in SecurityModel::ALL.into_iter().zip(&r.stats) {
        out.push_str(&format!(
            "  {}: {}\n",
            model.label(),
            sweep_stats_line(s, r.universe)
        ));
    }

    out.push_str("\nFigure 2 protocol downgrade (6-AS gadget, engine-checked):\n\n");
    let mut t = Table::new([
        "model",
        "secure (normal)",
        "secure (attacked)",
        "downgraded",
        "routes to attacker",
    ]);
    for row in churn::downgrade_attack() {
        let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
        t.row([
            row.model.label().to_string(),
            mark(row.normal_secure),
            mark(row.attacked_secure),
            mark(row.downgraded),
            mark(row.victim_unhappy),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper (Theorem 3.1): security 1st never downgrades; security 2nd/3rd\n\
         abandon the secure 1-hop route for a bogus 4-hop peer route\n",
    );
    out
}

/// §5.3.1 early-adopter table.
pub fn render_early_adopters(net: &Internet, cfg: &ExperimentConfig) -> String {
    let r = rollout::early_adopters(net, cfg);
    let mut out = String::new();
    out.push_str("Early-adopter choices (§5.3.1): avg ΔH over secure destinations d ∈ S\n\n");
    let mut t = Table::new(["scenario", "|S|", "sec1", "sec2", "sec3"]);
    for p in &r.points {
        t.row([
            p.label.clone(),
            p.secure_count.to_string(),
            delta_pair(p.delta_secure_dest[0]),
            delta_pair(p.delta_secure_dest[1]),
            delta_pair(p.delta_secure_dest[2]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper: T1s+stubs yield <0.2% under sec 2nd/3rd; the 13 largest T2s+stubs ≈1%\n\
         ⇒ Tier 2 ISPs make better early adopters than Tier 1s\n",
    );
    out
}

/// Figure 12 companion: §5.2.4's non-stub deployment summary.
pub fn render_non_stubs(net: &Internet, cfg: &ExperimentConfig) -> String {
    let r = rollout::non_stub_scenario(net, cfg);
    let mut out = render_rollout(&r);
    if cfg.sweep_stats {
        out.push_str(&render_rollout_stats(&r, net.len()));
    }
    out.push_str(
        "\npaper: 6.2% / 4.7% / 2.2% worst-case improvements for sec 1st/2nd/3rd; the\n\
         sec-2nd gains nearly reach sec 1st when Tier 1 destinations are not the focus\n",
    );
    out
}

/// The RPKI-value security ladder (library extension; §4.2 context).
pub fn render_rpki_value(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rows = extensions::rpki_value(net, cfg);
    let mut out = String::new();
    out.push_str("How much does each defense layer buy? (happy-fraction bounds)\n\n");
    let mut t = Table::new(["defense level", "H"]);
    for r in &rows {
        t.row([r.label.clone(), pct_bounds(r.metric)]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\ncontext: the paper assumes RPKI is already deployed and asks what S*BGP\n         adds on top; this ladder shows the whole stack on one metric\n",
    );
    out
}

/// §8 hysteresis A/B (library extension).
pub fn render_hysteresis(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rows = extensions::hysteresis(net, cfg);
    let mut out = String::new();
    out.push_str(
        "§8 mitigation: keep a secure route while it remains available\n(message-level simulation: converge, then launch the attack)\n\n",
    );
    let mut t = Table::new([
        "model",
        "attacks",
        "happy",
        "happy+hyst",
        "secure",
        "secure+hyst",
    ]);
    for r in &rows {
        let f = |x: usize, c: &sbgp_proto::SourceCensus| x as f64 / c.sources.max(1) as f64;
        t.row([
            r.model.label().to_string(),
            r.attacks.to_string(),
            pct(f(r.plain.happy, &r.plain)),
            pct(f(r.with_hysteresis.happy, &r.with_hysteresis)),
            pct(f(r.plain.secure, &r.plain)),
            pct(f(r.with_hysteresis.secure, &r.with_hysteresis)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nhysteresis converts would-be protocol downgrades into kept secure routes\n");
    out
}

/// §8 islands of security (library extension).
pub fn render_islands(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rows = extensions::islands(net, cfg, SecurityModel::Security3rd);
    let mut out = String::new();
    out.push_str(
        "§8 mitigation: the secure core agrees to rank security 1st (\"island\"),\nwhile the rest of the world stays at security 3rd\n\n",
    );
    let mut t = Table::new(["priority assignment", "happy", "secure"]);
    for r in &rows {
        let n = r.census.sources.max(1) as f64;
        t.row([
            r.label.clone(),
            pct(r.census.happy as f64 / n),
            pct(r.census.secure as f64 / n),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nthe island recovers part of the uniform-sec-1st benefit without asking\ninsecure ASes to change anything\n");
    out
}

/// The strategic-attacker tables (library extension): per-pair optimal
/// forged-path ladders, and the colluding-pair comparison.
pub fn render_strategy_ladder(net: &Internet, cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    out.push_str(
        "Strategic attackers (Goldberg et al. taxonomy): per-(m, d) optimal forged-path\n\
         choice over the k-hop ladder, and colluding announcer pairs\n\n",
    );
    for exp in strategic::ladder(net, cfg) {
        out.push_str(&format!("deployment: {}\n\n", exp.deployment_label));
        let mut t = Table::new([
            "model",
            "k=0 (hijack)",
            "k=1 (fake link)",
            "k=2",
            "k=3",
            "optimal",
            "wins k0/k1/k2/k3",
        ]);
        for (model, r) in &exp.rows {
            t.row([
                model.label().to_string(),
                pct_bounds(r.per_rung[0]),
                pct_bounds(r.per_rung[1]),
                pct_bounds(r.per_rung[2]),
                pct_bounds(r.per_rung[3]),
                pct_bounds(r.optimal),
                format!("{}/{}/{}/{}", r.wins[0], r.wins[1], r.wins[2], r.wins[3]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "(k=0 is blocked by RPKI in the paper's setting; among RPKI-proof rungs the\n\
         shortest forged path maximizes damage, so \"optimal\" tracks k=1 — the paper's\n\
         fixed strategy is the strategic attacker's choice once k=0 is off the table)\n\n",
    );

    let c = strategic::collusion(net, cfg);
    out.push_str(&format!(
        "colluding pairs: {} attacker pairs, deployment: {}\n\n",
        c.sets, c.deployment_label
    ));
    let mut t = Table::new(["model", "solo avg", "best single", "colluding pair"]);
    for (model, r) in &c.rows {
        t.row([
            model.label().to_string(),
            pct_bounds(r.solo),
            pct_bounds(r.best_single),
            pct_bounds(r.colluding),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(collusion dividend = best single − colluding pair; sources exclude every\n\
         announcer, per the set-aware counting rule)\n",
    );
    if let Some(est) = cfg.estimation() {
        let l = estimation::estimated_ladder(net, cfg, &est);
        out.push_str(
            "\nstratified ladder estimate, sec 2nd at S = ∅, full M' × V universe (95% CI)\n\n",
        );
        let mut t = Table::new(["rung", "H estimate"]);
        for (strategy, e) in l.rungs.iter().zip(&l.per_rung) {
            t.row([strategy.to_string(), pct_estimate(e)]);
        }
        t.row(["optimal (per pair)".to_string(), pct_estimate(&l.optimal)]);
        out.push_str(&t.render());
        out.push_str(&format!("\nsample: {}\n", run_summary(&l.run)));
    }
    out
}

/// The `--ci`/`--pairs` companion to [`render_rollout`]: `H(S_k)` itself
/// (not the baseline delta) per step and model, each with its confidence
/// interval from the stratified estimator over the full `M' × V` universe.
pub fn render_estimated_rollout(
    net: &Internet,
    cfg: &ExperimentConfig,
    name: &str,
    steps: &[NamedDeployment],
) -> String {
    let Some(est) = cfg.estimation() else {
        return String::new();
    };
    let r = estimation::estimated_rollout(net, cfg, &est, name, steps);
    let mut out = String::new();
    out.push_str(&format!(
        "{} — stratified H(S) estimates over the full M' × V universe (95% CI)\n\n",
        r.name
    ));
    let mut t = Table::new(["step", "H sec1", "H sec2", "H sec3"]);
    for (k, label) in r.step_labels.iter().enumerate() {
        let cells: Vec<String> = r
            .models
            .iter()
            .map(|(_, run)| pct_estimate(&run.estimates[k]))
            .collect();
        t.row([
            label.clone(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    out.push_str(&t.render());
    for (model, run) in &r.models {
        out.push_str(&format!("\n{}: {}", model.label(), run_summary(run)));
    }
    out.push('\n');
    out
}

/// §4.5 traffic-weighted baseline (library extension).
pub fn render_weighted(net: &Internet, cfg: &ExperimentConfig) -> String {
    let rows = extensions::weighted_baseline(net, cfg);
    let mut out = String::new();
    out.push_str("Baseline H(∅) under source-traffic weighting (§4.5 caveat)\n\n");
    let mut t = Table::new(["weighting", "H(∅)"]);
    for (label, b) in &rows {
        t.row([label.clone(), pct_bounds(*b)]);
    }
    out.push_str(&t.render());
    out
}

/// Quote the CI-annotated estimates out of a committed campaign JSON
/// (`BENCH_campaign.json`) so `run_all` can print the release-grid
/// numbers **without re-deriving them**. The text must carry the
/// `campaign-v1` schema and at least one cell, each with the quoted keys
/// and at least one estimate; anything else is an error naming its byte.
pub fn render_campaign_quotes(json: &str) -> Result<String, JsonError> {
    let keys = "figure asns seed model population pairs estimates";
    let cells = campaign::read_campaign(json, "schema cells", keys)?;
    let estimate = |&[lower, upper, hw_lower, hw_upper]: &[f64; 4]| {
        let bounds = pct_bounds(sbgp_core::Bounds { lower, upper });
        format!("{bounds} ±{:.2}pp", 100.0 * hw_lower.max(hw_upper))
    };
    let mut out = String::new();
    out.push_str(
        "Release-grid stratified estimates, quoted verbatim from the committed\n\
         campaign JSON (95% CI; no re-derivation):\n\n",
    );
    let mut t = Table::new([
        "figure",
        "asns",
        "seed",
        "model",
        "pairs",
        "of",
        "H first step",
        "H last step",
    ]);
    for c in &cells {
        let (Some(first), Some(last)) = (c.estimates.first(), c.estimates.last()) else {
            return Err(JsonError::new(c.end, "cell has no estimates"));
        };
        t.row([
            c.figure.clone(),
            c.asns.to_string(),
            c.seed.to_string(),
            c.model.clone(),
            c.pairs.to_string(),
            c.population.to_string(),
            estimate(first),
            if c.estimates.len() > 1 {
                estimate(last)
            } else {
                "—".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n(regenerate with `cargo run --release -p sbgp_bench --bin campaign`)\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::render_campaign_quotes;

    /// Regression: quoted values carrying commas (PR 7 grid keys like
    /// `"cps": "15169,20940,8075"` and suffixed figure ids) used to be
    /// truncated at the first `,` by the field scanner.
    #[test]
    fn campaign_quotes_keep_commas_inside_quoted_values() {
        let json = r#"{
  "schema": "campaign-v1",
  "cells": [
    {
      "schema": "campaign-cell-v1",
      "figure": "rollout,cps=15169,20940,8075",
      "asns": 4000,
      "seed": 42,
      "model": "sec3",
      "population": 15996000,
      "pairs": 2000,
      "estimates": [
        {"step": 0, "lower": 0.620991, "upper": 0.786886, "hw_lower": 0.005558, "hw_upper": 0.005134},
        {"step": 1, "lower": 0.651200, "upper": 0.801100, "hw_lower": 0.004901, "hw_upper": 0.004700}
      ]
    }
  ]
}"#;
        let out = render_campaign_quotes(json).expect("schema + one cell present");
        assert!(
            out.contains("rollout,cps=15169,20940,8075"),
            "figure label truncated:\n{out}"
        );
        // Unquoted numeric fields still parse (both estimate rows made it).
        assert!(out.contains("2000"), "{out}");
        assert!(out.contains("±0.56pp"), "{out}");
        assert!(out.contains("±0.49pp"), "{out}");
    }

    #[test]
    fn campaign_quotes_require_schema_and_cells() {
        assert!(render_campaign_quotes("{}").is_err());
        assert!(render_campaign_quotes("{\"schema\": \"campaign-v1\"}").is_err());
    }
}
