//! Regenerate the paper's entire evaluation in one run.
//!
//! Prints every figure/table in order on stdout; with `--asns`/sampling
//! flags the fidelity–runtime trade-off is yours (the paper's scale is
//! `--asns 4000`, plus the `--ixp` and LP2 variants where noted).

use std::time::Instant;

use sbgp_bench::{render, Cli};
use sbgp_core::{LpVariant, SecurityModel};
use sbgp_sim::experiments::{per_destination, rollout};

fn main() {
    let cli = Cli::parse();
    let net = cli.internet();
    cli.banner("Full evaluation — all figures and tables", &net);
    let t0 = Instant::now();

    let section = |name: &str, body: String| {
        println!("\n######## {name} ########\n");
        println!("{body}");
        println!("[{name} done at {:.1?}]", t0.elapsed());
    };

    section("§4.2 baseline", render::render_baseline(&net, &cli.config));
    // When the committed release-grid campaign JSON is present, quote its
    // CI-annotated estimates verbatim instead of re-deriving them here
    // (the full-universe numbers cost hours; the quotes are free).
    if let Ok(text) = std::fs::read_to_string("BENCH_campaign.json") {
        match render::render_campaign_quotes(&text) {
            Ok(body) => section("Campaign estimates (quoted from BENCH_campaign.json)", body),
            Err(e) => eprintln!("warning: BENCH_campaign.json: {e}; campaign quotes skipped"),
        }
    }
    section(
        "Figure 3",
        render::render_figure3(&net, &cli.config, cli.variant),
    );
    section(
        "Figure 4",
        render::render_by_destination_tier(
            &net,
            &cli.config,
            SecurityModel::Security3rd,
            cli.variant,
        ),
    );
    section(
        "Figure 5",
        render::render_by_destination_tier(
            &net,
            &cli.config,
            SecurityModel::Security2nd,
            cli.variant,
        ),
    );
    section(
        "Figure 6",
        render::render_by_attacker_tier(&net, &cli.config, SecurityModel::Security3rd, cli.variant),
    );
    section(
        "§4.7 source tiers",
        render::render_by_source_tier(&net, &cli.config),
    );
    section(
        "Figure 7",
        render::render_rollout_report(&rollout::figure7(&net, &cli.config), &cli.config, net.len()),
    );
    section(
        "Figure 8",
        render::render_rollout_report(&rollout::figure8(&net, &cli.config), &cli.config, net.len()),
    );
    section(
        "Figure 9",
        render::render_per_destination(&per_destination::figure9(&net, &cli.config)),
    );
    section(
        "Figure 10",
        render::render_per_destination(&per_destination::figure10(&net, &cli.config)),
    );
    section(
        "Figure 11",
        render::render_rollout_report(
            &rollout::figure11(&net, &cli.config),
            &cli.config,
            net.len(),
        ),
    );
    section(
        "Figure 12",
        render::render_per_destination(&per_destination::figure12(&net, &cli.config)),
    );
    section(
        "§5.2.4 non-stubs",
        render::render_non_stubs(&net, &cli.config),
    );
    section(
        "Figure 13",
        render::render_figure13(&net, &cli.config, SecurityModel::Security3rd),
    );
    section(
        "§5.3.1 early adopters",
        render::render_early_adopters(&net, &cli.config),
    );
    section("Figure 16", render::render_figure16(&net, &cli.config));
    section("Table 3", render::render_phenomena(&net, &cli.config));
    section("Figure 1 (wedgie)", render::render_wedgie());
    section(
        "Non-monotone dynamics (churn)",
        render::render_churn(&net, &cli.config),
    );
    section(
        "Extension: RPKI value",
        render::render_rpki_value(&net, &cli.config),
    );
    section(
        "Extension: strategy ladder",
        render::render_strategy_ladder(&net, &cli.config),
    );
    section(
        "Extension: weighted metric",
        render::render_weighted(&net, &cli.config),
    );
    section(
        "Figure 24 (LP2)",
        render::render_figure3(&net, &cli.config, LpVariant::LpK(2)),
    );
    section(
        "Figure 25 (LP2)",
        render::render_by_destination_tier(
            &net,
            &cli.config,
            SecurityModel::Security2nd,
            LpVariant::LpK(2),
        ),
    );

    println!("\ntotal: {:.1?}", t0.elapsed());
}
