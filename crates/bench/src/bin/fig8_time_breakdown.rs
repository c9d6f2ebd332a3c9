//! Figure 8 — per-iteration time breakdown of the first clustering stage
//! (Find Best Module / Broadcast Delegates / Swap Boundary Info / Other)
//! across processor counts, on the large stand-ins.
//!
//! Times are modeled from the exact per-rank, per-phase counters under the
//! shared cost model (see `infomap_mpisim::cost`). The claims reproduced:
//! Find Best Module dominates and shrinks with p; Broadcast Delegates is
//! small and shrinks; Swap Boundary Info stays roughly flat; Other shrinks.

use infomap_bench::{env_scale, env_seed, fmt_secs, scaled_model, stage1_phase_breakdown, Table};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let procs = [16usize, 32, 64, 128];
    println!("Figure 8: stage-1 per-iteration time breakdown (modeled, scale {scale})\n");

    for id in DatasetId::LARGE {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        println!(
            "{} (|V|={}, |E|={}):",
            profile.name,
            g.num_vertices(),
            g.num_edges()
        );
        let mut t = Table::new(&[
            "p",
            "Find Best Module",
            "Broadcast Delegates",
            "Swap Boundary Info",
            "Other",
        ]);
        for &p in &procs {
            let out = DistributedInfomap::new(DistributedConfig {
                nranks: p,
                seed,
                ..Default::default()
            })
            .run(&g);
            let model = scaled_model(&profile, &g);
            let parts = stage1_phase_breakdown(&out, &model);
            t.row(vec![
                p.to_string(),
                fmt_secs(parts[0].1),
                fmt_secs(parts[1].1),
                fmt_secs(parts[2].1),
                fmt_secs(parts[3].1),
            ]);
        }
        t.print();
        println!();
    }
}
