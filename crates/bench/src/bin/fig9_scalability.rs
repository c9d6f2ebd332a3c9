//! Figure 9 — scalability: modeled total clustering time vs processor
//! count on the large stand-ins, split into the stage-1 (with delegates)
//! and stage-2 (without delegates) clustering times.
//!
//! The claims reproduced: total time is near-inversely proportional to p;
//! stage 1 dominates; datasets that collapse into few clusters in stage 1
//! (Friendster/UK-2007 class) have comparatively shorter stage-2 times
//! (the paper's §5 discussion).

use infomap_bench::{env_scale, env_seed, fmt_secs, scaled_model, stage_split, Table};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let procs = [8usize, 16, 32, 64, 128];
    println!("Figure 9: scalability (modeled time, scale {scale})\n");

    for id in DatasetId::LARGE {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        println!(
            "{} (|V|={}, |E|={}):",
            profile.name,
            g.num_vertices(),
            g.num_edges()
        );
        let mut t = Table::new(&["p", "stage 1", "stage 2", "merge", "total", "speedup vs p0"]);
        let mut t0: Option<(usize, f64)> = None;
        for &p in &procs {
            let out = DistributedInfomap::new(DistributedConfig {
                nranks: p,
                seed,
                ..Default::default()
            })
            .run(&g);
            let model = scaled_model(&profile, &g);
            let (s1, s2, merge) = stage_split(&out, &model);
            let total = s1 + s2 + merge;
            let base = *t0.get_or_insert((p, total));
            t.row(vec![
                p.to_string(),
                fmt_secs(s1),
                fmt_secs(s2),
                fmt_secs(merge),
                fmt_secs(total),
                format!("{:.2}x", base.1 / total),
            ]);
        }
        t.print();
        println!();
    }
}
