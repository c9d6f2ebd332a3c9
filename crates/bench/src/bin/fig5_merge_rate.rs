//! Figure 5 — vertex merging rate per outer iteration, sequential vs
//! distributed, on the four small stand-ins.
//!
//! The merging rate of iteration k is the number of vertices merged away
//! during that iteration relative to the original vertex count. The claim
//! reproduced: the distributed algorithm shows a convergence pattern
//! similar to the sequential one, with a large first-iteration merge
//! (the paper reports ≈50%+ with delegates), which is why stage 2 can use
//! plain 1D partitioning.

use infomap_bench::{env_scale, env_seed, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let nranks = 8;
    println!("Figure 5: vertex merging rate per outer iteration (p={nranks}, scale {scale})\n");

    for id in DatasetId::SMALL {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        let n0 = g.num_vertices() as f64;
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks,
            seed,
            ..Default::default()
        })
        .run(&g);

        println!("{}:", profile.name);
        let seq_rates: Vec<f64> = seq.trace.iter().map(|t| t.merge_rate).collect();
        let dist_rates: Vec<f64> = dist
            .trace
            .iter()
            .map(|t| (t.vertices_before - t.vertices_after) as f64 / n0)
            .collect();
        let rows = seq_rates.len().max(dist_rates.len());
        let mut t = Table::new(&[
            "iteration",
            "sequential merge rate",
            "distributed merge rate",
        ]);
        for i in 0..rows {
            t.row(vec![
                i.to_string(),
                seq_rates
                    .get(i)
                    .map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_default(),
                dist_rates
                    .get(i)
                    .map(|x| format!("{:.1}%", x * 100.0))
                    .unwrap_or_default(),
            ]);
        }
        t.print();
        if let Some(first) = dist_rates.first() {
            println!(
                "  first distributed iteration merges {:.1}% of the original vertices\n",
                first * 100.0
            );
        }
    }
}
