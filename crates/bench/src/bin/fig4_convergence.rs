//! Figure 4 — MDL convergence of the sequential algorithm vs our
//! distributed algorithm on the Amazon, DBLP, ND-Web and YouTube
//! stand-ins.
//!
//! Prints, per dataset, the MDL after every (outer/synchronized) iteration
//! of both algorithms. The claim reproduced: the distributed algorithm
//! converges to an MDL close to the sequential one.

use infomap_bench::{env_scale, env_seed, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let nranks = 8;
    println!("Figure 4: MDL convergence, sequential vs distributed (p={nranks}, scale {scale})\n");

    for id in DatasetId::SMALL {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks,
            seed,
            ..Default::default()
        })
        .run(&g);

        println!(
            "{} (|V|={}, |E|={}):",
            profile.name,
            g.num_vertices(),
            g.num_edges()
        );
        let seq_series: Vec<f64> = seq.trace.iter().map(|t| t.codelength).collect();
        let dist_series = dist.mdl_series();
        let rows = seq_series.len().max(dist_series.len());
        let mut t = Table::new(&["iteration", "sequential MDL", "distributed MDL"]);
        for i in 0..rows {
            t.row(vec![
                i.to_string(),
                seq_series
                    .get(i)
                    .map(|x| format!("{x:.4}"))
                    .unwrap_or_default(),
                dist_series
                    .get(i)
                    .map(|x| format!("{x:.4}"))
                    .unwrap_or_default(),
            ]);
        }
        t.print();
        let gap = (dist.codelength - seq.codelength) / seq.codelength * 100.0;
        println!(
            "  converged: sequential {:.4} bits, distributed {:.4} bits ({:+.2}%)\n",
            seq.codelength, dist.codelength, gap
        );
    }
}
