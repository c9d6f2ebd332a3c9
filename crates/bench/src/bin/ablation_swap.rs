//! Ablation: full `Module_Info` swapping (Algorithm 3) vs the naive
//! boundary-ID-only swap the paper's §3.4 argues against.
//!
//! With the full swap off, ranks never receive authoritative module
//! statistics — their δL estimates are computed on whatever their local
//! view accumulated, which is exactly GossipMap's information model. The
//! expected result: the naive swap converges to a worse MDL and a
//! partition further from the sequential reference.

use infomap_bench::{env_scale, env_seed, Table};
use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::{DistributedConfig, DistributedInfomap};
use infomap_graph::datasets::DatasetId;
use infomap_metrics::quality;

fn main() {
    let scale = env_scale();
    let seed = env_seed();
    let p = 16;
    println!("Ablation: full Module_Info swap vs naive boundary-ID swap (p={p}, scale {scale})\n");
    let mut t = Table::new(&[
        "Dataset",
        "swap",
        "final MDL",
        "vs seq MDL",
        "NMI",
        "F",
        "JI",
    ]);
    for id in [DatasetId::Amazon, DatasetId::Dblp, DatasetId::NdWeb] {
        let profile = id.profile();
        let (g, _) = profile.generate_scaled(scale, seed);
        let seq = Infomap::new(InfomapConfig { seed }).run(&g);
        for full in [true, false] {
            let out = DistributedInfomap::new(DistributedConfig {
                nranks: p,
                seed,
                full_module_swap: full,
                ..Default::default()
            })
            .run(&g);
            let q = quality(&seq.modules, &out.modules);
            t.row(vec![
                profile.name.to_string(),
                if full { "full (Alg. 3)" } else { "naive IDs" }.to_string(),
                format!("{:.4}", out.codelength),
                format!("{:+.1}%", (out.codelength / seq.codelength - 1.0) * 100.0),
                format!("{:.2}", q.nmi),
                format!("{:.2}", q.f_measure),
                format!("{:.2}", q.jaccard),
            ]);
        }
    }
    t.print();
}
