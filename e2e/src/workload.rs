//! The four workloads: what each one generates, and the `dinfomap`
//! command line it times.
//!
//! Every workload runs p = 4 ranks × 1 thread — the smallest world where
//! log-round routing differs from the flat mesh (2 frames against 3),
//! the owner-reduced election has real fan-in and delegates spread over
//! ranks.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use infomap_graph::datasets::DatasetId;
use infomap_graph::generators::{lfr_like, LfrParams};
use infomap_graph::snapshot::write_shards;
use infomap_graph::{io, Graph};

pub const RANKS: usize = 4;
pub const THREADS: usize = 1;
/// `--block-bytes` × `--cache-blocks` = 1 MiB of page cache per rank,
/// smaller than one shard of the hub graph, so the sweep's working set
/// does not fit the program's cache.
pub const BLOCK_BYTES: usize = 65_536;
pub const CACHE_BLOCKS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HubLaunch,
    FlatCluster,
    HubShardsPaged,
    HubCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HubLaunch,
        Workload::FlatCluster,
        Workload::HubShardsPaged,
        Workload::HubCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HubLaunch => "hub_launch",
            Workload::FlatCluster => "flat_cluster",
            Workload::HubShardsPaged => "hub_shards_paged",
            Workload::HubCkpt => "hub_ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`; the README has the long form.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HubLaunch => {
                "UK-2007 stand-in over 4 OS processes on unix sockets: hubs become delegates, so every \
                 round elects, broadcasts and swaps over real frames, and each worker parses the whole edge list"
            }
            Workload::FlatCluster => {
                "LFR graph with no hubs in the in-process thread world: zero delegates, no sockets, no \
                 children; the control where transport, codec and store changes must show no change"
            }
            Workload::HubShardsPaged => {
                "the hub graph as 4 binary shards demand-paged through a 1 MiB cache per rank: isolates \
                 the store path and collective prepare_shard; the working set exceeds the cache"
            }
            Workload::HubCkpt => {
                "hub_launch with --checkpoint-every 1: the write side of the state codec and the \
                 two-generation file commit every round, which every other workload bypasses"
            }
        }
    }

    /// Runs as `dinfomap launch` (worker processes over sockets) rather
    /// than `dinfomap cluster` (one process, rank threads).
    pub fn launches(self) -> bool {
        self != Workload::FlatCluster
    }

    fn reads_shards(self) -> bool {
        self == Workload::HubShardsPaged
    }

    /// A rep whose NMI against the planted communities falls below this
    /// has produced a wrong clustering, whatever its codelength says.
    /// About half of what the seed commit scores on each graph family.
    pub fn nmi_floor(self) -> f64 {
        match self {
            Workload::FlatCluster => 0.5,
            _ => 0.3,
        }
    }
}

/// Graph sizes and how many graphs one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Scale of the UK-2007 stand-in (1.0 = 80 000 vertices).
    pub hub_scale: f64,
    /// Vertices of the flat LFR graph.
    pub flat_n: usize,
    /// Graphs per run. One graph's time depends on how many rounds its
    /// clustering happens to need, so a run reports the mean over this
    /// many graphs drawn from its seed.
    pub graphs: usize,
    /// Scale of the streamed Friendster stand-in behind
    /// `graph.gen_stream_edges_per_s`.
    pub stream_scale: f64,
}

/// The frozen sizes every recorded result uses.
pub const FULL: Sizes = Sizes {
    hub_scale: 0.3,
    flat_n: 30_000,
    graphs: 6,
    stream_scale: 1.5,
};

/// `--quick`: same code paths and checks on tiny graphs.
pub const QUICK: Sizes = Sizes {
    hub_scale: 0.03,
    flat_n: 3_000,
    graphs: 2,
    stream_scale: 0.05,
};

/// Seed of the `index`-th graph of a run: one SplitMix64 step over the
/// pair, so neighbouring run seeds share no graph.
pub fn graph_seed(run_seed: u64, index: usize) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // The CLI parses seeds as u64; keep them short in file names and logs.
    (z ^ (z >> 31)) >> 32
}

/// The workload's graph and its planted communities.
pub fn generate_graph(w: Workload, sizes: &Sizes, seed: u64) -> (Graph, Vec<u32>) {
    match w {
        Workload::FlatCluster => lfr_like(
            // k_max stays under d_high = 4 × mean degree, so the delegate
            // partitioner finds no hub.
            LfrParams {
                n: sizes.flat_n,
                k_min: 4,
                k_max: 24,
                mu: 0.3,
                shuffle_ids: true,
                ..Default::default()
            },
            seed,
        ),
        _ => DatasetId::Uk2007
            .profile()
            .generate_scaled(sizes.hub_scale, seed),
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[derive(Clone, Debug)]
pub struct FileFingerprint {
    /// Path relative to the input directory.
    pub name: String,
    pub bytes: u64,
    pub fnv1a: u64,
}

/// Set-up time by part, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    /// Edge list and truth file.
    pub edgelist_write_s: f64,
    pub shard_write_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.edgelist_write_s + self.shard_write_s
    }
}

/// One generated input set, on disk under `dir`.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub vertices: usize,
    pub edges: usize,
    pub max_degree: usize,
    /// Lines the assignment file must hold. An edge list cannot name an
    /// isolated vertex; shards carry every vertex id.
    pub assigned_vertices: usize,
    /// Planted community per generator vertex id.
    pub truth: Vec<u32>,
    pub files: Vec<FileFingerprint>,
    pub setup: SetupTimes,
}

const EDGES_FILE: &str = "edges.txt";
const TRUTH_FILE: &str = "truth.txt";
const SHARD_DIR: &str = "shards";
/// Rendezvous directory of a launch, relative to the input directory.
/// Relative on purpose: unix socket paths are capped near 100 bytes and
/// the checkout may sit anywhere.
pub const WORLD_DIR: &str = "d";
pub const ASSIGNMENT_FILE: &str = "out.txt";

fn write_truth(truth: &[u32], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (v, c) in truth.iter().enumerate() {
        writeln!(w, "{v} {c}")?;
    }
    w.flush()
}

/// Generate the workload's graph from `seed` and write the files the
/// program will read into `dir` (emptied first), timing each part.
pub fn prepare_inputs(w: Workload, sizes: &Sizes, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let (graph, truth) = generate_graph(w, sizes, seed);
    setup.gen_s = t.elapsed().as_secs_f64();

    let mut names = Vec::new();
    if w.reads_shards() {
        let t = Instant::now();
        write_shards(&graph, RANKS, &dir.join(SHARD_DIR)).map_err(|e| format!("shards: {e}"))?;
        setup.shard_write_s = t.elapsed().as_secs_f64();
        names.extend((0..RANKS).map(|r| format!("{SHARD_DIR}/shard-{r}.snap")));
    } else {
        let t = Instant::now();
        io::write_edge_list_file(&graph, dir.join(EDGES_FILE))
            .map_err(|e| format!("edge list: {e}"))?;
        write_truth(&truth, &dir.join(TRUTH_FILE)).map_err(|e| format!("truth: {e}"))?;
        setup.edgelist_write_s = t.elapsed().as_secs_f64();
        names.extend([EDGES_FILE.to_string(), TRUTH_FILE.to_string()]);
    }

    let mut files = Vec::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).map_err(|e| format!("read back {name}: {e}"))?;
        files.push(FileFingerprint {
            name,
            bytes: bytes.len() as u64,
            fnv1a: fnv1a(&bytes),
        });
    }
    let assigned_vertices = if w.reads_shards() {
        graph.num_vertices()
    } else {
        (0..graph.num_vertices() as u32)
            .filter(|&v| graph.degree(v) > 0)
            .count()
    };
    Ok(Inputs {
        workload: w,
        seed,
        dir: dir.to_path_buf(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        max_degree: graph.max_degree(),
        assigned_vertices,
        truth,
        files,
        setup,
    })
}

/// The arguments of one `dinfomap` run on `inputs`, paths relative to
/// the input directory (the run's working directory). Defaults
/// everywhere else: unix sockets, log-round collectives, compact codec.
pub fn dinfomap_args(inputs: &Inputs) -> Vec<String> {
    let w = inputs.workload;
    let mut args: Vec<String> = Vec::new();
    let mut push = |items: &[&str]| args.extend(items.iter().map(|s| s.to_string()));
    let ranks = RANKS.to_string();
    let threads = THREADS.to_string();
    let seed = inputs.seed.to_string();
    if w.launches() {
        push(&["launch"]);
        if w.reads_shards() {
            push(&["--graph-shard-dir", SHARD_DIR, "--paged"]);
            push(&["--block-bytes", &BLOCK_BYTES.to_string()]);
            push(&["--cache-blocks", &CACHE_BLOCKS.to_string()]);
        } else {
            push(&[EDGES_FILE]);
        }
        push(&["--procs", &ranks, "--dir", WORLD_DIR]);
        if w == Workload::HubCkpt {
            push(&["--checkpoint-every", "1"]);
        }
    } else {
        push(&[
            "cluster",
            EDGES_FILE,
            "--algorithm",
            "dist",
            "--ranks",
            &ranks,
        ]);
    }
    push(&["--threads", &threads, "--seed", &seed]);
    push(&["--output", ASSIGNMENT_FILE]);
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn graph_seeds_differ_by_index_and_by_run_seed() {
        let mut seen = std::collections::BTreeSet::new();
        for run in 0..20 {
            for index in 0..8 {
                assert!(seen.insert(graph_seed(run, index)), "collision");
            }
        }
        assert_eq!(graph_seed(42, 3), graph_seed(42, 3));
    }

    #[test]
    fn same_seed_gives_the_same_input_files() {
        let base = std::env::temp_dir().join(format!("e2e-inputs-{}", std::process::id()));
        for w in Workload::ALL {
            let a = prepare_inputs(w, &QUICK, 7, &base.join("a")).unwrap();
            let b = prepare_inputs(w, &QUICK, 7, &base.join("b")).unwrap();
            let c = prepare_inputs(w, &QUICK, 8, &base.join("c")).unwrap();
            let prints = |i: &Inputs| i.files.iter().map(|f| f.fnv1a).collect::<Vec<_>>();
            assert_eq!(prints(&a), prints(&b), "{}", w.name());
            assert_ne!(prints(&a), prints(&c), "{}", w.name());
            assert!(a.assigned_vertices <= a.vertices && a.assigned_vertices > 0);
        }
        let _ = std::fs::remove_dir_all(base);
    }

    #[test]
    fn command_lines_are_the_documented_ones() {
        let inputs = |w| Inputs {
            workload: w,
            seed: 9,
            dir: PathBuf::new(),
            vertices: 0,
            edges: 0,
            max_degree: 0,
            assigned_vertices: 0,
            truth: Vec::new(),
            files: Vec::new(),
            setup: SetupTimes::default(),
        };
        assert_eq!(
            dinfomap_args(&inputs(Workload::HubLaunch)).join(" "),
            "launch edges.txt --procs 4 --dir d --threads 1 --seed 9 --output out.txt"
        );
        assert_eq!(
            dinfomap_args(&inputs(Workload::FlatCluster)).join(" "),
            "cluster edges.txt --algorithm dist --ranks 4 --threads 1 --seed 9 --output out.txt"
        );
        assert_eq!(
            dinfomap_args(&inputs(Workload::HubShardsPaged)).join(" "),
            "launch --graph-shard-dir shards --paged --block-bytes 65536 --cache-blocks 16 \
             --procs 4 --dir d --threads 1 --seed 9 --output out.txt"
        );
        assert!(dinfomap_args(&inputs(Workload::HubCkpt))
            .join(" ")
            .contains("--dir d --checkpoint-every 1 --threads 1"));
    }
}
