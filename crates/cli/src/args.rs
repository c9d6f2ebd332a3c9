//! Hand-rolled argument parsing (no external dependencies): a small,
//! explicit state machine over `--flag value` pairs.

use crate::commands::dataset_id;
use crate::launch::{page_cache, LaunchOpts};
use infomap_graph::snapshot::UnusablePageCache;

/// Printed on parse errors and `--help`.
pub const USAGE: &str = "\
dinfomap — community detection with (distributed) Infomap

USAGE:
  dinfomap cluster <edges.txt> [options]   detect communities
  dinfomap launch <edges.txt> [options]    detect communities with real OS processes
  dinfomap launch --graph-shard-dir D ...  same, from ready-made binary shards
  dinfomap partition <edges.txt> [options] analyze a partitioning
  dinfomap generate <what> [options]       write a synthetic graph
  dinfomap snapshot <edges.txt> [options]  convert an edge list to binary snapshot(s)
  dinfomap info <edges.txt>                print graph statistics

CLUSTER OPTIONS:
  --algorithm seq|dist|gossip         algorithm (default: dist)
  --ranks N                           simulated ranks for dist/gossip (default 8)
  --threads N                         dist only: intra-rank sweep slices
                                      (default 1; bit-identical for every N)
  --seed S                            RNG seed (default 0)
  --output FILE                       write `vertex community` lines
  --quiet                             suppress the run report
  --fault-plan SPEC                   dist only: inject faults, e.g.
                                      \"seed=1;crash=1@200;drop=0.01;straggler=0x2\"
  --checkpoint-every N                dist only: N >= 1 checkpoints the start of every
                                      stage-2 level (default 0 = off)
  --max-retries N                     dist only: retries after a failed attempt, each from
                                      the last agreed checkpoint or from scratch; then
                                      the best checkpointed clustering, marked degraded,
                                      or an error if there is none (default 3)

LAUNCH OPTIONS (distributed Infomap over the socket transport,
one OS process per rank, each reading only its own shard of <edges.txt>
(cut by the launcher); bit-identical to `cluster --algorithm dist`):
  --procs N                           worker processes (default 4)
  --threads N                         intra-rank sweep threads per worker
                                      (default 1; bit-identical for every N)
  --seed S                            RNG seed (default 0)
  --output FILE                       write `vertex community` lines
  --quiet                             suppress the run report
  --checkpoint-every N                N >= 1: a durable checkpoint at the start of every
                                      stage-2 level (default 0 = off)
  --max-retries N                     world relaunches after a failure (default 3); a
                                      worker refusing its input is not relaunched; then
                                      the best checkpointed clustering, marked degraded,
                                      or an error if there is none
  --timeout-ms MS                     per-collective deadline (default 5000)
  --kill-rank R@MS                    chaos: SIGKILL rank R after MS (first attempt)
  --dir D                             rendezvous directory (default: temp dir)
  --graph-shard-dir D                 out-of-core: each rank reads its own
                                      `shard-R.snap` from D; no edge list needed
  --paged                             either input: workers demand-page their
                                      shard over a bounded block cache instead
                                      of holding all of it
  --block-bytes N                     paged: cache block size (default 65536)
  --cache-blocks N                    paged: cache capacity in blocks (default 64)

SNAPSHOT OPTIONS:
  --out PATH                          output snapshot file, or the shard
                                      directory with --shards (required)
  --shards N                          write N per-rank shards `shard-R.snap`
                                      into PATH instead of one full snapshot

PARTITION OPTIONS:
  --ranks N                           world size (default 8)
  --strategy 1d|block|delegate        strategy (default delegate)

GENERATE <what>:
  lfr                                 LFR benchmark (use --n, --mu)
  amazon|dblp|ndweb|youtube|livejournal|uk2005|webbase|friendster|uk2007
                                      Table 1 stand-ins (use --scale)
  --n N --mu F --scale F --seed S --output FILE --truth FILE
  --shards N --out-dir D              stream straight into N snapshot shards
                                      under D (bounded memory; no edge list)";

/// Parsed `cluster` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterOpts {
    pub path: String,
    pub algorithm: Algorithm,
    pub ranks: usize,
    pub threads: usize,
    pub seed: u64,
    pub output: Option<String>,
    pub quiet: bool,
    /// Fault-injection spec for the simulated fabric (dist only).
    pub fault_plan: Option<String>,
    /// Checkpoint every stage-2 level start when > 0 (dist only, 0 = off).
    pub checkpoint_every: usize,
    /// Retry budget when a fault plan is active (dist only).
    pub max_retries: usize,
}

impl ClusterOpts {
    /// `cluster path` with every flag at its default.
    pub fn new(path: String) -> Self {
        ClusterOpts {
            path,
            algorithm: Algorithm::Distributed,
            ranks: 8,
            threads: 1,
            seed: 0,
            output: None,
            quiet: false,
            fault_plan: None,
            checkpoint_every: 0,
            max_retries: 3,
        }
    }
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Cluster(ClusterOpts),
    Partition {
        path: String,
        ranks: usize,
        strategy: Strategy,
    },
    Generate {
        what: String,
        n: usize,
        mu: f64,
        scale: f64,
        seed: u64,
        output: Option<String>,
        truth: Option<String>,
        /// Stream into this many snapshot shards (0 = in-memory path).
        shards: usize,
        /// Shard directory for `--shards` mode.
        out_dir: Option<String>,
    },
    /// `snapshot`: edge list → binary snapshot file or shard directory.
    Snapshot {
        path: String,
        out: String,
        /// 0 = one full snapshot file; N ≥ 1 = N per-rank shards.
        shards: usize,
    },
    Info {
        path: String,
    },
    /// `launch`: the distributed pipeline over real OS processes, and the
    /// arguments it was given, which every worker parses again.
    Launch(LaunchOpts, Vec<String>),
    /// `_rank --rank R --dir D --graph-shard-dir S -- <launch arguments>`:
    /// hidden worker subcommand, spawned by `launch`. Holds the rank and
    /// the launch's options, with `dir` and `graph_shard_dir` set to the
    /// directories the worker was handed.
    RankWorker(usize, LaunchOpts),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    Sequential,
    Distributed,
    Gossip,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    OneD,
    Block,
    Delegate,
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    if sub == "--help" || sub == "-h" || sub == "help" {
        return Err(String::new());
    }
    match sub.as_str() {
        "cluster" => {
            let path = it.next().ok_or("cluster: missing <edges.txt>")?.clone();
            let mut o = ClusterOpts::new(path);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--algorithm" => {
                        o.algorithm = match next(&mut it, flag)?.as_str() {
                            "seq" | "sequential" => Algorithm::Sequential,
                            "dist" | "distributed" => Algorithm::Distributed,
                            "gossip" => Algorithm::Gossip,
                            other => return Err(format!("unknown algorithm {other:?}")),
                        }
                    }
                    "--ranks" => o.ranks = num(&mut it, flag)?,
                    "--threads" => o.threads = num(&mut it, flag)?,
                    "--seed" => o.seed = num(&mut it, flag)?,
                    "--output" => o.output = Some(next(&mut it, flag)?),
                    "--quiet" => o.quiet = true,
                    "--fault-plan" => o.fault_plan = Some(next(&mut it, flag)?),
                    "--checkpoint-every" => o.checkpoint_every = num(&mut it, flag)?,
                    "--max-retries" => o.max_retries = num(&mut it, flag)?,
                    other => return Err(format!("cluster: unknown flag {other:?}")),
                }
            }
            if o.ranks == 0 {
                return Err("cluster: --ranks must be >= 1".into());
            }
            if o.threads == 0 {
                return Err("cluster: --threads must be >= 1".into());
            }
            Ok(Command::Cluster(o))
        }
        "partition" => {
            let path = it.next().ok_or("partition: missing <edges.txt>")?.clone();
            let mut ranks = 8usize;
            let mut strategy = Strategy::Delegate;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--ranks" => ranks = num(&mut it, flag)?,
                    "--strategy" => {
                        strategy = match next(&mut it, flag)?.as_str() {
                            "1d" | "rr" => Strategy::OneD,
                            "block" => Strategy::Block,
                            "delegate" => Strategy::Delegate,
                            other => return Err(format!("unknown strategy {other:?}")),
                        }
                    }
                    other => return Err(format!("partition: unknown flag {other:?}")),
                }
            }
            if ranks == 0 {
                return Err("partition: --ranks must be >= 1".into());
            }
            Ok(Command::Partition {
                path,
                ranks,
                strategy,
            })
        }
        "generate" => {
            let what = it.next().ok_or("generate: missing <what>")?.clone();
            let mut n = 1000usize;
            let mut mu = 0.3f64;
            let mut scale = 0.1f64;
            let mut seed = 0u64;
            let mut output = None;
            let mut truth = None;
            let mut shards = 0usize;
            let mut out_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--n" => n = num(&mut it, flag)?,
                    "--mu" => mu = num(&mut it, flag)?,
                    "--scale" => scale = num(&mut it, flag)?,
                    "--seed" => seed = num(&mut it, flag)?,
                    "--output" => output = Some(next(&mut it, flag)?),
                    "--truth" => truth = Some(next(&mut it, flag)?),
                    "--shards" => shards = num(&mut it, flag)?,
                    "--out-dir" => out_dir = Some(next(&mut it, flag)?),
                    other => return Err(format!("generate: unknown flag {other:?}")),
                }
            }
            if (shards > 0) != out_dir.is_some() {
                return Err("generate: --shards and --out-dir go together".into());
            }
            if !(0.0..=1.0).contains(&mu) {
                return Err("generate: --mu must be in [0, 1]".into());
            }
            if scale.is_nan() || scale <= 0.0 {
                return Err("generate: --scale must be > 0".into());
            }
            if scale.is_infinite() {
                return Err("generate: --scale must be finite".into());
            }
            if n < 2 {
                return Err("generate: --n must be >= 2".into());
            }
            // Vertex ids are u32: a graph has at most u32::MAX vertices.
            let most = u32::MAX as usize;
            if n > most {
                return Err(format!("generate: --n {n} exceeds the u32 vertex-id space"));
            }
            if let Ok(id) = dataset_id(&what) {
                let profile = id.profile();
                if profile.scaled_vertices(scale) > most {
                    let scaled = profile.gen_vertices as f64 * scale;
                    return Err(format!(
                        "generate: --scale {scale:e} gives {what} {scaled:.3e} vertices, \
                         which exceeds the u32 vertex-id space"
                    ));
                }
            }
            Ok(Command::Generate {
                what,
                n,
                mu,
                scale,
                seed,
                output,
                truth,
                shards,
                out_dir,
            })
        }
        "snapshot" => {
            let path = it.next().ok_or("snapshot: missing <edges.txt>")?.clone();
            let mut out = None;
            let mut shards = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => out = Some(next(&mut it, flag)?),
                    "--shards" => shards = num(&mut it, flag)?,
                    other => return Err(format!("snapshot: unknown flag {other:?}")),
                }
            }
            let out = out.ok_or("snapshot: --out is required")?;
            Ok(Command::Snapshot { path, out, shards })
        }
        "info" => {
            let path = it.next().ok_or("info: missing <edges.txt>")?.clone();
            Ok(Command::Info { path })
        }
        "launch" => {
            let args = it.as_slice().to_vec();
            Ok(Command::Launch(parse_launch(&args)?, args))
        }
        "_rank" => {
            let (mut rank, mut dir, mut shard_dir) = (None, None, None);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--rank" => rank = Some(num(&mut it, flag)?),
                    "--dir" => dir = Some(next(&mut it, flag)?),
                    "--graph-shard-dir" => shard_dir = Some(next(&mut it, flag)?),
                    "--" => break,
                    other => return Err(format!("_rank: unknown flag {other:?}")),
                }
            }
            let (Some(rank), Some(dir), Some(shard_dir)) = (rank, dir, shard_dir) else {
                return Err("_rank: --rank, --dir and --graph-shard-dir are required".into());
            };
            let mut o = parse_launch(it.as_slice())?;
            o.dir = Some(dir);
            o.graph_shard_dir = Some(shard_dir);
            Ok(Command::RankWorker(rank, o))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The arguments of `launch`, after the subcommand: the launcher's and,
/// behind `_rank`'s own three flags, every worker's.
fn parse_launch(args: &[String]) -> Result<LaunchOpts, String> {
    // The positional edge list is optional in shard mode, where
    // `--graph-shard-dir` supplies the input instead.
    let mut it = args.iter().peekable();
    let path = match it.peek() {
        Some(first) if !first.starts_with('-') => it.next().unwrap().clone(),
        _ => String::new(),
    };
    let mut o = LaunchOpts {
        path,
        procs: 4,
        seed: 0,
        output: None,
        quiet: false,
        checkpoint_every: 0,
        max_retries: 3,
        timeout_ms: 5000,
        kill_rank: None,
        dir: None,
        threads: 1,
        graph_shard_dir: None,
        paged: false,
        block_bytes: 0,
        cache_blocks: 0,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--procs" => o.procs = num(&mut it, flag)?,
            "--threads" => o.threads = num(&mut it, flag)?,
            "--seed" => o.seed = num(&mut it, flag)?,
            "--output" => o.output = Some(next(&mut it, flag)?),
            "--quiet" => o.quiet = true,
            "--checkpoint-every" => o.checkpoint_every = num(&mut it, flag)?,
            "--max-retries" => o.max_retries = num(&mut it, flag)?,
            "--timeout-ms" => o.timeout_ms = num(&mut it, flag)?,
            "--kill-rank" => o.kill_rank = Some(parse_kill(&next(&mut it, flag)?)?),
            "--dir" => o.dir = Some(next(&mut it, flag)?),
            "--graph-shard-dir" => o.graph_shard_dir = Some(next(&mut it, flag)?),
            "--paged" => o.paged = true,
            "--block-bytes" => o.block_bytes = num(&mut it, flag)?,
            "--cache-blocks" => o.cache_blocks = num(&mut it, flag)?,
            other => return Err(format!("launch: unknown flag {other:?}")),
        }
    }
    if o.path.is_empty() == o.graph_shard_dir.is_none() {
        return Err("launch: give exactly one of <edges.txt> or --graph-shard-dir".into());
    }
    if o.threads == 0 {
        return Err("launch: --threads must be >= 1".into());
    }
    check_page_cache(o.block_bytes, o.cache_blocks)?;
    Ok(o)
}

/// `--block-bytes` and `--cache-blocks`: 0 keeps the library default, any
/// other value must be a size the block cache can use.
fn check_page_cache(block_bytes: usize, cache_blocks: usize) -> Result<(), String> {
    let cfg = page_cache(true, block_bytes, cache_blocks).expect("paged");
    cfg.check().map_err(|e| match e {
        UnusablePageCache::BlockBytes => {
            "launch: --block-bytes must be a positive multiple of 8".into()
        }
        UnusablePageCache::CapacityBlocks => "launch: --cache-blocks must be >= 2".into(),
    })
}

/// `--kill-rank R@MS`.
fn parse_kill(raw: &str) -> Result<(usize, u64), String> {
    let (rank, at) = raw
        .split_once('@')
        .ok_or_else(|| format!("--kill-rank wants R@MS, got {raw:?}"))?;
    Ok((
        rank.parse()
            .map_err(|_| format!("--kill-rank: bad rank {rank:?}"))?,
        at.parse()
            .map_err(|_| format!("--kill-rank: bad delay {at:?}"))?,
    ))
}

fn next<'a, I: Iterator<Item = &'a String>>(it: &mut I, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn num<'a, T: std::str::FromStr, I: Iterator<Item = &'a String>>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = next(it, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_cluster_defaults() {
        let cmd = parse(&argv("cluster g.txt")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster(ClusterOpts {
                path: "g.txt".into(),
                algorithm: Algorithm::Distributed,
                ranks: 8,
                threads: 1,
                seed: 0,
                output: None,
                quiet: false,
                fault_plan: None,
                checkpoint_every: 0,
                max_retries: 3,
            })
        );
    }

    #[test]
    fn parses_cluster_flags() {
        let cmd = parse(&argv(
            "cluster g.txt --algorithm seq --ranks 16 --seed 7 --output out.txt --quiet",
        ))
        .unwrap();
        match cmd {
            Command::Cluster(ClusterOpts {
                algorithm,
                ranks,
                seed,
                output,
                quiet,
                ..
            }) => {
                assert_eq!(algorithm, Algorithm::Sequential);
                assert_eq!(ranks, 16);
                assert_eq!(seed, 7);
                assert_eq!(output.as_deref(), Some("out.txt"));
                assert!(quiet);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_fault_and_recovery_flags() {
        let cmd = parse(&argv(
            "cluster g.txt --fault-plan seed=1;crash=1@200 --checkpoint-every 2 --max-retries 5",
        ))
        .unwrap();
        match cmd {
            Command::Cluster(ClusterOpts {
                fault_plan,
                checkpoint_every,
                max_retries,
                ..
            }) => {
                assert_eq!(fault_plan.as_deref(), Some("seed=1;crash=1@200"));
                assert_eq!(checkpoint_every, 2);
                assert_eq!(max_retries, 5);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn removed_path_and_routing_flags_are_unknown() {
        // One wire format, one collective routing, one socket family: the
        // flags that used to select a twin are rejected like any other
        // unknown flag. (Spelled in pieces so a grep for the removed names
        // over `crates/` stays empty.)
        let removed = [
            format!("--{}-path", "comm"),
            format!("--{}-algo", "collective"),
            format!("--{}", "transport"),
            format!("--{}-port", "base"),
        ];
        let worker = "_rank --rank 0 --dir d --graph-shard-dir s -- g.txt --procs 2";
        for base in ["cluster g.txt", "launch g.txt", worker] {
            for flag in &removed {
                let err = parse(&argv(&format!("{base} {flag} x"))).unwrap_err();
                assert!(err.contains("unknown flag"), "{base} {flag}: {err}");
                assert!(!USAGE.contains(flag.as_str()), "{flag} still documented");
            }
            assert!(parse(&argv(base)).is_ok(), "{base}");
        }
        // A worker's own flags are the three values it is handed; every
        // other one reaches it on the launch line.
        for gone in ["--graph", "--output", "--procs", "--seed"] {
            let err = parse(&argv(&format!("_rank {gone} x --rank 0 --dir d"))).unwrap_err();
            assert_eq!(err, format!("_rank: unknown flag {gone:?}"));
        }
    }

    #[test]
    fn rejects_a_world_of_zero_ranks() {
        for cmd in [
            "cluster g.txt --ranks 0",
            "cluster g.txt --algorithm gossip --ranks 0",
            "partition g.txt --ranks 0",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(err.ends_with("--ranks must be >= 1"), "{cmd}: {err}");
        }
        assert!(parse(&argv("cluster g.txt --ranks 1")).is_ok());
    }

    #[test]
    fn rejects_zero_threads() {
        for cmd in [
            "cluster g.txt --threads 0",
            "cluster g.txt --algorithm seq --threads 0",
            "cluster g.txt --algorithm gossip --threads 0",
            "launch g.txt --procs 2 --threads 0",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(err.ends_with("--threads must be >= 1"), "{cmd}: {err}");
        }
        assert!(parse(&argv("cluster g.txt --threads 1")).is_ok());
        assert_eq!(
            parse(&argv("cluster g.txt --algorithm relax --threads 1")).unwrap_err(),
            "unknown algorithm \"relax\""
        );
    }

    #[test]
    fn rejects_page_cache_sizes_the_reader_cannot_use() {
        // A worker parses its launch line with the launcher's parser, so it
        // refuses what the launcher refuses, in the same words.
        let worker = "_rank --rank 0 --dir d --graph-shard-dir s -- g.txt --procs 2";
        for cmd in ["launch g.txt --procs 2", worker] {
            for sizes in ["--paged --block-bytes 100", "--block-bytes 4"] {
                let err = parse(&argv(&format!("{cmd} {sizes}"))).unwrap_err();
                let want = "launch: --block-bytes must be a positive multiple of 8";
                assert_eq!(err, want, "{cmd} {sizes}");
            }
            let err = parse(&argv(&format!("{cmd} --paged --cache-blocks 1"))).unwrap_err();
            assert_eq!(err, "launch: --cache-blocks must be >= 2", "{cmd}");
            // 0 keeps the default; the smallest and largest usable sizes
            // parse.
            for sizes in [
                "--block-bytes 0 --cache-blocks 0",
                "--block-bytes 8 --cache-blocks 2",
                "--block-bytes 18446744073709551608 --cache-blocks 18446744073709551615",
            ] {
                assert!(parse(&argv(&format!("{cmd} --paged {sizes}"))).is_ok());
            }
        }
    }

    #[test]
    fn rejects_a_mixing_parameter_outside_the_unit_interval() {
        for mu in ["2.5", "-1", "nan", "inf"] {
            let err = parse(&argv(&format!("generate lfr --mu {mu}"))).unwrap_err();
            assert_eq!(err, "generate: --mu must be in [0, 1]", "--mu {mu}");
        }
        for mu in ["0", "1"] {
            assert!(parse(&argv(&format!("generate lfr --mu {mu}"))).is_ok());
        }
    }

    #[test]
    fn rejects_fewer_than_two_vertices() {
        for cmd in [
            "generate lfr --n 0",
            "generate lfr --n 1",
            "generate lfr --n 1 --shards 2 --out-dir d",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert_eq!(err, "generate: --n must be >= 2", "{cmd}");
        }
        assert!(parse(&argv("generate lfr --n 2 --shards 2 --out-dir d")).is_ok());
    }

    #[test]
    fn rejects_a_non_positive_scale() {
        for scale in ["0", "-1", "-0", "nan"] {
            let err = parse(&argv(&format!("generate uk2007 --scale {scale}"))).unwrap_err();
            assert_eq!(err, "generate: --scale must be > 0", "--scale {scale}");
        }
        assert!(parse(&argv("generate uk2007 --scale 0.01")).is_ok());
    }

    #[test]
    fn rejects_a_non_finite_scale_and_more_vertices_than_u32_ids() {
        for cmd in [
            "generate uk2007 --scale inf",
            "generate friendster --scale inf",
            "generate lfr --scale inf",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert_eq!(err, "generate: --scale must be finite", "{cmd}");
        }
        for cmd in [
            "generate uk2007 --scale 1e300",
            "generate friendster --scale 1e12",
            "generate lfr --n 5000000000",
            "generate lfr --n 4294967296 --shards 2 --out-dir d",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(
                err.ends_with("exceeds the u32 vertex-id space"),
                "{cmd}: {err}"
            );
        }
        assert_eq!(
            parse(&argv("generate friendster --scale 1e12")).unwrap_err(),
            "generate: --scale 1e12 gives friendster 5.600e16 vertices, \
             which exceeds the u32 vertex-id space"
        );
        assert!(parse(&argv("generate lfr --n 4294967295")).is_ok());
        assert!(parse(&argv("generate friendster --scale 4")).is_ok());
    }

    /// Seeded sweep of `parse`: 4 000 argvs, each a
    /// subcommand (its positional argument present or not) and up to six
    /// flags drawn from all of that subcommand's flags plus an unknown one,
    /// each followed by a value of one class — negative, zero, small,
    /// fractional, huge, `nan`, `inf`, text, the other flag's shape — or
    /// by none. Every argv parses or is refused with a non-empty message;
    /// none panics; every `generate` that parses names a finite scale
    /// and a vertex count in 2..=u32::MAX; and every `launch` or
    /// `_rank` that parses names page-cache sizes the reader can use.
    /// A `_rank` argv is its three handed values and `--`, then a
    /// launch line.
    #[test]
    fn parse_sweep_returns_a_command_or_a_named_error() {
        fn splitmix64(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        const GENERATE: &[&str] = &[
            "--n",
            "--mu",
            "--scale",
            "--seed",
            "--output",
            "--truth",
            "--shards",
            "--out-dir",
        ];
        const RUN: &[&str] = &[
            "--procs",
            "--threads",
            "--seed",
            "--checkpoint-every",
            "--timeout-ms",
            "--dir",
            "--graph-shard-dir",
            "--paged",
            "--block-bytes",
            "--cache-blocks",
        ];
        let subcommands: &[(&str, &str, &[&str])] = &[
            (
                "cluster",
                "g.txt",
                &[
                    "--algorithm",
                    "--ranks",
                    "--threads",
                    "--seed",
                    "--output",
                    "--quiet",
                    "--fault-plan",
                    "--checkpoint-every",
                    "--max-retries",
                ],
            ),
            ("partition", "g.txt", &["--ranks", "--strategy"]),
            ("generate", "lfr", GENERATE),
            ("generate", "uk2007", GENERATE),
            ("generate", "friendster", GENERATE),
            ("generate", "amazon", GENERATE),
            ("generate", "nonsense", GENERATE),
            ("snapshot", "g.txt", &["--out", "--shards"]),
            ("info", "g.txt", &[]),
            (
                "launch",
                "g.txt",
                &["--output", "--quiet", "--max-retries", "--kill-rank"],
            ),
            ("launch", "g.txt", RUN),
            (
                "_rank",
                "--rank 1 --dir d --graph-shard-dir s -- g.txt",
                RUN,
            ),
        ];
        const VALUES: &[&str] = &[
            "-1",
            "-0",
            "0",
            "1",
            "3",
            "0.5",
            "2.5",
            "1e300",
            "4294967296",
            "18446744073709551616",
            "nan",
            "inf",
            "-inf",
            "x",
            "1@40",
            "seq",
            "delegate",
            "--quiet",
        ];
        let mut draw = (0u64..).map(splitmix64);
        let mut pick = |n: usize| (draw.next().unwrap() % n as u64) as usize;
        for case in 0..4000 {
            let (sub, positional, flags) = subcommands[pick(subcommands.len())];
            let mut args = vec![sub.to_string()];
            if pick(8) != 0 {
                args.extend(positional.split(' ').map(String::from));
            }
            for _ in 0..pick(7) {
                let flag = match pick(flags.len() + 1) {
                    i if i < flags.len() => flags[i],
                    _ => "--bogus",
                };
                args.push(flag.to_string());
                match pick(VALUES.len() + 1) {
                    i if i < VALUES.len() => args.push(VALUES[i].to_string()),
                    _ => {} // missing value
                }
            }
            match parse(&args) {
                Ok(Command::Generate { what, n, scale, .. }) => {
                    assert!(scale.is_finite() && scale > 0.0, "case {case}: {args:?}");
                    assert!(
                        (2..=u32::MAX as usize).contains(&n),
                        "case {case}: {args:?}"
                    );
                    if let Ok(id) = dataset_id(&what) {
                        let scaled = id.profile().scaled_vertices(scale);
                        assert!(scaled <= u32::MAX as usize, "case {case}: {args:?}");
                    }
                }
                Ok(Command::Launch(
                    LaunchOpts {
                        block_bytes,
                        cache_blocks,
                        ..
                    },
                    _,
                ))
                | Ok(Command::RankWorker(
                    _,
                    LaunchOpts {
                        block_bytes,
                        cache_blocks,
                        ..
                    },
                )) => {
                    let cfg = page_cache(true, block_bytes, cache_blocks).unwrap();
                    assert!(cfg.check().is_ok(), "case {case}: {args:?}");
                }
                Ok(_) => {}
                Err(e) => assert!(!e.is_empty(), "case {case}: {args:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_flags_and_algorithms() {
        assert!(parse(&argv("cluster g.txt --bogus 1")).is_err());
        assert!(parse(&argv("cluster g.txt --algorithm magic")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_launch_threads() {
        let cmd = parse(&argv("launch g.txt --procs 2 --threads 4")).unwrap();
        match cmd {
            Command::Launch(o, _) => {
                assert_eq!(o.procs, 2);
                assert_eq!(o.threads, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // A worker reads the flag from its launch line.
        let cmd = parse(&argv(
            "_rank --rank 0 --dir d --graph-shard-dir s -- g.txt --procs 2 --threads 4",
        ))
        .unwrap();
        match cmd {
            Command::RankWorker(0, o) => assert_eq!(o.threads, 4),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_shard_mode_launch() {
        let cmd = parse(&argv(
            "launch --graph-shard-dir shards --procs 3 --paged --block-bytes 4096 --cache-blocks 16",
        ))
        .unwrap();
        match cmd {
            Command::Launch(o, _) => {
                assert!(o.path.is_empty());
                assert_eq!(o.graph_shard_dir.as_deref(), Some("shards"));
                assert_eq!(o.procs, 3);
                assert!(o.paged);
                assert_eq!(o.block_bytes, 4096);
                assert_eq!(o.cache_blocks, 16);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Exactly one input: neither and both are errors.
        assert!(parse(&argv("launch --procs 2")).is_err());
        assert!(parse(&argv("launch g.txt --graph-shard-dir shards")).is_err());
        // A worker reads the shard flags from its launch line; the shard
        // directory it is handed wins over the launch's.
        let cmd = parse(&argv(
            "_rank --rank 1 --dir d --graph-shard-dir shards -- --graph-shard-dir x --paged",
        ))
        .unwrap();
        match cmd {
            Command::RankWorker(1, o) => {
                assert_eq!(o.graph_shard_dir.as_deref(), Some("shards"));
                assert!(o.paged);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("_rank --rank 1 --dir d -- g.txt")).is_err());
    }

    #[test]
    fn parses_snapshot_and_sharded_generate() {
        let cmd = parse(&argv("snapshot g.txt --out g.snap")).unwrap();
        assert_eq!(
            cmd,
            Command::Snapshot {
                path: "g.txt".into(),
                out: "g.snap".into(),
                shards: 0,
            }
        );
        let cmd = parse(&argv("snapshot g.txt --out shards --shards 4")).unwrap();
        match cmd {
            Command::Snapshot { shards, .. } => assert_eq!(shards, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("snapshot g.txt")).is_err(), "--out is required");
        let cmd = parse(&argv("generate uk2007 --scale 2 --shards 8 --out-dir d")).unwrap();
        match cmd {
            Command::Generate {
                shards, out_dir, ..
            } => {
                assert_eq!(shards, 8);
                assert_eq!(out_dir.as_deref(), Some("d"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("generate lfr --shards 2")).is_err());
        assert!(parse(&argv("generate lfr --out-dir d")).is_err());
    }

    #[test]
    fn parses_partition_and_generate() {
        let cmd = parse(&argv("partition g.txt --ranks 32 --strategy block")).unwrap();
        assert_eq!(
            cmd,
            Command::Partition {
                path: "g.txt".into(),
                ranks: 32,
                strategy: Strategy::Block
            }
        );
        let cmd = parse(&argv("generate lfr --n 500 --mu 0.4 --output g.txt")).unwrap();
        match cmd {
            Command::Generate {
                what,
                n,
                mu,
                output,
                ..
            } => {
                assert_eq!(what, "lfr");
                assert_eq!(n, 500);
                assert!((mu - 0.4).abs() < 1e-12);
                assert_eq!(output.as_deref(), Some("g.txt"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
