//! Static↔runtime schedule conformance (DESIGN.md §6 note 19): the
//! collective-kind trace a real rank produces must be a *word* of the
//! schedule automaton `spmd-lint --emit-schedule` infers for
//! `RankProgram::run_rank`. The static side over-approximates (any
//! branch, any loop count), so acceptance here proves the analyzer's
//! model of the program contains the program — and a rejection means
//! either the analyzer or the runtime drifted without the other.
//!
//! The schedule is inferred from the checked-in sources at test time (no
//! stale artifact can pass) and compiled from the node tree the artifact
//! renders; every rank of a real 4-rank run records its trace through
//! `Comm`'s one schedule hook and the matcher checks it offline,
//! end-of-word acceptance included.

use std::path::PathBuf;
use std::sync::Mutex;

use infomap_distributed::{CheckpointStore, DistributedConfig, RankProgram};
use infomap_graph::generators::{self, LfrParams};
use infomap_mpisim::World;
use spmd_lint::{workspace_schedule, Allowlist, Matcher, Schedule};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/distributed sits two levels below the root")
        .to_path_buf()
}

fn driver_matcher() -> Matcher {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("spmd-lint.toml")).expect("spmd-lint.toml must parse");
    workspace_schedule(&root, &allow)
        .expect("schedule inference must succeed")
        .matcher("RankProgram::run_rank")
        .expect("spmd-lint.toml [[entry]] must cover RankProgram::run_rank and compile")
}

fn test_graph() -> infomap_graph::Graph {
    generators::lfr_like(
        LfrParams {
            n: 300,
            ..Default::default()
        },
        11,
    )
    .0
}

fn cfg() -> DistributedConfig {
    DistributedConfig {
        nranks: 4,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn four_rank_traces_are_words_of_the_static_schedule() {
    let matcher = driver_matcher();
    let g = test_graph();
    let program = RankProgram::prepare(cfg(), &g);
    let store = CheckpointStore::new(4);
    let traces: Mutex<Vec<Vec<&'static str>>> = Mutex::new(vec![Vec::new(); 4]);

    let report = World::new(4).run(|comm| {
        comm.enable_schedule_trace();
        let out = program.run_rank(comm, &store);
        let trace = comm.take_schedule_trace().expect("recording was enabled");
        traces.lock().unwrap()[comm.rank()] = trace;
        out
    });
    assert_eq!(report.results.len(), 4);

    for (rank, trace) in traces.into_inner().unwrap().into_iter().enumerate() {
        assert!(
            trace.len() > 10,
            "rank {rank}: implausibly short trace ({} stamps)",
            trace.len()
        );
        if let Err(e) = matcher.accepts(&trace) {
            panic!(
                "rank {rank}: runtime trace of {} stamps is not a word \
                 of the static schedule: {e}",
                trace.len()
            );
        }
    }
}

#[test]
fn a_run_that_diverges_from_its_schedule_is_rejected() {
    // Sanity of the whole pipeline on a controlled program: infer a
    // schedule from fixture source with spmd-lint's own analysis, then
    // record a *different* real program — its trace must be rejected at
    // the first unexplained collective.
    let src = r#"
fn run(c: &mut Comm) {
    c.barrier();
    c.allreduce_u64(1, ReduceOp::Sum);
}
"#;
    let files = vec![(PathBuf::from("src/lib.rs"), src.to_string())];
    let mut analysis = spmd_lint::Analysis::build([("fixture", files.as_slice())]);
    let entry = spmd_lint::EntrySpec {
        fn_name: "run".into(),
        crate_name: None,
    };
    let schedule = Schedule::infer(&mut analysis, &[entry]).expect("fixture schedule infers");
    let matcher = schedule.matcher("run").expect("entry present and compiles");

    // The schedule's own word is accepted...
    assert!(matcher.accepts(&["barrier", "allreduce_u64"]).is_ok());

    // ...but a real 2-rank program that issues a second barrier where
    // the schedule demands an allreduce is not a word of it.
    let report = World::new(2).run(|comm| {
        comm.enable_schedule_trace();
        comm.barrier();
        comm.barrier(); // divergence: not a word of the schedule
        comm.take_schedule_trace().expect("recording was enabled")
    });
    for trace in report.results {
        let err = matcher.accepts(&trace).unwrap_err();
        assert!(err.contains("#1 `barrier`"), "unexpected rejection: {err}");
    }
}
