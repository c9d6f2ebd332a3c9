//! Static↔runtime schedule conformance (DESIGN.md §6 note 19): the
//! collective-kind trace a real rank produces must be a *word* of the
//! schedule automaton `spmd-lint --emit-schedule` infers for
//! `RankProgram::run_rank`. The static side over-approximates (any
//! branch, any loop count), so acceptance here proves the analyzer's
//! model of the program contains the program — and a rejection means
//! either the analyzer or the runtime drifted without the other.
//!
//! The schedule is emitted from the checked-in sources at test time (no
//! stale artifact can pass), then every rank of a real 4-rank run is
//! checked, plus the live in-`Comm` matcher variant that panics at the
//! first divergent collective.

use std::path::PathBuf;
use std::sync::Mutex;

use infomap_distributed::{CheckpointStore, DistributedConfig, RankProgram};
use infomap_graph::generators::{self, LfrParams};
use infomap_mpisim::{Matcher, ScheduleSet, World};
use spmd_lint::{emit_workspace_schedule, Allowlist};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/distributed sits two levels below the root")
        .to_path_buf()
}

fn emitted_schedule() -> ScheduleSet {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("spmd-lint.toml")).expect("spmd-lint.toml must parse");
    let json = emit_workspace_schedule(&root, &allow, &[]).expect("schedule emission must succeed");
    ScheduleSet::parse(&json).expect("emitted schedule must compile to an automaton")
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
    let set = emitted_schedule();
    let automaton = set
        .automaton("RankProgram::run_rank")
        .expect("spmd-lint.toml [[entry]] must cover RankProgram::run_rank");
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
        if let Err(e) = Matcher::new(automaton).accepts(&trace) {
            panic!(
                "rank {rank}: runtime trace of {} stamps is not a word \
                 of the static schedule: {e}",
                trace.len()
            );
        }
    }
}

#[test]
fn live_matcher_rides_along_a_real_run() {
    let set = emitted_schedule();
    let automaton = set
        .automaton("RankProgram::run_rank")
        .expect("entry present")
        .clone();
    let g = test_graph();
    let program = RankProgram::prepare(cfg(), &g);
    let store = CheckpointStore::new(4);

    let accepted: Mutex<Vec<bool>> = Mutex::new(vec![false; 4]);
    World::new(4).run(|comm| {
        // Any collective the automaton cannot explain panics inside
        // Comm::stamp, failing the rank (and this test) at the site.
        comm.install_schedule_matcher(Matcher::new(&automaton));
        let out = program.run_rank(comm, &store);
        let m = comm.take_schedule_matcher().expect("matcher installed");
        accepted.lock().unwrap()[comm.rank()] = m.at_accept();
        out
    });
    for (rank, ok) in accepted.into_inner().unwrap().into_iter().enumerate() {
        assert!(ok, "rank {rank}: run ended mid-schedule (no accept state)");
    }
}

#[test]
fn a_run_that_diverges_from_its_schedule_is_rejected() {
    // Sanity of the whole pipeline on a controlled program: emit a
    // schedule from fixture source with spmd-lint's own analysis, then
    // run a *different* real program under the live matcher — the first
    // unexplained collective must fail the rank.
    let src = r#"
fn run(c: &mut Comm) {
    c.barrier();
    c.allreduce_u64(1, ReduceOp::Sum);
}
"#;
    let files = vec![(PathBuf::from("src/lib.rs"), src.to_string())];
    let mut analysis = spmd_lint::Analysis::build([("fixture", files.as_slice())]);
    let json = spmd_lint::schedule::emit_schedule(
        &mut analysis,
        &[spmd_lint::EntrySpec {
            fn_name: "run".into(),
            crate_name: None,
        }],
    )
    .expect("fixture schedule emits");
    let set = ScheduleSet::parse(&json).expect("fixture schedule compiles");
    let automaton = set.automaton("run").expect("entry present").clone();

    // The schedule's own word is accepted...
    assert!(Matcher::new(&automaton)
        .accepts(&["barrier", "allreduce_u64"])
        .is_ok());

    // ...but a real 2-rank program that issues a second barrier where
    // the schedule demands an allreduce dies at that collective.
    let outcome = World::new(2).run_with_outcomes(|comm| {
        comm.install_schedule_matcher(Matcher::new(&automaton));
        comm.barrier();
        comm.barrier(); // divergence: not a word of the schedule
    });
    let failures: Vec<_> = outcome.failures();
    assert_eq!(failures.len(), 2, "both ranks should fail conformance");
    for (_, msg) in failures {
        assert!(
            msg.contains("schedule conformance"),
            "unexpected failure message: {msg}"
        );
    }
}
