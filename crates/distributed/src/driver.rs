//! Orchestration of the full distributed algorithm (paper Algorithm 2):
//! preprocessing, stage-1 clustering with delegates, distributed merging
//! (§3.5), and repeated stage-2 clustering without delegates until the MDL
//! stops improving.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc as Shared, Mutex};

use infomap_core::{plogp, NeighborMap, THETA};
use infomap_graph::snapshot::{SnapshotHeader, SnapshotKind};
use infomap_graph::{GraphStore, VertexId};
use infomap_mpisim::{Comm, FaultPlan, RankStats, ReduceOp, Refusal, World, WorldOutcome};
use infomap_partition::{
    delegates_from_degrees, owner, plan_rebalance, shard_rank_rows, Arc, ArcRows,
};

use crate::checkpoint::{CheckpointStore, RankSnapshot, RunId, SnapshotStore};
use crate::codec;
use crate::config::DistributedConfig;
use crate::idhash::IdBuild;
use crate::messages::{MergedArc, MergedFlow};
use crate::rounds::{cluster_stage, StageOutcome, StageStop};
use crate::state::{assemble, build_1d_state, LocalState};

/// Trace entry for one clustering stage at one merge level.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTrace {
    /// 1 = clustering with delegates, 2 = without.
    pub stage: u8,
    /// Merge level (0 = original graph).
    pub level: usize,
    /// Exact global MDL after the stage.
    pub codelength: f64,
    /// Total exit flow q of the stage's partition: the last sync's
    /// `sum_exit`, reduced on every rank. With the vertex strengths it
    /// prices the partition's modularity without the graph
    /// (`infomap_metrics::modularity_from_exit`).
    pub exit_flow: f64,
    /// Non-empty modules after the stage.
    pub num_modules: usize,
    /// Vertices of the level graph before/after merging.
    pub vertices_before: usize,
    pub vertices_after: usize,
    /// Synchronized inner rounds executed.
    pub inner_iterations: usize,
    /// Total vertex moves in the stage.
    pub moves: u64,
    /// MDL after every synchronized round (index 0 = before any move).
    pub mdl_series: Vec<f64>,
    /// Why the stage's round loop ended.
    pub stop: StageStop,
}

/// Everything a distributed run produces.
#[derive(Clone, Debug)]
pub struct DistributedOutput {
    /// Final module id per original vertex (dense, 0-based).
    pub modules: Vec<u32>,
    /// Final exact global MDL in bits.
    pub codelength: f64,
    /// Codelength of the trivial one-module partition.
    pub one_level_codelength: f64,
    /// Per-stage trace (stage 1 first, then one entry per stage-2 level).
    pub trace: Vec<StageTrace>,
    /// Per-rank metering counters (for the cost model). With retries,
    /// every attempt's traffic and work is accumulated here — failed work
    /// costs real time too.
    pub rank_stats: Vec<RankStats>,
    /// World size the run used.
    pub nranks: usize,
    /// What fault recovery did (all zeros/false on a fault-free run).
    pub recovery: RecoveryReport,
}

/// Summary of the retry loop of a fault-tolerant run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// World executions, including the successful one (1 = no failure).
    pub attempts: usize,
    /// Attempts that started from a restored checkpoint.
    pub restores: usize,
    /// Rank-snapshot commits across all attempts.
    pub checkpoints_committed: u64,
    /// Commits a durable store could not write (always 0 in memory).
    pub checkpoint_commit_failures: u64,
    /// File bytes a durable store wrote for those commits (0 in memory).
    pub checkpoint_bytes_written: u64,
    /// True when retries were exhausted and the output is the best
    /// checkpointed clustering instead of a completed run.
    pub degraded: bool,
    /// Per-attempt root-cause panic messages of failed ranks.
    pub failures: Vec<String>,
}

impl DistributedOutput {
    /// Number of detected modules.
    pub fn num_modules(&self) -> usize {
        self.modules
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0)
    }

    /// Total exit flow q of `modules`: the last stage's, whose partition
    /// the output is, or 0 for the one-module fallback (the output's
    /// codelength is then not the last stage's).
    pub fn exit_flow(&self) -> f64 {
        let last = self.trace.last();
        let produced = last.filter(|t| t.codelength.to_bits() == self.codelength.to_bits());
        produced.map_or(0.0, |t| t.exit_flow)
    }

    /// The concatenated MDL series across all stages (Figure 4's y-axis).
    pub fn mdl_series(&self) -> Vec<f64> {
        self.trace
            .iter()
            .flat_map(|t| t.mdl_series.iter().copied())
            .collect()
    }
}

/// The distributed Infomap driver.
#[derive(Clone, Debug)]
pub struct DistributedInfomap {
    cfg: DistributedConfig,
}

/// Outcome of [`distributed_merge`] on one rank.
pub(crate) struct MergeOutcome {
    pub(crate) state: LocalState,
    /// Old module id → dense new vertex id (identical on all ranks).
    dense: HashMap<u64, u32, IdBuild>,
    /// What the assignment step reads of the level the merge consumed.
    contracted: ContractedLevel,
}

/// All a merge keeps of the level it contracts: the vertices this rank
/// owned, ascending, and each one's module id — what the assignment step
/// reads. Everything else of the level is dropped before the contracted
/// level is built.
pub(crate) struct ContractedLevel {
    owned: Vec<u32>,
    modules: Vec<u32>,
}

impl ContractedLevel {
    fn of(st: LocalState) -> Self {
        let owned_len = st.delegates_from as usize;
        let modules = (0..owned_len)
            .map(|li| st.module_ids[st.module_of()[li] as usize])
            .collect();
        let mut owned = st.verts;
        owned.truncate(owned_len);
        owned.shrink_to_fit();
        ContractedLevel { owned, modules }
    }

    /// `(vertex, module id)` of every owned vertex, ascending by vertex.
    fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (self.owned.iter().copied()).zip(self.modules.iter().map(|&m| m as u64))
    }

    /// Module id of owned level vertex `v`.
    fn module_of(&self, v: u32) -> Option<u64> {
        let at = self.owned.binary_search(&v).ok()?;
        Some(self.modules[at] as u64)
    }
}

impl DistributedInfomap {
    pub fn new(cfg: DistributedConfig) -> Self {
        assert!(cfg.nranks > 0);
        DistributedInfomap { cfg }
    }

    /// Run the full algorithm on `graph` over the simulated cluster. The
    /// input is any [`GraphStore`] that answers every row and that the
    /// prepare world's rank threads can share (`Sync`): in practice the
    /// in-memory CSR, given by value (released once the ranks are
    /// prepared) or by reference. A (paged) shard runs through
    /// [`RankProgram::prepare_shard`] instead, to the same bits.
    pub fn run<G: GraphStore + Sync>(&self, graph: G) -> DistributedOutput {
        // A degraded result is a failed one too: retries run out at once.
        match self.run_with_plan(graph, None) {
            Ok(out) if !out.recovery.degraded => out,
            out => panic!(
                "a fault-free distributed run cannot fail: {:?}",
                out.map(|o| o.recovery.failures)
            ),
        }
    }

    /// Run the full algorithm under an optional [`FaultPlan`], through
    /// [`recover`]: a failed world execution is retried (up to
    /// `cfg.recovery.max_retries` times) only under a non-empty plan, from
    /// the last committed checkpoint or from a fresh prepare. Because the
    /// fault state lives on the [`World`], one-shot crashes stay fired
    /// across attempts. A plan that names a rank the world does not have
    /// is refused before anything runs. The input is dropped once every
    /// rank is prepared, unless a retry could re-prepare from it (the
    /// plan is non-empty).
    pub fn run_with_plan<G: GraphStore + Sync>(
        &self,
        graph: G,
        plan: Option<FaultPlan>,
    ) -> Result<DistributedOutput, String> {
        let cfg = self.cfg;
        let p = cfg.nranks;
        if let Some(r) = plan.iter().flat_map(FaultPlan::ranks).find(|&r| r >= p) {
            return Err(format!(
                "fault plan names rank {r}, but the world has {p} ranks"
            ));
        }
        let mut program = RankProgram::prepare(cfg, &graph);
        let (one_level, original_n) = (program.one_level, program.original_n);
        let store = CheckpointStore::new(p);

        // Without injected faults a failure is a bug, which a rerun meets
        // again: nothing re-prepares, so the input goes now.
        let retryable = plan.as_ref().is_some_and(|pl| !pl.is_empty());
        let graph = retryable.then_some(graph);
        let mut world = World::new(p);
        if let Some(plan) = plan {
            world = world.fault_plan(plan);
        }

        let mut stats: Vec<RankStats> = (0..p)
            .map(|rank| RankStats {
                rank,
                ..Default::default()
            })
            .collect();
        let attempt = |number| {
            if number > 1 && store.agreed_pos().is_none() {
                // The failed attempt's ranks took their prepared states
                // and no checkpoint replaces them: start from scratch.
                let graph = graph.as_ref().expect("a retried run keeps its input");
                program = RankProgram::prepare(cfg, graph);
            }
            let outcome = world.run_with_outcomes(|comm| program.run_rank(comm, &store));
            for (rank, s) in outcome.stats.iter().enumerate() {
                stats[rank].absorb(s);
            }
            rank0_result(outcome, retryable)
        };
        let recovered = recover(&store, p, cfg.recovery.max_retries, attempt, || {
            Ok((one_level, original_n))
        })?;
        Ok(match recovered {
            Recovered::Completed((modules, trace, codelength), recovery) => {
                program.assemble_output(modules, trace, codelength, stats, recovery)
            }
            Recovered::Degraded(out) => DistributedOutput {
                rank_stats: stats,
                ..out
            },
        })
    }
}

/// Rank 0's result of a thread-world attempt in which every rank
/// completed, or the cause of every rank that failed.
pub fn rank0_result<R>(
    outcome: WorldOutcome<Option<R>>,
    retryable: bool,
) -> Result<R, AttemptFailure> {
    let causes = (outcome.failures().into_iter())
        .map(|(rank, why)| format!("rank {rank}: {why}"))
        .collect();
    match outcome.into_results() {
        Some(mut results) => Ok(results.remove(0).expect("rank 0 must report results")),
        None => Err(AttemptFailure { causes, retryable }),
    }
}

/// Why one attempt of a world did not complete.
#[derive(Clone, Debug)]
pub struct AttemptFailure {
    /// One root cause per failed rank, `rank R: why`.
    pub causes: Vec<String>,
    /// False when a rerun would meet the same failure: [`recover`] stops.
    pub retryable: bool,
}

/// How [`recover`] ended when it did not fail.
#[derive(Debug)]
pub enum Recovered<T> {
    /// An attempt completed: its result, and what the loop did.
    Completed(T, RecoveryReport),
    /// No attempt completed: the best checkpointed clustering.
    Degraded(DistributedOutput),
}

/// The one recovery loop of the thread world, the process launcher and
/// the file-store chaos test: each passes how to run attempt number `n`
/// (from 1) and the `store` its ranks checkpoint to. Attempts run until
/// one completes, one fails in a way a rerun would repeat, or
/// `max_retries` retries failed; a retry with a level agreed in `store`
/// counts as a restore. When no attempt completed, a store in which every
/// rank holds a level gives [`degraded_output`], marked degraded, and any
/// other store the error listing every `attempt N: rank R: why`.
/// `baseline` gives the one-module codelength and the vertex count of the
/// input, asked only when the run degrades.
pub fn recover<T>(
    store: &dyn SnapshotStore,
    nranks: usize,
    max_retries: usize,
    mut attempt: impl FnMut(usize) -> Result<T, AttemptFailure>,
    baseline: impl FnOnce() -> Result<(f64, usize), String>,
) -> Result<Recovered<T>, String> {
    let mut report = RecoveryReport::default();
    let ended = loop {
        report.attempts += 1;
        let n = report.attempts;
        report.restores += usize::from(n > 1 && store.agreed_pos().is_some());
        match attempt(n) {
            Ok(done) => break Ok(done),
            Err(failure) => {
                let causes = failure.causes.iter();
                report
                    .failures
                    .extend(causes.map(|c| format!("attempt {n}: {c}")));
                if !failure.retryable || n > max_retries {
                    break Err(format!("distributed run failed after {n} attempt(s)"));
                }
            }
        }
    };
    report.checkpoints_committed = store.checkpoints_committed();
    let failure = match ended {
        Ok(done) => return Ok(Recovered::Completed(done, report)),
        Err(failed) => format!("{failed}: {}", report.failures.join("; ")),
    };
    if store.agreed_pos().is_none() {
        return Err(failure);
    }
    let (one_level, original_n) = baseline()?;
    report.degraded = true;
    degraded_output(store, nranks, one_level, original_n, report)
        .map(Recovered::Degraded)
        .map_err(|e| format!("{failure}; {e}"))
}

/// Σ plogp(p_v) over all vertices — the MDL's constant node term, whose
/// negation is the one-module codelength — from the vertex strengths in
/// global vertex order and the total edge weight `W`. One fold, one
/// summation order: [`RankProgram::prepare_rank`] and the launcher's
/// `one_level_of_shards` (its degraded assembly) must agree on it bit for
/// bit.
pub fn node_term(strengths: impl Iterator<Item = f64>, total_weight: f64) -> f64 {
    let inv_two_w = 1.0 / (2.0 * total_weight);
    strengths.map(|s| plogp(s * inv_two_w)).sum()
}

/// Per-rank values of an allgatherv over owned rows (rank `r` contributes
/// vertices `r, r + p, …`, ascending), scattered to global vertex order.
fn in_vertex_order<T: Copy + Default>(gathered: &[T], n: usize, p: usize) -> Vec<T> {
    let mut out = vec![T::default(); n];
    let mut values = gathered.iter();
    for r in 0..p {
        for v in (r..n).step_by(p) {
            out[v] = *values.next().expect("one value per owned row");
        }
    }
    out
}

/// The state half of [`RankProgram::prepare_rank`], on the calling rank's
/// delegate-partition `rows` (every delegate may have a row); `store` is
/// asked only about the rank's rows, and dropped once their strengths are
/// read.
///
/// 4. **Ghosts** — one pass over the targets notes each vertex once: the
///    delegates the arcs touch (as a target, or by a row with arcs), and
///    the foreign low-degree vertices (the rank's ghost run, cut by
///    owner). The delegate rows of untouched delegates go. The runs go to
///    their owners with one alltoallv, and the owners group what they
///    receive into subscriber lists.
/// 5. **Flows** — allgatherv the owned strengths and fold the MDL node
///    term in global vertex order.
///
/// Then `assemble`. Returns the state and the node term.
pub(crate) fn stage1_state<G: GraphStore>(
    comm: &mut Comm,
    store: G,
    mut rows: ArcRows,
    delegates: &[u32],
    is_delegate: &[bool],
) -> (LocalState, f64) {
    let (rank, p, n) = (comm.rank(), comm.size(), store.num_vertices());
    let mut noted = vec![false; n];
    let mut observed: Vec<Vec<u32>> = vec![Vec::new(); p];
    for &v in &rows.tgt {
        if std::mem::replace(&mut noted[v as usize], true) {
            continue;
        }
        match (is_delegate[v as usize], owner(v, p)) {
            (false, r) if r != rank => observed[r].push(v),
            _ => {}
        }
    }
    rows.retain_delegates(|d| noted[d as usize]);
    drop(noted);
    for run in &mut observed {
        run.sort_unstable();
    }
    // The ghost run is the union of the owner-keyed runs.
    let mut ghosts = observed.concat();
    ghosts.sort_unstable();
    let notified = comm.alltoallv(observed);
    let seen_by: Vec<(u32, usize)> = (notified.into_iter().enumerate())
        .flat_map(|(r, run)| run.into_iter().map(move |v| (v, r)))
        .collect();

    let my_strengths: Vec<f64> = (rank..n)
        .step_by(p)
        .map(|v| store.strength(v as VertexId))
        .collect();
    let total_weight = store.total_weight();
    drop(store);
    let strengths = in_vertex_order(&comm.allgatherv(my_strengths), n, p);
    let inv_two_w = 1.0 / (2.0 * total_weight);
    let node_term = node_term(strengths.iter().copied(), total_weight);

    let flow = |v: u32| strengths[v as usize] * inv_two_w;
    let mut st = assemble(rank, p, rows, ghosts, delegates, &flow, inv_two_w);
    st.set_subscribers(seen_by);
    (st, node_term)
}

/// Everything the per-rank SPMD program needs besides its communicator and
/// snapshot store: the partitioned input and the shared scalars derived
/// from the graph. Every rank prepares through
/// [`RankProgram::prepare_rank`]: each process of a multi-process run for
/// itself, every rank of an in-memory world at once for a thread run.
pub struct RankProgram {
    pub cfg: DistributedConfig,
    /// Initial stage-1 states for ranks `states_from ..`, one take-once
    /// slot per rank that [`RankProgram::run_rank`] moves out of (a rank
    /// runs fresh once per program). [`RankProgram::prepare_rank`] fills
    /// the calling rank's slot; [`RankProgram::prepare`] collects every
    /// rank's, in rank order (`states_from == 0`).
    states: Vec<Mutex<Option<LocalState>>>,
    /// Rank of the first state slot (see `states`).
    pub states_from: usize,
    /// Replicated delegate vertex ids.
    pub delegates: Vec<u32>,
    /// Σ plogp(p_v) over all vertices (the MDL's constant node term).
    pub node_term: f64,
    /// Codelength of the trivial one-module partition.
    pub one_level: f64,
    /// Vertices of the original graph.
    pub original_n: usize,
    /// The input's total weight `W`: every level prices its flows by
    /// `1/(2W)`, which a restored level recomputes from it.
    pub total_weight: f64,
}

impl RankProgram {
    /// Every rank's preparation at once, for the thread world:
    /// [`RankProgram::prepare_rank`] on each rank of an in-memory world
    /// over `graph`, the states collected into one slot per rank. The
    /// prepare world's counters are dropped: a thread run's preparation
    /// is not metered.
    pub fn prepare<G: GraphStore + Sync + ?Sized>(
        cfg: DistributedConfig,
        graph: &G,
    ) -> RankProgram {
        let report = World::new(cfg.nranks).run(|comm| Self::prepare_rank(cfg, graph, comm));
        let mut ranks = report.results.into_iter();
        let mut program = ranks.next().expect("a world has a rank 0");
        for other in ranks {
            assert_eq!(
                other.delegates, program.delegates,
                "ranks elected different delegates"
            );
            assert_eq!(
                other.node_term.to_bits(),
                program.node_term.to_bits(),
                "ranks folded different node terms"
            );
            program.states.extend(other.states);
        }
        program
    }

    /// Shard-mode preparation: [`RankProgram::prepare_rank`] over the
    /// calling rank's snapshot shard, after checking it is that rank's
    /// share of a graph (a level record is refused by name).
    /// Given the store itself rather than a reference, it closes the
    /// shard once the last row is read, before the state is assembled.
    pub fn prepare_shard<G: GraphStore>(
        cfg: DistributedConfig,
        header: &SnapshotHeader,
        store: G,
        comm: &mut Comm,
    ) -> RankProgram {
        let (p, rank) = (cfg.nranks, comm.rank());
        assert_eq!(
            header.nranks, p,
            "shard written for {} ranks, run configured for {p}",
            header.nranks
        );
        let header = header.graph().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            header.kind == SnapshotKind::Shard || p == 1,
            "full snapshots shard only a 1-rank world"
        );
        assert_eq!(header.rank, rank, "rank {rank} opened the wrong shard");
        Self::prepare_rank(cfg, store, comm)
    }

    /// Stage-1 preparation of the calling rank (paper §3.3) from its own
    /// rows `rank, rank + p, …` of `store`, with a collective for every
    /// global fact — the one implementation every entry point wraps:
    ///
    /// 1. **Delegates** — allgatherv the owned degrees, scatter them to
    ///    vertex order, and run the [`delegates_from_degrees`] rule every
    ///    rank now agrees on.
    /// 2. **Rows** — [`shard_rank_rows`] counts this rank's
    ///    delegate-partition rows from owned rows, in the local order of
    ///    its state (owned rows, then delegate rows).
    /// 3. **Rebalance** — allgatherv `(load, movable)` summaries and
    ///    replay the pure [`plan_rebalance`]; fill the rows with room for
    ///    what the plan sends here, cut this rank's surplus off the tails
    ///    of the highest delegate rows, ship it with one alltoallv, and
    ///    append the received arcs to their delegates' rows in
    ///    source-rank order. The rows are the CSR the state is built in:
    ///    no arc list stands beside them.
    /// 4. **Ghosts** and 5. **flows** — the state half, [`stage1_state`].
    ///
    /// The store is asked only about this rank's rows, so a demand-paged
    /// shard never touches remote data; an in-memory `Graph` answers for
    /// any rank. A store passed by value is dropped in step 5, once the
    /// last row is read.
    pub fn prepare_rank<G: GraphStore>(
        cfg: DistributedConfig,
        store: G,
        comm: &mut Comm,
    ) -> RankProgram {
        let (p, rank, n) = (cfg.nranks, comm.rank(), store.num_vertices());
        comm.phase("Prepare", |c| {
            let my_degrees: Vec<u32> = (rank..n)
                .step_by(p)
                .map(|v| store.degree(v as VertexId) as u32)
                .collect();
            let degrees = in_vertex_order(&c.allgatherv(my_degrees), n, p);
            let (delegates, is_delegate) = delegates_from_degrees(&degrees, p, cfg.threshold);
            drop(degrees);

            let shape = shard_rank_rows(&store, rank, p, &delegates, &is_delegate);
            let plan = cfg.rebalance.then(|| {
                let summary = (shape.arcs() as u64, shape.movable() as u64);
                let summaries = c.allgatherv(vec![summary]);
                let loads: Vec<usize> = summaries.iter().map(|&(l, _)| l as usize).collect();
                let counts: Vec<usize> = summaries.iter().map(|&(_, m)| m as usize).collect();
                plan_rebalance(&loads, &counts, p)
            });
            let room = plan
                .as_ref()
                .map_or(shape.arcs(), |plan| plan.room(rank, shape.arcs()));
            let mut rows = shape.fill(&store, rank, p, &is_delegate, room);
            if let Some(plan) = plan {
                let received = c.alltoallv(plan.ship_surplus(rank, &mut rows));
                rows.receive(&received);
            }

            let total_weight = store.total_weight();
            let (st, node_term) = stage1_state(c, store, rows, &delegates, &is_delegate);
            RankProgram {
                cfg,
                delegates,
                states: vec![Mutex::new(Some(st))],
                states_from: rank,
                node_term,
                one_level: -node_term,
                original_n: n,
                total_weight,
            }
        })
    }

    /// A copy of `rank`'s prepared stage-1 state while its slot holds it:
    /// `None` once a fresh [`RankProgram::run_rank`] took it, and for a
    /// rank this program did not prepare.
    pub fn prepared_state(&self, rank: usize) -> Option<LocalState> {
        let slot = self.states.get(rank.checked_sub(self.states_from)?)?;
        slot.lock()
            .expect("no rank panics while it holds its state slot")
            .clone()
    }

    /// Model selection + packaging shared by the completed and launcher
    /// paths: fall back to the one-module partition when the clustered
    /// code is longer, as in the sequential algorithm.
    pub fn assemble_output(
        &self,
        mut modules: Vec<u32>,
        trace: Vec<StageTrace>,
        mut codelength: f64,
        rank_stats: Vec<RankStats>,
        recovery: RecoveryReport,
    ) -> DistributedOutput {
        if codelength > self.one_level {
            modules = vec![0; self.original_n];
            codelength = self.one_level;
        }
        DistributedOutput {
            modules,
            codelength,
            one_level_codelength: self.one_level,
            trace,
            rank_stats,
            nranks: self.cfg.nranks,
            recovery,
        }
    }

    /// One rank's complete SPMD program: restore-or-initialize, stage 1
    /// with delegates, merge, stage-2 levels, final gather. Identical over
    /// the in-memory and the socket transport — the communicator hides
    /// the substrate, the snapshot store hides where checkpoints live.
    ///
    /// With `checkpoint_every > 0` every stage-2 level starts with a
    /// commit, and a restored run re-runs from the agreed level's start
    /// (see [`crate::checkpoint`]).
    ///
    /// Returns `Some((modules, trace, codelength))` on rank 0, `None`
    /// elsewhere.
    pub fn run_rank(
        &self,
        comm: &mut Comm,
        store: &dyn SnapshotStore,
    ) -> Option<(Vec<u32>, Vec<StageTrace>, f64)> {
        let cfg = self.cfg;
        let p = cfg.nranks;
        let node_term = self.node_term;
        let original_n = self.original_n;
        let rank = comm.rank();
        // The prepared state leaves its slot either way: moved into a
        // fresh run, or dropped under a restored one.
        let prepared = self.states[rank - self.states_from]
            .lock()
            .expect("no rank panics while it holds its state slot")
            .take();
        let restored = store.restore_agreed(rank);
        let prepared = prepared.filter(|_| restored.is_none());
        if let Some(snap) = &restored {
            // Another run's records are refused on every attempt.
            if let Err(why) = snap.check_same_run(p, original_n, node_term) {
                std::panic::panic_any(Refusal(why));
            }
            // Every rank must resume the same level; the commit protocol
            // guarantees it, the collective verifies it (and doubles as
            // the attempt's entry barrier). The restore read is metered as
            // checkpoint traffic.
            comm.phase("Recovery", |c| {
                let word = snap.level as u64;
                let lo = c.allreduce_u64(word, ReduceOp::Min);
                let hi = c.allreduce_u64(word, ReduceOp::Max);
                assert_eq!(lo, hi, "ranks restored different checkpoints");
                c.add_checkpoint_bytes(snap.encode().len() as u64);
            });
        }

        let mut at = match restored {
            None => {
                // ---- Stage 1: clustering with delegates ----
                let mut st = prepared.unwrap_or_else(|| {
                    panic!("rank {rank}: prepared state already taken by a fresh run_rank")
                });
                let mut delegate_assign: BTreeMap<u32, u64> =
                    self.delegates.iter().map(|&d| (d, d as u64)).collect();
                let s1 = cluster_stage(comm, &mut st, &cfg, node_term, &mut delegate_assign, "s1/");

                // ---- First merge: original vertices → level-1 vertices ----
                let merge = comm.phase("Merge", |c| distributed_merge(c, st));

                // Original-vertex assignments this rank is responsible for.
                let mut assign = Vec::new();
                for (v, module) in merge.contracted.iter() {
                    assign.push((v, merge.dense[&module]));
                }
                for &d in &self.delegates {
                    if (d as usize) % p == rank {
                        assign.push((d, merge.dense[&delegate_assign[&d]]));
                    }
                }
                let mut trace = Vec::new();
                push_trace(&mut trace, 1, 0, &s1, original_n, merge.dense.len());
                RankSnapshot {
                    run: RunId {
                        nranks: p,
                        seed: cfg.seed,
                        original_n,
                        node_term_bits: node_term.to_bits(),
                        total_weight_bits: self.total_weight.to_bits(),
                    },
                    level: 1,
                    level_vertices: merge.dense.len(),
                    st: merge.state,
                    assign,
                    trace,
                    prev_mdl: s1.mdl,
                }
            }
            Some(snap) => snap,
        };

        // ---- Stage 2 loop: clustering without delegates ----
        // Cap on merge levels.
        const MAX_LEVELS: usize = 30;
        for level in at.level as usize..=MAX_LEVELS {
            if at.level_vertices <= 1 {
                break;
            }
            if cfg.recovery.checkpoint_every > 0 {
                comm.phase("s2/Checkpoint", |c| {
                    // Consensus collective: every rank reaches the level
                    // before anyone commits. A crash firing at or before
                    // it poisons the world with *no* rank committed; past
                    // it, every rank commits before its next communication
                    // event (its next crash opportunity). All-or-nothing.
                    c.allreduce_u64(level as u64, ReduceOp::Min);
                    c.add_checkpoint_bytes(store.commit(rank, &at));
                });
            }
            let s2 = cluster_stage(
                comm,
                &mut at.st,
                &cfg,
                node_term,
                &mut BTreeMap::new(),
                "s2/",
            );
            // The merge consumes the level; `at.st` is the next one's below.
            let level_st = std::mem::take(&mut at.st);
            let merge = comm.phase("Merge", |c| distributed_merge(c, level_st));
            let new_vertices = merge.dense.len();
            push_trace(
                &mut at.trace,
                2,
                level,
                &s2,
                at.level_vertices,
                new_vertices,
            );

            // Re-point original assignments through this level.
            refresh_assignments(comm, &merge.contracted, &merge.dense, &mut at.assign);

            let improved = at.prev_mdl - s2.mdl;
            at.prev_mdl = s2.mdl;
            at.st = merge.state;
            at.level = level as u32 + 1;
            let stalled = new_vertices == at.level_vertices;
            at.level_vertices = new_vertices;
            if s2.total_moves == 0 || stalled || improved < THETA {
                break;
            }
        }

        // ---- Gather final assignments everywhere ----
        let gathered = comm.allgatherv(at.assign);
        if rank == 0 {
            let mut modules = vec![0u32; original_n];
            for &(v, m) in gathered.iter() {
                modules[v as usize] = m;
            }
            Some((modules, at.trace, at.prev_mdl))
        } else {
            None
        }
    }
}

/// The best checkpointed clustering, for [`recover`] once no attempt
/// completed: the original-vertex assignments the agreed level's records
/// carry, and the codelength of the stage that produced them (or the
/// one-module partition, when that is shorter). Only the records' carries
/// are read, and no state is built. A record another run wrote is an
/// error naming both.
fn degraded_output(
    store: &dyn SnapshotStore,
    p: usize,
    one_level: f64,
    original_n: usize,
    recovery: RecoveryReport,
) -> Result<DistributedOutput, String> {
    let mut modules = vec![0u32; original_n];
    let (mut codelength, mut trace) = (one_level, Vec::new());
    let carries = store
        .agreed_carries()
        .ok_or("a checkpoint vanished during the restore")?;
    for (r, carry) in carries.into_iter().enumerate() {
        carry.run.check_same_run(p, original_n, -one_level)?;
        for &(v, m) in &carry.assign {
            modules[v as usize] = m;
        }
        if r == 0 {
            (codelength, trace) = (carry.prev_mdl, carry.trace);
        }
    }
    if codelength > one_level {
        modules = vec![0; original_n];
        codelength = one_level;
    }
    Ok(DistributedOutput {
        modules,
        codelength,
        one_level_codelength: one_level,
        trace,
        rank_stats: Vec::new(),
        nranks: p,
        recovery,
    })
}

fn push_trace(
    trace: &mut Vec<StageTrace>,
    stage: u8,
    level: usize,
    s: &StageOutcome,
    before: usize,
    after: usize,
) {
    trace.push(StageTrace {
        stage,
        level,
        codelength: s.mdl,
        exit_flow: s.exit_flow,
        num_modules: s.num_modules as usize,
        vertices_before: before,
        vertices_after: after,
        inner_iterations: s.inner_iterations,
        moves: s.total_moves,
        mdl_series: s.mdl_series.clone(),
        stop: s.stop,
    });
}

/// Sum the weights of equal `(src, dst)` keys: a **stable** sort, then one
/// fold per run from 0.0 in the order the run's arcs entered — so a key's
/// sum carries the bits of adding its weights in input order. Returns the
/// folded arcs ascending by key. The receiver side of the merge: fed the
/// ranks' buckets back to back, it adds a key's parts in source-rank order.
fn fold_arcs(mut arcs: Vec<MergedArc>) -> Vec<MergedArc> {
    arcs.sort_by_key(|a| (a.src, a.dst));
    let mut folded: Vec<MergedArc> = Vec::new();
    for a in arcs {
        match folded.last_mut() {
            Some(run) if (run.src, run.dst) == (a.src, a.dst) => run.weight += a.weight,
            _ => folded.push(MergedArc {
                weight: 0.0 + a.weight,
                ..a
            }),
        }
    }
    folded
}

/// Distributed merging (paper §3.5): contract every module to a vertex of
/// a new graph, 1D-partitioned by the dense module ids. The merge consumes
/// the level: once its arcs are folded into owner buckets and its module
/// flows staged (local work, done before the exchanges, whose order is
/// unchanged), all of it but the [`ContractedLevel`] is dropped, and the
/// contracted level is built in the memory the old one held.
pub(crate) fn distributed_merge(comm: &mut Comm, st: LocalState) -> MergeOutcome {
    let p = st.nranks;

    // 1. Global dense relabeling of surviving modules.
    let owned_ids: Vec<u64> = st
        .owned_modules()
        .filter(|(_, e)| e.members > 0 || e.flow > 1e-15)
        .map(|(m, _)| m)
        .collect();
    let all_ids = comm.allgatherv(owned_ids);
    let mut sorted: Vec<u64> = Shared::try_unwrap(all_ids).unwrap_or_else(|ids| (*ids).clone());
    sorted.sort_unstable();
    sorted.dedup();
    let dense: HashMap<u64, u32, IdBuild> = sorted
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, i as u32))
        .collect();
    drop(sorted);

    // 2. Fold local arcs by (new src, new dst) into the bucket of the new
    //    source owner. One lookup per module slot the arcs touch, an
    //    array index per arc; a source module's members are walked in local
    //    order and their arcs in CSR order, so every key's weights add in
    //    arc order, from 0.0, into a neighborhood map sized by the source
    //    module's arcs (or the new ids, if fewer) — nothing
    //    arc-proportional is allocated beyond the largest module's arcs.
    let mut arc_out: Vec<Vec<MergedArc>> = vec![Vec::new(); p];
    {
        let mut slot_dense = vec![u32::MAX; st.num_module_slots()];
        let mut dense_of_slot = |s: u32| {
            let d = &mut slot_dense[s as usize];
            if *d == u32::MAX {
                *d = dense_of(&dense, st.module_gid(s));
            }
            *d
        };
        let module_of = st.module_of();
        let mut by_src: Vec<(u32, u32)> = (st.movable())
            .map(|li| (dense_of_slot(module_of[li as usize]), li))
            .collect();
        by_src.sort_unstable(); // (src, li) pairs are unique
        let mut sums: NeighborMap<f64> = NeighborMap::new();
        let mut dsts: Vec<(u32, f64)> = Vec::new();
        let mut arcs_folded = 0u64;
        for members in by_src.chunk_by(|a, b| a.0 == b.0) {
            let src = members[0].0;
            // Distinct targets: at most the module's arcs, and at most the ids.
            let arcs: usize = members.iter().map(|&(_, li)| st.row(li).len()).sum();
            sums.begin(arcs.min(dense.len()));
            for &(_, li) in members {
                for (tgt, w) in st.arcs_of(li) {
                    sums.update(dense_of_slot(module_of[tgt as usize]), |sum| *sum += w);
                    arcs_folded += 1;
                }
            }
            // Ascending by (src, dst) within each bucket: the receiver's stable
            // sort then sees every key's parts in source-rank order.
            dsts.clear();
            dsts.extend_from_slice(sums.touched());
            dsts.sort_unstable_by_key(|&(dst, _)| dst); // keys are unique
            arc_out[src as usize % p].extend(dsts.iter().map(|&(dst, weight)| MergedArc {
                src,
                dst,
                weight,
            }));
        }
        comm.add_work(arcs_folded);
    }

    // 3. Stage the carried flows for the new owners.
    let mut flow_out: Vec<Vec<MergedFlow>> = vec![Vec::new(); p];
    for (m, e) in st.owned_modules() {
        if let Some(&a) = dense.get(&m) {
            flow_out[(a as usize) % p].push(MergedFlow {
                vertex: a,
                flow: e.flow,
            });
        }
    }
    for bucket in &mut flow_out {
        bucket.sort_by_key(|f| f.vertex);
    }

    // 4. The old level goes, but for what the assignment step reads; then
    //    the arcs, and after them the flows, travel to their owners.
    let (rank, inv_two_w) = (st.rank, st.inv_two_w);
    let contracted = ContractedLevel::of(st);
    let arc_in = comm.alltoallv(arc_out);
    let flow_in = comm.alltoallv(flow_out);

    // 5. Assemble the rank's 1D level state. A level vertex is one module,
    //    whose flow one owner carried.
    let arcs: Vec<Arc> = fold_arcs(arc_in.into_iter().flatten().collect())
        .into_iter()
        .map(|a| Arc {
            src: a.src,
            dst: a.dst,
            weight: a.weight,
        })
        .collect();
    let mut flows: Vec<(u32, f64)> = (flow_in.into_iter().flatten())
        .map(|f| (f.vertex, 0.0 + f.flow))
        .collect();
    flows.sort_by_key(|f| f.0);
    debug_assert!(flows.windows(2).all(|w| w[0].0 < w[1].0));

    let state = build_1d_state(rank, p, &arcs, &flows, inv_two_w);
    MergeOutcome {
        state,
        dense,
        contracted,
    }
}

fn dense_of(dense: &HashMap<u64, u32, IdBuild>, module: u64) -> u32 {
    *dense
        .get(&module)
        .unwrap_or_else(|| panic!("module {module} missing from dense relabeling"))
}

/// Re-point original-vertex assignments through one merge level: each
/// current value is a level vertex owned by `value % p`, whose module the
/// merge kept in `level`.
///
/// One *migration* alltoallv: the `(vertex, current)` pairs travel to the
/// owner, which rewrites and **keeps** them. Assignments thereby change
/// rank between levels, which is safe because every consumer (the final
/// allgatherv assembly, checkpoint snapshots, degraded-output union) is
/// agnostic to where a pair lives.
fn refresh_assignments(
    comm: &mut Comm,
    level: &ContractedLevel,
    dense: &HashMap<u64, u32, IdBuild>,
    assign: &mut Vec<(u32, u32)>,
) {
    let p = comm.size();
    let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
    for &(v, current) in assign.iter() {
        buckets[(current as usize) % p].push((v, current));
    }
    // Sorted buckets delta-compress well; order is otherwise free.
    for bucket in &mut buckets {
        bucket.sort_unstable();
    }
    let mut enc = 0u64;
    let outgoing: Vec<Vec<u8>> = buckets
        .iter()
        .map(|b| {
            let mut buf = Vec::new();
            if !b.is_empty() {
                codec::encode_pairs(&mut buf, b);
                enc += buf.len() as u64;
            }
            buf
        })
        .collect();
    comm.add_codec_bytes(enc);
    let incoming = comm.alltoallv(outgoing);
    assign.clear();
    let mut dec = 0u64;
    for (src, buf) in incoming.iter().enumerate() {
        if buf.is_empty() {
            continue;
        }
        dec += buf.len() as u64;
        codec::for_each_pair(buf, &mut 0, |(v, current)| {
            let module =
                (level.module_of(current)).expect("an assignment names a level vertex owned here");
            assign.push((v, dense_of(dense, module)));
        })
        .unwrap_or_else(|e| panic!("assignment migration: pairs from rank {src}: {e}"));
    }
    comm.add_work(assign.len() as u64);
    comm.add_codec_bytes(dec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{build_stage1_states, VertexKind};
    use infomap_partition::{DelegateThreshold, Partition};
    use std::sync::Mutex as StdMutex;

    /// Debug reproduction: after stage 1 and the first merge, check that
    /// (a) every rank's ghost assignment matches the owner's assignment and
    /// (b) the merged arc sets are globally symmetric.
    #[test]
    fn stage1_merge_produces_symmetric_level() {
        let (g, _) = generators::lfr_like(
            generators::LfrParams {
                n: 400,
                ..Default::default()
            },
            11,
        );
        let cfg = DistributedConfig {
            nranks: 3,
            ..Default::default()
        };
        let p = cfg.nranks;
        let partition = Partition::delegate(&g, p, cfg.threshold, cfg.rebalance);
        let states = build_stage1_states(&g, &partition);
        let node_term = node_term(
            (0..g.num_vertices() as VertexId).map(|v| g.strength(v)),
            g.total_weight(),
        );
        let delegates = partition.delegates.clone();

        // (rank, owned `(vertex, module)` pairs, ghost `(vertex, owner, module)` views)
        type RankView = (usize, Vec<(u32, u64)>, Vec<(u32, u32, u64)>);
        let collected: StdMutex<Vec<RankView>> = StdMutex::new(Vec::new());
        infomap_mpisim::World::new(p).run(|comm| {
            let mut st = states[comm.rank()].clone();
            let mut delegate_assign: BTreeMap<u32, u64> =
                delegates.iter().map(|&d| (d, d as u64)).collect();
            let _s1 = cluster_stage(comm, &mut st, &cfg, node_term, &mut delegate_assign, "s1/");
            // Record each rank's view: owned assignments and ghost views.
            let mut owned: Vec<(u32, u64)> = Vec::new();
            let mut ghosts: Vec<(u32, u32, u64)> = Vec::new();
            for (li, &v) in st.verts.iter().enumerate() {
                match st.kind(li as u32) {
                    VertexKind::Owned => owned.push((v, st.module_id_of(li))),
                    VertexKind::Ghost => {
                        ghosts.push((st.rank as u32, v, st.module_id_of(li)))
                    }
                    VertexKind::DelegateCopy => owned.push((v, st.module_id_of(li))),
                }
            }
            collected.lock().unwrap().push((st.rank, owned, ghosts));

            // Original-arc symmetry at stage 1: every stored arc (u,v)
            // must have its mirror (v,u) stored on some rank.
            let my0: Vec<(u32, u32)> = (0..st.verts.len() as u32)
                .filter(|&li| st.kind(li) != VertexKind::Ghost)
                .flat_map(|li| {
                    let src = st.verts[li as usize];
                    st.arcs_of(li)
                        .map(|(t, _)| (src, st.verts[t as usize]))
                        .collect::<Vec<_>>()
                })
                .collect();
            let all0 = comm.allgatherv(my0);
            let mut counts: std::collections::HashMap<(u32, u32), i32> =
                std::collections::HashMap::new();
            for &(a, b) in all0.iter() {
                *counts.entry((a, b)).or_insert(0) += 1;
            }
            for (&(a, b), &c) in counts.iter() {
                if a != b {
                    let rc = counts.get(&(b, a)).copied().unwrap_or(0);
                    assert_eq!(
                        c, rc,
                        "original arc ({a},{b}) count {c} vs mirror count {rc}"
                    );
                }
            }

            // Go one level deeper: merge, then inspect the level-1 state.
            let merge = distributed_merge(comm, st);
            let st1 = merge.state;
            // Global symmetry check of level-1 arcs.
            let my_arcs: Vec<(u32, u32)> = (0..st1.verts.len() as u32)
                .filter(|&li| st1.kind(li) != VertexKind::Ghost)
                .flat_map(|li| {
                    let src = st1.verts[li as usize];
                    st1.arcs_of(li)
                        .map(|(t, _)| (src, st1.verts[t as usize]))
                        .collect::<Vec<_>>()
                })
                .collect();
            let all_arcs = comm.allgatherv(my_arcs);
            let set: std::collections::HashSet<(u32, u32)> =
                all_arcs.iter().copied().collect();
            for &(a, b) in set.iter() {
                assert!(
                    set.contains(&(b, a)),
                    "level-1 arc ({a},{b}) has no mirror ({b},{a})"
                );
            }
            // Subscriber completeness: for every ghost on this rank, the
            // owner must list this rank.
            let ghost_list: Vec<(u32, u32)> = (0..st1.verts.len() as u32)
                .filter(|&li| st1.kind(li) == VertexKind::Ghost)
                .map(|li| (st1.rank as u32, st1.verts[li as usize]))
                .collect();
            let all_ghosts = comm.allgatherv(ghost_list);
            for &(r, v) in all_ghosts.iter() {
                if st1.rank == (v as usize) % cfg.nranks {
                    let subscribers = crate::state::tests::subscriber_lists(&st1);
                    let listed = subscribers
                        .iter()
                        .any(|(sv, subs)| *sv == v && subs.contains(&(r as usize)));
                    assert!(
                        listed,
                        "owner rank {} does not list subscriber {r} for vertex {v}; subscribers: {:?}",
                        st1.rank,
                        subscribers.iter().find(|(sv, _)| *sv == v)
                    );
                }
            }
        });

        let data = collected.lock().unwrap();
        let mut truth: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for (_, owned, _) in data.iter() {
            for &(v, m) in owned {
                let prev = truth.insert(v, m);
                if let Some(prev) = prev {
                    assert_eq!(prev, m, "vertex {v} has conflicting owner/delegate views");
                }
            }
        }
        for (_, _, ghosts) in data.iter() {
            for &(rank, v, m) in ghosts {
                assert_eq!(
                    truth.get(&v),
                    Some(&m),
                    "rank {rank}: ghost {v} stale (sees {m}, truth {:?})",
                    truth.get(&v)
                );
            }
        }
    }
    use infomap_core::sequential::{Infomap, InfomapConfig};
    use infomap_graph::generators;

    #[test]
    fn level1_states_after_one_merge_match_the_recording() {
        use crate::state::tests::{construction_graphs, fingerprint, fold_words};
        // (graph, p) → FNV over the ranks' level-1 state fingerprints after
        // stage 1 and the first merge, recorded at the parent commit.
        const RECORDED: [[u64; 5]; 2] = [
            [
                0xfa615fa41a5798e9,
                0x3d65cb684a960d2e,
                0x11d17567c455c062,
                0x7214e68883eff46b,
                0xf8e0a590ac918f1a,
            ],
            [
                0x38af399dde1ed662,
                0xad70ba97b509ec73,
                0x781e4925e751826e,
                0x1ec84f8ed4ef34d1,
                0xbe328f7bfd3162ce,
            ],
        ];
        for (gi, (name, g)) in construction_graphs().iter().enumerate() {
            for (pi, p) in [1usize, 2, 3, 4, 7].into_iter().enumerate() {
                let cfg = DistributedConfig {
                    nranks: p,
                    seed: 5,
                    ..Default::default()
                };
                let program = RankProgram::prepare(cfg, g);
                let report = World::new(p).run(|comm| {
                    let mut st = program.prepared_state(comm.rank()).unwrap();
                    let mut delegate_assign: BTreeMap<u32, u64> =
                        program.delegates.iter().map(|&d| (d, d as u64)).collect();
                    let node_term = program.node_term;
                    cluster_stage(comm, &mut st, &cfg, node_term, &mut delegate_assign, "s1/");
                    let merge = distributed_merge(comm, st);
                    assert!(
                        merge.dense.len() < g.num_vertices(),
                        "stage 1 merged nothing"
                    );
                    fingerprint(&merge.state)
                });
                let all = fold_words(report.results);
                assert_eq!(all, RECORDED[gi][pi], "{name} p={p}: {all:#018x}");
            }
        }
    }

    /// 48 vertices in 12 blocks of four, every weight one of {0.1, 0.2,
    /// 0.3} (no two of which add exactly, so the order of a sum shows in
    /// its bits), drawn by a fixed LCG — no `rand`, the recording holds
    /// anywhere. Four hubs touch everyone and become delegates, so one
    /// module pair's arcs sit on several ranks.
    fn order_visible_graph() -> infomap_graph::Graph {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let mut edges = Vec::new();
        for u in 0..48u32 {
            for v in u + 1..48 {
                if u < 4 || draw(3) == 0 {
                    edges.push((u, v, [0.1, 0.2, 0.3][draw(3) as usize]));
                }
            }
        }
        infomap_graph::Graph::from_edges(48, &edges)
    }

    #[test]
    fn merge_sums_equal_keys_in_arc_order_then_rank_order() {
        use crate::state::tests::{fingerprint, fold_words, per_vertex};
        // (p) → FNV over the ranks' (adj_w, node_flow, out_flow) bits and
        // whole-state fingerprints at level 1, recorded at the parent.
        const RECORDED: [(usize, u64); 2] = [(2, 0xe0d74101b9c62071), (4, 0x5076738f5111d0b7)];
        let g = order_visible_graph();
        let node_term = node_term((0..48).map(|v| g.strength(v)), g.total_weight());
        for (p, recorded) in RECORDED {
            let partition = Partition::delegate(&g, p, DelegateThreshold::Fixed(32), true);
            assert_eq!(partition.delegates, [0, 1, 2, 3]);
            let states = build_stage1_states(&g, &partition);
            let report = World::new(p).run(|comm| {
                let mut st = states[comm.rank()].clone();
                // Block b is module 4b, on every rank's view at once.
                for li in 0..st.verts.len() {
                    let slot = st.intern_module((st.verts[li] / 4 * 4) as u64);
                    st.move_vertex(li, slot, 1);
                }
                let mut bufs = crate::rounds::RoundBuffers::new(p);
                crate::rounds::sync_modules(comm, &mut st, node_term, true, &mut bufs);
                let merge = distributed_merge(comm, st);
                assert_eq!(merge.dense.len(), 12);
                let l1 = merge.state;
                let multi = (0..l1.verts.len() as u32).any(|li| l1.arcs_of(li).count() > 1);
                assert!(multi || l1.movable().is_empty());
                // Flows per local vertex, as recorded (ghosts read zero).
                let (node_flow, out_flow) = (
                    per_vertex(&l1, &l1.node_flow),
                    per_vertex(&l1, &l1.out_flow),
                );
                let bits = (l1.adj_w.iter())
                    .chain(&node_flow)
                    .chain(&out_flow)
                    .map(|f| f.to_bits());
                fold_words(bits.chain([fingerprint(&l1)]))
            });
            let all = fold_words(report.results);
            assert_eq!(all, recorded, "p={p}: {all:#018x}");
        }
    }

    #[test]
    fn fold_arcs_is_stable_so_a_sum_keeps_its_input_order() {
        let arc = |src, dst, weight| MergedArc { src, dst, weight };
        // Three keys, five parts each, in one interleaving...
        let keys = [(0u32, 1u32), (0, 2), (5, 0)];
        let w = [0.1, 0.2, 0.3, 0.3, 0.1, 0.2, 0.2];
        let parts = |k: usize| (0..5).map(move |i| w[(2 * k + i) % 7]);
        let round_robin: Vec<MergedArc> = (0..5)
            .flat_map(|i| (0..3).rev().map(move |k| (k, i)))
            .map(|(k, i)| arc(keys[k].0, keys[k].1, w[(2 * k + i) % 7]))
            .collect();
        // ...and key by key: equal keys enter in the same relative order.
        let by_key: Vec<MergedArc> = (0..3)
            .flat_map(|k| parts(k).map(move |x| arc(keys[k].0, keys[k].1, x)))
            .collect();
        let bits = |arcs: Vec<MergedArc>| -> Vec<(u32, u32, u64)> {
            (fold_arcs(arcs).iter())
                .map(|a| (a.src, a.dst, a.weight.to_bits()))
                .collect()
        };
        let want: Vec<(u32, u32, u64)> = (0..3)
            .map(|k| {
                (
                    keys[k].0,
                    keys[k].1,
                    parts(k).fold(0.0, |s, x| s + x).to_bits(),
                )
            })
            .collect();
        assert_eq!(bits(round_robin.clone()), want);
        assert_eq!(bits(by_key), want);
        // The order is visible: the same parts entering backwards give at
        // least one key other bits, which an unstable sort would be free
        // to produce above.
        let backwards: Vec<MergedArc> = round_robin.into_iter().rev().collect();
        assert_ne!(bits(backwards), want);
    }

    #[test]
    fn received_arcs_end_their_delegate_rows_and_target_only_delegates_have_none() {
        // A delegate row of a prepared state is its pre-rebalance row's
        // prefix (the arcs not shipped), then the arcs received for it in
        // source-rank order, each source's in its pop order: its row's
        // tail, last first. A delegate the rank's arcs touch only as a
        // target keeps an empty row.
        use infomap_graph::datasets::DatasetId;
        let (g, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 7);
        let (mut extended, mut target_only) = (0, 0);
        for p in [2usize, 3, 4, 7] {
            let threshold = DistributedConfig::default().threshold;
            let pre = Partition::delegate(&g, p, threshold, false);
            let pre_row = |r: usize, d: u32| -> Vec<(u32, u64)> {
                (pre.arcs[r].iter().filter(|a| a.src == d))
                    .map(|a| (a.dst, a.weight.to_bits()))
                    .collect()
            };
            for rebalance in [false, true] {
                let cfg = DistributedConfig {
                    nranks: p,
                    rebalance,
                    ..Default::default()
                };
                let program = RankProgram::prepare(cfg, &g);
                for r in 0..p {
                    let st = program.prepared_state(r).expect("a prepared state");
                    let targets: Vec<u32> = st.adj_tgt.clone();
                    for li in st.delegates_from..st.ghosts_from {
                        let d = st.verts[li as usize];
                        let row: Vec<(u32, u64)> = (st.arcs_of(li))
                            .map(|(t, w)| (st.verts[t as usize], w.to_bits()))
                            .collect();
                        if row.is_empty() {
                            assert!(targets.contains(&li), "p={p} rank {r}: {d} untouched");
                            target_only += 1;
                            continue;
                        }
                        let mine = pre_row(r, d);
                        let local = row.iter().zip(&mine).take_while(|(a, b)| a == b).count();
                        let received = &row[local..];
                        assert!(
                            rebalance || local == mine.len() && received.is_empty(),
                            "p={p} rank {r} delegate {d}: a row other than its own"
                        );
                        let by_source = received.chunk_by(|a, b| owner(a.0, p) == owner(b.0, p));
                        let mut last_source = None;
                        for part in by_source {
                            let q = owner(part[0].0, p);
                            assert!(last_source < Some(q), "p={p} rank {r} {d}: source order");
                            last_source = Some(q);
                            let theirs = pre_row(q, d);
                            let at: Vec<usize> = (part.iter())
                                .map(|a| theirs.iter().position(|b| b == a).expect("a row arc"))
                                .collect();
                            let popped = at.windows(2).all(|w| w[0] > w[1]);
                            assert!(popped, "p={p} rank {r} {d}: pop order from {q}");
                        }
                        if local > 0 && received.iter().any(|a| owner(a.0, p) != r) {
                            extended += 1;
                        }
                    }
                }
            }
        }
        assert!(extended > 0, "no rank received arcs for a row it held");
        assert!(target_only > 0, "no delegate was touched only as a target");
    }

    #[test]
    fn a_rank_runs_fresh_once_per_prepared_program() {
        let (g, _) = generators::ring_of_cliques(3, 5, 0);
        let cfg = DistributedConfig {
            nranks: 2,
            ..Default::default()
        };
        let program = RankProgram::prepare(cfg, &g);
        let store = CheckpointStore::new(2);
        let world = World::new(2);
        assert!(program.prepared_state(1).is_some());
        let first = world.run_with_outcomes(|comm| program.run_rank(comm, &store));
        assert!(first.all_completed());
        // The run moved the states out: nothing is left to copy or rerun.
        assert!(program.prepared_state(0).is_none() && program.prepared_state(1).is_none());
        let second = world.run_with_outcomes(|comm| program.run_rank(comm, &store));
        let failures = second.failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        for (rank, msg) in failures {
            let want = format!("rank {rank}: prepared state already taken by a fresh run_rank");
            assert!(msg.contains(&want), "{msg}");
        }
    }

    #[test]
    fn a_plan_naming_a_missing_rank_is_refused() {
        let (g, _) = generators::ring_of_cliques(3, 5, 0);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        });
        for spec in [
            "crash=9@5",
            "straggler=9x4",
            "drop=0.5@7->0",
            "dup=0.5@0->4",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let err = dist.run_with_plan(&g, Some(plan)).unwrap_err();
            assert!(err.contains("but the world has 4 ranks"), "{spec}: {err}");
        }
        let plan = FaultPlan::parse("straggler=3x2;drop=0@*->3").unwrap();
        let out = dist.run_with_plan(&g, Some(plan)).unwrap();
        assert_eq!(out.recovery.attempts, 1);
    }

    #[test]
    fn the_output_exit_flow_prices_its_modularity() {
        use crate::state::tests::construction_graphs;
        use infomap_metrics::{modularity, modularity_from_exit, StrengthProfile};
        // Weighted, self-loops on every third vertex.
        let looped = {
            let (g, _) = generators::ring_of_cliques(5, 6, 0);
            let mut edges: Vec<(u32, u32, f64)> = (g.edges())
                .map(|(u, v, w)| (u, v, w * (1.0 + (u % 3) as f64 / 4.0)))
                .collect();
            edges.extend((0..30).step_by(3).map(|v| (v, v, 0.5 + v as f64 / 8.0)));
            infomap_graph::Graph::from_edges(30, &edges)
        };
        // A complete graph has no modules: the one-module fallback, q = 0.
        let complete = {
            let edges: Vec<(u32, u32, f64)> = (0..12u32)
                .flat_map(|u| (u + 1..12).map(move |v| (u, v, 1.0)))
                .collect();
            infomap_graph::Graph::from_edges(12, &edges)
        };
        let [(_, lfr), (_, uk)] = construction_graphs();
        let mut fallbacks = 0;
        for (name, g) in [
            ("lfr", lfr),
            ("uk2007", uk),
            ("looped", looped),
            ("k12", complete),
        ] {
            for p in 1..=4 {
                let out = DistributedInfomap::new(DistributedConfig {
                    nranks: p,
                    ..Default::default()
                })
                .run(&g);
                let direct = modularity(&g, &out.modules);
                let from_exit =
                    modularity_from_exit(&StrengthProfile::of(&g), &out.modules, out.exit_flow());
                assert!(
                    (direct - from_exit).abs() <= 1e-12,
                    "{name} p={p}: {direct} by the edges, {from_exit} by the exit flow"
                );
                if out.codelength == out.one_level_codelength {
                    assert_eq!(out.exit_flow(), 0.0, "{name} p={p}");
                    fallbacks += 1;
                }
            }
        }
        assert!(fallbacks > 0, "no run fell back to one module");
    }

    #[test]
    fn recovers_ring_of_cliques_on_four_ranks() {
        let (g, truth) = generators::ring_of_cliques(4, 6, 0);
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        })
        .run(&g);
        assert_eq!(out.num_modules(), 4, "trace: {:?}", out.trace);
        for c in 0..4u32 {
            let members: Vec<u32> = (0..24)
                .filter(|&v| truth[v] == c)
                .map(|v| out.modules[v])
                .collect();
            assert!(
                members.windows(2).all(|w| w[0] == w[1]),
                "clique {c}: {members:?}"
            );
        }
    }

    #[test]
    fn single_rank_matches_structure_of_sequential() {
        let (g, _) = generators::planted_partition(6, 12, 0.5, 0.02, 7);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks: 1,
            ..Default::default()
        })
        .run(&g);
        let seq = Infomap::new(InfomapConfig::default()).run(&g);
        // Same ballpark: module counts within a factor of two, MDL close.
        let (a, b) = (dist.num_modules() as f64, seq.num_modules() as f64);
        assert!(a <= 2.0 * b && b <= 2.0 * a, "dist {a} vs seq {b}");
        assert!(
            (dist.codelength - seq.codelength).abs() / seq.codelength < 0.12,
            "dist MDL {} vs seq {}",
            dist.codelength,
            seq.codelength
        );
    }

    #[test]
    fn distributed_mdl_close_to_sequential_on_lfr() {
        let g = crate::state::tests::lfr_graph(600, 3);
        let seq = Infomap::new(InfomapConfig::default()).run(&g);
        let dist = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        })
        .run(&g);
        assert!(dist.codelength < dist.one_level_codelength);
        let rel = (dist.codelength - seq.codelength).abs() / seq.codelength;
        assert!(
            rel < 0.10,
            "distributed MDL {} deviates {rel:.3} from sequential {}",
            dist.codelength,
            seq.codelength
        );
    }

    #[test]
    fn mdl_series_converges_with_bounded_transients() {
        let (g, _) = generators::lfr_like(
            generators::LfrParams {
                n: 400,
                ..Default::default()
            },
            11,
        );
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 3,
            ..Default::default()
        })
        .run(&g);
        let series = out.mdl_series();
        assert!(series.len() >= 2);
        // Moves on one-round-stale remote information may transiently raise
        // the MDL by a whisker (the vertex-bouncing hazard of §3.4); the
        // min-label rule and the sync rounds must keep transients tiny and
        // the overall trend convergent.
        let first = series[0];
        let last = *series.last().unwrap();
        assert!(last < first, "no net improvement: {series:?}");
        for w in series.windows(2) {
            let rise = w[1] - w[0];
            assert!(
                rise <= 0.01 * w[0].abs(),
                "MDL jumped by {rise} (>{}%): {series:?}",
                1.0
            );
        }
        // The final value sits at (or within a hair of) the series minimum.
        let min = series.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            last <= min + 0.01 * min.abs(),
            "did not settle at the minimum: {series:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _) = generators::lfr_like(generators::LfrParams::default(), 2);
        let cfg = DistributedConfig {
            nranks: 3,
            seed: 5,
            ..Default::default()
        };
        let a = DistributedInfomap::new(cfg).run(&g);
        let b = DistributedInfomap::new(cfg).run(&g);
        assert_eq!(a.modules, b.modules);
        assert_eq!(a.codelength, b.codelength);
    }

    #[test]
    fn phases_are_metered() {
        let (g, _) = generators::ring_of_cliques(6, 5, 0);
        let out = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        })
        .run(&g);
        for s in &out.rank_stats {
            assert!(
                s.phases.contains_key("s1/FindBestModule"),
                "phases: {:?}",
                s.phases.keys()
            );
            assert!(s.phases.contains_key("s1/Other"));
        }
        let total_work: u64 = out.rank_stats.iter().map(|s| s.total.work_units).sum();
        assert!(total_work > 0);
    }
}
