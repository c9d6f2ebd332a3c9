//! Fixture UI tests: one deliberately-bad snippet per rule, asserting the
//! rule fires at the expected line, plus a known-good fixture that must be
//! clean, plus a self-test that the real workspace is lint-clean under the
//! checked-in allowlist.

use std::path::Path;

use spmd_lint::{lint_source, lint_source_with, Allowlist, CheckpointSpec, Diagnostic, Rule};

/// Lint a fixture as if it lived in `infomap-distributed` (in scope for
/// every rule).
fn lint_fixture(name: &str, src: &str) -> Vec<Diagnostic> {
    lint_source("infomap-distributed", Path::new(name), src)
}

/// The findings for `rule`, as `(line, snippet)` pairs.
fn hits(diags: &[Diagnostic], rule: Rule) -> Vec<(u32, &str)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.snippet.as_str()))
        .collect()
}

#[test]
fn r1_flags_collectives_under_rank_conditionals() {
    let diags = lint_fixture("bad_r1.rs", include_str!("fixtures/bad_r1.rs"));
    let r1 = hits(&diags, Rule::DivergentCollective);
    assert_eq!(
        r1.len(),
        2,
        "both the if-branch and else-branch collectives: {diags:#?}"
    );
    assert_eq!(r1[0].0, 6, "barrier under `if c.rank() == 0`");
    assert!(
        r1[0].1.contains("c.barrier()"),
        "snippet must show the call: {:?}",
        r1[0].1
    );
    assert_eq!(r1[1].0, 14, "allreduce in the else of a rank-keyed if");
    assert!(r1[1].1.contains("allreduce_u64"));
}

#[test]
fn r2_flags_hash_iteration() {
    let diags = lint_fixture("bad_r2.rs", include_str!("fixtures/bad_r2.rs"));
    let r2 = hits(&diags, Rule::UnorderedIteration);
    assert_eq!(r2.len(), 1, "exactly the for-loop head: {diags:#?}");
    assert_eq!(r2[0].0, 8);
    assert!(r2[0].1.contains("adj.iter()"));
}

#[test]
fn r2_sees_a_map_through_a_custom_hasher_parameter() {
    // `HashMap<K, V, IdBuild>` — how infomap-distributed spells its
    // id-keyed maps — must be tracked like `HashMap<K, V>`.
    let diags = lint_fixture(
        "bad_r2_custom_hasher.rs",
        include_str!("fixtures/bad_r2_custom_hasher.rs"),
    );
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let r2 = hits(&diags, Rule::UnorderedIteration);
    assert_eq!(r2[0].0, 12);
    assert!(r2[0].1.contains("for (k, v) in &m"));
}

#[test]
fn r2_flags_a_float_fold_in_hash_order_at_the_loop_head() {
    let diags = lint_fixture("bad_r5.rs", include_str!("fixtures/bad_r5.rs"));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let r2 = hits(&diags, Rule::UnorderedIteration);
    assert_eq!(r2[0].0, 8, "the loop head, not the `total += f` line");
    assert!(r2[0].1.contains("for f in flows.values()"));
}

#[test]
fn r2_catches_a_shuffled_slice_merge() {
    // The slice-parallel sweep's merge contract (DESIGN.md §6 note 16):
    // folding per-worker partials in hash order is the mutant R2 must
    // catch; the fixed-slice-order fold lives in `good.rs`
    // (`merge_slices_in_order`) and must stay clean.
    let diags = lint_fixture(
        "bad_r5_slice_merge.rs",
        include_str!("fixtures/bad_r5_slice_merge.rs"),
    );
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let r2 = hits(&diags, Rule::UnorderedIteration);
    assert_eq!(r2[0].0, 11, "the head of the loop holding `mdl += partial`");
    assert!(r2[0].1.contains("by_worker.values()"));
}

#[test]
fn r6_flags_transitive_divergence_with_a_witness_chain() {
    let diags = lint_fixture("bad_r6.rs", include_str!("fixtures/bad_r6.rs"));
    let r6 = hits(&diags, Rule::DivergentCollectiveTransitive);
    assert_eq!(
        r6.len(),
        2,
        "both arm calls contribute to the divergence: {diags:#?}"
    );
    assert_eq!(r6[0].0, 16, "the sync_all(c) call in the rank-keyed if");
    assert_eq!(r6[1].0, 18, "the publish(c, x) call in the else arm");
    let d = diags
        .iter()
        .find(|d| d.rule == Rule::DivergentCollectiveTransitive)
        .unwrap();
    assert!(
        d.message.contains("sync_all") && d.message.contains("barrier"),
        "message must carry the call chain witness: {}",
        d.message
    );
    assert_eq!(
        d.fn_name.as_deref(),
        Some("step"),
        "diagnostic must be attributed to the enclosing fn"
    );
}

#[test]
fn r6_symmetric_transitive_arms_are_clean() {
    let diags = lint_fixture("good_r6.rs", include_str!("fixtures/good_r6.rs"));
    assert!(
        diags.is_empty(),
        "arms with identical collective shapes must not fire: {diags:#?}"
    );
}

#[test]
fn r6_is_suppressible_by_a_fn_anchored_allow_entry() {
    let toml = r#"
[[allow]]
rule = "R6"
path = "bad_r6.rs"
fn = "step"
justification = "fixture: both arms are claimed equivalent by review"
"#;
    let allow = Allowlist::parse(toml).unwrap();
    let diags = lint_fixture("bad_r6.rs", include_str!("fixtures/bad_r6.rs"));
    for d in diags
        .iter()
        .filter(|d| d.rule == Rule::DivergentCollectiveTransitive)
    {
        assert!(allow.covers(d), "fn-anchored entry must cover {d}");
    }
    assert!(allow.unused().is_empty());
}

#[test]
fn r7_flags_the_field_the_encoder_forgot() {
    let specs = [CheckpointSpec {
        struct_name: "Snap".into(),
        encoder: "encode_snap".into(),
    }];
    let diags = lint_source_with(
        "infomap-distributed",
        Path::new("bad_r7.rs"),
        include_str!("fixtures/bad_r7.rs"),
        &specs,
    );
    let r7 = hits(&diags, Rule::CheckpointCompleteness);
    assert_eq!(r7.len(), 1, "exactly the `stale` field: {diags:#?}");
    assert_eq!(r7[0].0, 8, "flagged at the field declaration");
    assert!(r7[0].1.contains("stale"));

    // The same pair with full coverage is clean.
    let full = r#"
pub struct Snap {
    pub a: u64,
    pub b: f64,
}
fn encode_snap(s: &Snap, out: &mut Vec<u8>) {
    s.a.encode_into(out);
    s.b.encode_into(out);
}
"#;
    let diags = lint_source_with("infomap-distributed", Path::new("good_r7.rs"), full, &specs);
    assert!(
        hits(&diags, Rule::CheckpointCompleteness).is_empty(),
        "{diags:#?}"
    );
}

#[test]
fn r7_takes_the_union_of_section_encoders_and_flags_the_field_in_neither() {
    let lint = |encoder: &str| {
        let specs = [CheckpointSpec {
            struct_name: "Snap".into(),
            encoder: encoder.into(),
        }];
        lint_source_with(
            "infomap-distributed",
            Path::new("bad_r7_sections.rs"),
            include_str!("fixtures/bad_r7_sections.rs"),
            &specs,
        )
    };
    let diags = lint("encode_base, encode_delta");
    let r7 = hits(&diags, Rule::CheckpointCompleteness);
    assert_eq!(r7.len(), 1, "exactly the `stale` field: {diags:#?}");
    assert_eq!(r7[0].0, 9, "flagged at the field declaration");
    assert!(r7[0].1.contains("stale"));
    // Either encoder alone leaves the other section's field uncovered.
    assert_eq!(
        hits(&lint("encode_base"), Rule::CheckpointCompleteness).len(),
        2
    );
    assert_eq!(
        hits(&lint("encode_delta"), Rule::CheckpointCompleteness).len(),
        2
    );
}

#[test]
fn r7_is_suppressible_by_a_contains_anchored_allow_entry() {
    let toml = r#"
[[allow]]
rule = "R7"
path = "bad_r7.rs"
contains = "pub stale: u32"
justification = "fixture: field is rebuilt on decode"
"#;
    let allow = Allowlist::parse(toml).unwrap();
    let specs = [CheckpointSpec {
        struct_name: "Snap".into(),
        encoder: "encode_snap".into(),
    }];
    let diags = lint_source_with(
        "infomap-distributed",
        Path::new("bad_r7.rs"),
        include_str!("fixtures/bad_r7.rs"),
        &specs,
    );
    let d = diags
        .iter()
        .find(|d| d.rule == Rule::CheckpointCompleteness)
        .expect("R7 fires");
    assert!(allow.covers(d));
}

#[test]
fn good_fixture_is_clean() {
    let diags = lint_fixture("good.rs", include_str!("fixtures/good.rs"));
    assert!(
        diags.is_empty(),
        "known-good fixture must produce no findings: {diags:#?}"
    );
}

#[test]
fn rules_are_scoped_to_their_crates() {
    // R2 only bites in the ordered crates; the same hash fold elsewhere
    // (e.g. the bench harness) is out of scope.
    let src = include_str!("fixtures/bad_r5.rs");
    let diags = lint_source("infomap-bench", Path::new("bad_r5.rs"), src);
    assert!(diags.is_empty(), "{diags:#?}");
    // R1 has no crate scope: a rank-keyed barrier is flagged there too.
    let src = include_str!("fixtures/bad_r1.rs");
    let diags = lint_source("infomap-bench", Path::new("bad_r1.rs"), src);
    assert_eq!(hits(&diags, Rule::DivergentCollective).len(), 2);
}

#[test]
fn test_code_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let seen: HashSet<u32> = HashSet::new();
        for v in seen.iter() {}
        if c.rank() == 0 {
            c.barrier();
        }
    }
}
"#;
    let diags = lint_fixture("in_test.rs", src);
    assert!(
        diags.is_empty(),
        "rules must be silent inside #[cfg(test)]: {diags:#?}"
    );
}

#[test]
fn a_test_fn_inside_a_live_impl_is_exempt_and_its_neighbour_is_not() {
    let diags = lint_fixture(
        "test_fn_in_impl.rs",
        include_str!("fixtures/test_fn_in_impl.rs"),
    );
    let r2 = hits(&diags, Rule::UnorderedIteration);
    assert_eq!(r2.len(), 1, "only the live method's loop: {diags:#?}");
    assert_eq!(r2[0].0, 9);
    assert_eq!(diags[0].fn_name.as_deref(), Some("Tally::total"));
}

/// `if`s and `for`s that touch no collective are invisible to the emitted
/// schedule: growing them into a program — beside its collectives, inside
/// its collective loop, in a callee — changes no byte of the artifact.
#[test]
fn collective_free_control_flow_does_not_change_the_schedule() {
    let emit = |src: &str| {
        let files = vec![(Path::new("src/lib.rs").to_path_buf(), src.to_string())];
        let mut analysis = spmd_lint::Analysis::build([("infomap-distributed", files.as_slice())]);
        let entry = spmd_lint::EntrySpec {
            fn_name: "run".into(),
            crate_name: None,
        };
        spmd_lint::Schedule::infer(&mut analysis, &[entry])
            .expect("schedule infers")
            .to_json()
    };
    let plain = r#"
fn settle(c: &mut Comm) -> bool {
    c.allreduce_u64(1, ReduceOp::Min) == 0
}
fn run(c: &mut Comm, n: usize) {
    c.barrier();
    for round in 0..n {
        let done = settle(c);
        if done {
            return;
        }
    }
    c.allgatherv(vec![n]);
}
"#;
    let grown = r#"
fn settle(c: &mut Comm) -> bool {
    for attempt in 0..3 {
        tally(attempt);
    }
    c.allreduce_u64(1, ReduceOp::Min) == 0
}
fn run(c: &mut Comm, n: usize) {
    if n > 3 {
        log(n);
    } else {
        for i in 0..n {
            tally(i);
        }
    }
    c.barrier();
    for round in 0..n {
        if round % 2 == 0 {
            tally(round);
        }
        let done = settle(c);
        if done {
            return;
        }
        while pending() {
            drain();
        }
    }
    c.allgatherv(vec![n]);
}
"#;
    let schedule = emit(plain);
    assert_eq!(schedule, emit(grown));
    // Not vacuous: what can be observed is all still there.
    for node in [
        "\"t\":\"loop\"",
        "\"t\":\"ret\"",
        "\"kind\":\"allreduce_u64\"",
    ] {
        assert!(schedule.contains(node), "{node} missing from {schedule}");
    }
}

/// The checked-in golden schedule is what `--emit-schedule` produces for
/// the driver entry point today. A mismatch means the driver's collective
/// structure changed — an `if` or `for` that reaches a collective or an
/// early return — or the analyzer did. Regenerate with
/// `cargo run -p spmd-lint -- --emit-schedule > crates/spmd-lint/tests/golden/driver_schedule.json`
/// after reviewing the diff, and let the conformance test revalidate it
/// against a real run.
#[test]
fn emitted_schedule_matches_the_golden_artifact() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let allow = Allowlist::load(&root.join("spmd-lint.toml")).expect("allowlist parses");
    let json = spmd_lint::workspace_schedule(&root, &allow)
        .expect("schedule infers")
        .to_json();
    let golden = include_str!("golden/driver_schedule.json");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "driver schedule drifted from the golden artifact — review and regenerate"
    );
}

/// The real workspace must be clean under the checked-in allowlist, and
/// the allowlist must carry no stale entries (one naming a retired rule
/// does not even parse). This makes `cargo test` enforce what CI's lint
/// job enforces.
#[test]
fn workspace_is_clean_under_checked_in_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let allow = Allowlist::load(&root.join("spmd-lint.toml")).expect("allowlist parses");
    let report = spmd_lint::lint_workspace(&root, &allow).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "workspace has non-allowlisted findings:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let unused = allow.unused();
    assert!(
        unused.is_empty(),
        "stale allowlist entries: {:?}",
        unused
            .iter()
            .map(|e| (e.rule, e.path.clone()))
            .collect::<Vec<_>>()
    );
}
