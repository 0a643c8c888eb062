//! Generative cross-engine law checks, driven by `motsim-check`.
//!
//! Each test runs one law from [`motsim_check::laws::all_laws`] over a
//! batch of random circuit cases — these run in the default offline
//! `cargo test` (the harness and its RNG are in-tree; no external
//! property-testing dependency). On failure the case is shrunk and the
//! panic message carries a self-contained reproducer.

use motsim_check::laws::all_laws;
use motsim_check::{forall, Config, SimCase};

fn run_law(name: &str) {
    let law = all_laws()
        .into_iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("unknown law `{name}`"));
    let config = Config {
        cases: 16,
        ..Config::default()
    };
    if let Err(cex) = forall(
        &config,
        law.name,
        |rng| SimCase::generate(rng, 6),
        |case| (law.run)(case),
    ) {
        panic!(
            "law `{}` violated on case {} (seed {:#x}), shrunk in {} step(s): {}\n\
             reproducer:\n{}",
            cex.law,
            cex.case_index,
            cex.case_seed,
            cex.shrink_steps,
            cex.message,
            cex.shrunk.reproducer()
        );
    }
}

#[test]
fn oracle_agreement() {
    run_law("oracle-agreement");
}

#[test]
fn strategy_containment() {
    run_law("strategy-containment");
}

#[test]
fn hybrid_matches_symbolic() {
    run_law("hybrid-matches-symbolic");
}

#[test]
fn jobs_invariance() {
    run_law("jobs-invariance");
}

#[test]
fn units_invariance() {
    run_law("units-invariance");
}

#[test]
fn reorder_invariance() {
    run_law("reorder-invariance");
}

#[test]
fn lemma1_rename_invariance() {
    run_law("lemma1-rename-invariance");
}

#[test]
fn bench_round_trip() {
    run_law("bench-round-trip");
}

#[test]
fn xred_sound() {
    run_law("xred-sound");
}

#[test]
fn symbolic_refines_sim3() {
    run_law("symbolic-refines-sim3");
}

#[test]
fn testeval_exhaustive() {
    run_law("testeval-exhaustive");
}

/// End-to-end shrinker demonstration: a test-only engine with one flipped
/// verdict is caught by the harness and the failing case is shrunk to a
/// minimal reproducer — at most 8 gates and 4 frames.
#[test]
fn injected_bug_is_caught_and_shrunk() {
    let config = Config { cases: 8, seed: 1 };
    let cex = forall(
        &config,
        "flip-engine-matches-sim3",
        |rng| SimCase::generate(rng, 6),
        motsim_check::demo::flipped_engine_matches_sim3,
    )
    .expect_err("the verdict-flipping engine must be caught");
    assert_eq!(cex.case_index, 0, "the very first case must already fail");
    assert!(cex.shrink_steps > 0, "shrinking must make progress");
    assert!(
        cex.shrunk.netlist.num_gates() <= 8,
        "reproducer still has {} gates:\n{}",
        cex.shrunk.netlist.num_gates(),
        cex.shrunk.reproducer()
    );
    assert!(
        cex.shrunk.seq.len() <= 4,
        "reproducer still has {} frames:\n{}",
        cex.shrunk.seq.len(),
        cex.shrunk.reproducer()
    );
}
