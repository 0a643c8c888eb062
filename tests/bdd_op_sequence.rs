//! BDD operation-sequence pins.
//!
//! The manager's bookkeeping (handle refcounts, traversal memos, the GC
//! mark buffer) is pure representation: it must never change which nodes an
//! operation creates, when the ITE cache hits, or when a collection runs.
//! These tests pin the [`BddUsage`] counters of three fixed runs, so a change
//! that moves a node index, a cache probe or a GC point shows up here as a
//! counter mismatch even when every verdict survives it.
//!
//! Every symbolic frame under a node limit collects *before* it runs, and
//! only when it needs the space (DESIGN §9, "When the symbolic engine
//! collects"). The hybrid pin's GC count and the counters that follow from
//! it record that rule. Test evaluation builds its frames under the same
//! rule, but the managers its pins read never collect: g5378's frames stay
//! far below the limit, and g953's sequence starts with a three-valued
//! prefix whose end the rule decides, then runs in a fresh manager.

use motsim::faults::FaultList;
use motsim::hybrid::HybridConfig;
use motsim::pattern::TestSequence;
use motsim::symbolic::Strategy;
use motsim::testeval::{reference_response, SymbolicOutputSequence, TestVerdict};
use motsim::BddUsage;
use motsim_engine::{EngineKind, Job};

/// The CLI's default seed.
const SEED: u64 = 0xDAC95;

/// `motsim strategies g208 --len 40 --limit 2000 --units 8`, the
/// configuration of the CI trace smoke: the MOT row's BDD usage.
#[test]
fn hybrid_mot_g208_usage_is_pinned() {
    let n = motsim_circuits::suite::by_name("g208").unwrap();
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 40, SEED);
    let three = motsim_engine::run(&Job::new(&n, &seq, faults.as_slice(), EngineKind::Sim3))
        .unwrap()
        .outcome;
    let hard: Vec<_> = three.undetected_faults().collect();
    let config = HybridConfig {
        node_limit: 2_000,
        ..Default::default()
    };
    let mot = motsim_engine::run(
        &Job::new(&n, &seq, &hard, EngineKind::Hybrid(Strategy::Mot, config)).units(8),
    )
    .unwrap()
    .outcome;
    assert_eq!(mot.num_detected(), 2);
    assert_eq!(
        mot.bdd,
        BddUsage {
            peak_live_nodes: 1_117,
            gc_runs: 8,
            cache_hits: 12_490,
            cache_misses: 10_203,
            unique_lookups: 20_187,
            unique_probes: 32_757,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    );
}

/// `motsim testeval g5378`: building the symbolic output sequence, then one
/// evaluation of the fault-free response from the all-zero state.
#[test]
fn testeval_g5378_usage_is_pinned() {
    let n = motsim_circuits::suite::by_name("g5378").unwrap();
    let seq = TestSequence::random(&n, 200, SEED);
    let sos = SymbolicOutputSequence::compute(&n, &seq, Some(30_000));
    assert_eq!((sos.bdd_size(), sos.prefix_len()), (261, 1));
    let built = sos.bdd_usage();
    let good = reference_response(&n, &seq, &vec![false; n.num_dffs()]);
    assert!(matches!(
        sos.evaluate(&good),
        TestVerdict::Consistent { .. }
    ));
    let evaluated = sos.bdd_usage();
    assert_eq!(
        built,
        BddUsage {
            peak_live_nodes: 2_529,
            gc_runs: 0,
            cache_hits: 956,
            cache_misses: 2_756,
            unique_lookups: 2_996,
            unique_probes: 8_844,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    );
    assert_eq!(
        evaluated,
        BddUsage {
            peak_live_nodes: 4_036,
            gc_runs: 0,
            cache_hits: 2_920,
            cache_misses: 7_217,
            unique_lookups: 6_792,
            unique_probes: 19_839,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    );
}

/// `motsim testeval g953`: a prefixed sequence (Table IV's asterisk). Its
/// first five frames run three-valued before the symbolic suffix fits the
/// limit.
#[test]
fn testeval_g953_prefixed_usage_is_pinned() {
    let n = motsim_circuits::suite::by_name("g953").unwrap();
    let seq = TestSequence::random(&n, 200, SEED);
    let sos = SymbolicOutputSequence::compute(&n, &seq, Some(30_000));
    assert_eq!((sos.bdd_size(), sos.prefix_len()), (20, 5));
    let built = sos.bdd_usage();
    let good = reference_response(&n, &seq, &vec![false; n.num_dffs()]);
    assert!(matches!(
        sos.evaluate(&good),
        TestVerdict::Consistent { .. }
    ));
    let evaluated = sos.bdd_usage();
    assert_eq!(
        built,
        BddUsage {
            peak_live_nodes: 56,
            gc_runs: 0,
            cache_hits: 1,
            cache_misses: 28,
            unique_lookups: 96,
            unique_probes: 96,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    );
    assert_eq!(
        evaluated,
        BddUsage {
            peak_live_nodes: 83,
            gc_runs: 0,
            cache_hits: 12,
            cache_misses: 100,
            unique_lookups: 162,
            unique_probes: 162,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    );
}
