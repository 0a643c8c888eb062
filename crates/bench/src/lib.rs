//! Shared experiment harness for the `tables` binary.
//!
//! Each `*_row` function reproduces one row of the corresponding paper
//! table; the binary formats them, `EXPERIMENTS.md` records them.

use std::time::{Duration, Instant};

use motsim::faults::FaultList;
use motsim::hybrid::HybridConfig;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::Strategy;
use motsim::testeval::{reference_response, SymbolicOutputSequence};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim_circuits::suite::BenchmarkSpec;
use motsim_netlist::Netlist;

/// Default random-sequence length (the paper's "200 random vectors").
pub const DEFAULT_LEN: usize = 200;
/// Default random seed for sequence generation.
pub const DEFAULT_SEED: u64 = 0xDAC95;

/// One row of Table I (influence of `ID_X-red` on three-valued simulation).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Suite circuit name.
    pub name: &'static str,
    /// ISCAS-89 circuit this row corresponds to.
    pub paper: &'static str,
    /// `|F|`: collapsed fault count.
    pub faults: usize,
    /// `X-red`: faults identified as X-redundant.
    pub x_red: usize,
    /// `|F_d|`: faults detected by three-valued simulation.
    pub detected: usize,
    /// `X01`: three-valued simulation time over the full fault list.
    pub t_x01: Duration,
    /// `X01_p`: simulation time after eliminating X-redundant faults.
    pub t_x01p: Duration,
    /// `ID_X-red` run time.
    pub t_idx: Duration,
}

/// Runs one Table I row with `jobs` worker threads (the verdicts are
/// identical for every `jobs` value; only the times change).
pub fn table1_row(spec: &BenchmarkSpec, len: usize, seed: u64, jobs: usize) -> Table1Row {
    let netlist = (spec.build)();
    let faults = FaultList::collapsed(&netlist);
    let seq = TestSequence::random(&netlist, len, seed);

    let t0 = Instant::now();
    let analysis = XRedAnalysis::analyze(&netlist, &seq);
    let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), jobs);
    let t_idx = t0.elapsed();

    let sim3 = |faults: &[motsim::Fault]| {
        motsim_engine::run(
            &motsim_engine::Job::new(&netlist, &seq, faults, motsim_engine::EngineKind::Sim3)
                .jobs(jobs),
        )
        .expect("three-valued jobs cannot fail")
        .outcome
    };
    let t0 = Instant::now();
    let full = sim3(faults.as_slice());
    let t_x01 = t0.elapsed();

    let t0 = Instant::now();
    let _pruned = sim3(&rest);
    let t_x01p = t0.elapsed();

    Table1Row {
        name: spec.name,
        paper: spec.paper_name,
        faults: faults.len(),
        x_red: red.len(),
        detected: full.num_detected(),
        t_x01,
        t_x01p,
        t_idx,
    }
}

/// Per-strategy cell of Tables II/III.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCell {
    /// Faults the strategy marked detectable (out of `|F_u|`).
    pub detected: usize,
    /// Wall-clock time of the run.
    pub time: Duration,
    /// `true` if the hybrid simulator fell back to three-valued frames
    /// (the paper's asterisk).
    pub approximate: bool,
    /// Peak live-node count across the run's BDD managers — the quantity
    /// the space limit bounds, and what the complement-edge encoding
    /// roughly halves (see EXPERIMENTS.md).
    pub peak_nodes: usize,
}

/// One row of Table II/III (strategy comparison on the hard faults).
#[derive(Debug, Clone)]
pub struct Table23Row {
    /// Suite circuit name.
    pub name: &'static str,
    /// ISCAS-89 circuit this row corresponds to.
    pub paper: &'static str,
    /// Sequence length `|T|`.
    pub seq_len: usize,
    /// `|F|`: collapsed fault count.
    pub faults: usize,
    /// `|F_u|`: faults not classified detected by three-valued simulation
    /// (X-redundant + simulated-but-undetected).
    pub undetected: usize,
    /// SOT / rMOT / MOT cells, in [`Strategy::ALL`] order.
    pub cells: [StrategyCell; 3],
}

/// Runs one Table II/III row for a given sequence with `jobs` worker
/// threads (verdicts identical for every `jobs` value).
pub fn table23_row(
    spec: &BenchmarkSpec,
    seq: &TestSequence,
    config: HybridConfig,
    jobs: usize,
) -> Table23Row {
    let netlist = (spec.build)();
    let faults = FaultList::collapsed(&netlist);
    // |F_u|: everything the three-valued flow leaves open.
    let three = FaultSim3::run(&netlist, seq, faults.iter().cloned());
    let hard: Vec<_> = three.undetected_faults().collect();

    let cells = Strategy::ALL.map(|strategy| {
        let t0 = Instant::now();
        let outcome = motsim_engine::run(
            &motsim_engine::Job::new(
                &netlist,
                seq,
                &hard,
                motsim_engine::EngineKind::Hybrid(strategy, config),
            )
            .jobs(jobs),
        )
        .expect("hybrid jobs cannot fail")
        .outcome;
        StrategyCell {
            detected: outcome.num_detected(),
            time: t0.elapsed(),
            approximate: outcome.is_approximate(),
            peak_nodes: outcome.bdd.peak_live_nodes,
        }
    });

    Table23Row {
        name: spec.name,
        paper: spec.paper_name,
        seq_len: seq.len(),
        faults: faults.len(),
        undetected: hard.len(),
        cells,
    }
}

/// Builds the Table III "deterministic" sequence for a circuit.
pub fn deterministic_sequence(
    netlist: &Netlist,
    faults: &FaultList,
    max_len: usize,
) -> TestSequence {
    tgen::generate(
        netlist,
        faults.iter().cloned(),
        TgenConfig {
            max_len,
            ..TgenConfig::default()
        },
    )
}

/// One row of Table IV (symbolic test evaluation).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Suite circuit name.
    pub name: &'static str,
    /// Primary output count.
    pub outputs: usize,
    /// Sequence length `|T|`.
    pub seq_len: usize,
    /// Shared BDD size of the symbolic output sequence.
    pub bdd_size: usize,
    /// Frames evaluated three-valued before the symbolic part (the
    /// asterisk of the paper's table when non-zero).
    pub prefix: usize,
    /// Time to evaluate one complete device response.
    pub eval_time: Duration,
}

/// Runs one Table IV row.
pub fn table4_row(
    spec: &BenchmarkSpec,
    seq: &TestSequence,
    node_limit: Option<usize>,
) -> Table4Row {
    let netlist = (spec.build)();
    let sos = SymbolicOutputSequence::compute(&netlist, seq, node_limit);
    let response = reference_response(&netlist, seq, &vec![false; netlist.num_dffs()]);
    let t0 = Instant::now();
    let verdict = sos.evaluate(&response);
    let eval_time = t0.elapsed();
    assert!(
        !verdict.is_faulty(),
        "a genuine fault-free response must be accepted"
    );
    Table4Row {
        name: spec.name,
        outputs: netlist.num_outputs(),
        seq_len: seq.len(),
        bdd_size: sos.bdd_size(),
        prefix: sos.prefix_len(),
        eval_time,
    }
}

/// Looks up a suite spec by name.
///
/// # Panics
///
/// Panics if the name is not in the suite.
pub fn spec(name: &str) -> BenchmarkSpec {
    motsim_circuits::suite::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown suite circuit `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_smoke() {
        let r = table1_row(&spec("g27"), 30, 1, 2);
        assert_eq!(r.name, "g27");
        assert!(r.faults > 0);
        assert!(r.detected <= r.faults);
        assert!(r.x_red + r.detected <= r.faults);
    }

    #[test]
    fn table23_row_strategy_order() {
        let s = spec("g208");
        let netlist = (s.build)();
        let seq = TestSequence::random(&netlist, 30, 2);
        let r = table23_row(&s, &seq, HybridConfig::default(), 2);
        assert!(r.cells[0].detected <= r.cells[1].detected, "SOT ≤ rMOT");
        // MOT ≥ rMOT holds when no fallback occurred.
        if !r.cells[2].approximate {
            assert!(r.cells[1].detected <= r.cells[2].detected, "rMOT ≤ MOT");
        }
        assert!(r.undetected <= r.faults);
    }

    #[test]
    fn table4_row_smoke() {
        let s = spec("g208");
        let netlist = (s.build)();
        let seq = TestSequence::random(&netlist, 40, 3);
        let r = table4_row(&s, &seq, Some(30_000));
        assert_eq!(r.outputs, 1);
        assert_eq!(r.seq_len, 40);
        assert!(r.bdd_size > 0 || r.prefix > 0);
    }

    #[test]
    fn deterministic_sequence_is_reproducible() {
        let netlist = (spec("g27").build)();
        let faults = FaultList::collapsed(&netlist);
        let a = deterministic_sequence(&netlist, &faults, 100);
        let b = deterministic_sequence(&netlist, &faults, 100);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown suite circuit")]
    fn unknown_spec_panics() {
        spec("nope");
    }
}
