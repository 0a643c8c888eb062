//! The cross-engine laws: relational properties every engine combination
//! must satisfy on every [`SimCase`].
//!
//! Each law is a plain function `fn(&SimCase) -> Result<(), String>` so the
//! same list drives `cargo test` (one test per law), the `motsim fuzz` CLI
//! subcommand, and ad-hoc exploration. The laws map directly onto the
//! paper's claims:
//!
//! | law | claim |
//! |-----|-------|
//! | `oracle-agreement` | engine verdicts match the exhaustive `2^m` enumeration |
//! | `strategy-containment` | sim3 ⊆ SOT ⊆ rMOT ⊆ MOT (Definitions 2–3) |
//! | `hybrid-matches-symbolic` | hybrid ≡ symbolic when exact, ⊆ when degraded |
//! | `jobs-invariance` | sharded verdicts and trace streams are worker-count independent |
//! | `units-invariance` | exact verdicts do not depend on the work-unit count |
//! | `reorder-invariance` | variable order and mid-run sifting never change verdicts |
//! | `lemma1-rename-invariance` | `D(x,y)` is invariant under the `y`-block placement (Lemma 1) |
//! | `bench-round-trip` | `.bench` write → parse → write is a fixpoint |
//! | `xred-sound` | `ID_X-red` never discards a three-valued-detectable fault |
//! | `symbolic-refines-sim3` | symbolic values agree with every known three-valued value |
//! | `testeval-exhaustive` | test evaluation accepts exactly the enumerated fault-free responses (Section IV.B) |

use crate::{forall, Config, Counterexample, SimCase};
use motsim::engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig, SymbolicEngine};
use motsim::exhaustive::Oracle;
use motsim::faults::FaultList;
use motsim::hybrid::{HybridConfig, ReorderPolicy};
use motsim::ordering::VarOrder;
use motsim::pattern::TestSequence;
use motsim::sim3::TrueSim;
use motsim::symbolic::{eval_frame_bdd, Strategy, SymbolicFaultSim, SymbolicTrueSim};
use motsim::testeval::{SymbolicOutputSequence, TestVerdict};
use motsim::xred::XRedAnalysis;
use motsim::Fault;
use motsim_bdd::{Bdd, BddManager, VarId};
use motsim_engine::{run_traced, EngineKind, Job};
use motsim_netlist::Netlist;
use motsim_rng::SmallRng;
use motsim_trace::CollectSink;
use std::collections::BTreeMap;

/// One cross-engine law.
#[derive(Debug, Clone, Copy)]
pub struct Law {
    /// Stable kebab-case name (used in test names and CLI output).
    pub name: &'static str,
    /// The property; `Err` carries a human-readable violation message.
    pub run: fn(&SimCase) -> Result<(), String>,
}

/// Every law the fuzzer checks, in a stable order.
pub fn all_laws() -> Vec<Law> {
    vec![
        Law {
            name: "oracle-agreement",
            run: oracle_agreement,
        },
        Law {
            name: "strategy-containment",
            run: strategy_containment,
        },
        Law {
            name: "hybrid-matches-symbolic",
            run: hybrid_matches_symbolic,
        },
        Law {
            name: "jobs-invariance",
            run: jobs_invariance,
        },
        Law {
            name: "units-invariance",
            run: units_invariance,
        },
        Law {
            name: "reorder-invariance",
            run: reorder_invariance,
        },
        Law {
            name: "lemma1-rename-invariance",
            run: lemma1_rename_invariance,
        },
        Law {
            name: "bench-round-trip",
            run: bench_round_trip,
        },
        Law {
            name: "xred-sound",
            run: xred_sound,
        },
        Law {
            name: "symbolic-refines-sim3",
            run: symbolic_refines_sim3,
        },
        Law {
            name: "testeval-exhaustive",
            run: testeval_exhaustive,
        },
    ]
}

/// Result of fuzzing one law.
#[derive(Debug, Clone)]
pub struct LawReport {
    /// The law's name.
    pub law: &'static str,
    /// Cases checked (all passed when `counterexample` is `None`).
    pub cases: usize,
    /// The shrunk failure, if the law was violated.
    pub counterexample: Option<Box<Counterexample<SimCase>>>,
}

/// Runs every law over `config.cases` random cases with at most `max_dffs`
/// flip-flops each; deterministic in `config.seed`.
pub fn fuzz(config: &Config, max_dffs: usize) -> Vec<LawReport> {
    all_laws()
        .into_iter()
        .map(|law| {
            let outcome = forall(
                config,
                law.name,
                |rng: &mut SmallRng| SimCase::generate(rng, max_dffs),
                |case| (law.run)(case),
            );
            match outcome {
                Ok(report) => LawReport {
                    law: law.name,
                    cases: report.cases,
                    counterexample: None,
                },
                Err(cex) => LawReport {
                    law: law.name,
                    cases: config.cases,
                    counterexample: Some(cex),
                },
            }
        })
        .collect()
}

fn fail(s: String) -> Result<(), String> {
    Err(s)
}

fn bdd_err(e: motsim_bdd::BddError) -> String {
    format!("unexpected BDD error: {e}")
}

fn detected(outcome: &motsim::SimOutcome) -> Vec<bool> {
    outcome
        .results
        .iter()
        .map(|r| r.detection.is_some())
        .collect()
}

fn run_engine(
    engine: &dyn FaultSimEngine,
    case: &SimCase,
    config: SimConfig<'_>,
) -> Result<motsim::SimOutcome, String> {
    engine
        .run(&case.netlist, &case.seq, &case.faults, config)
        .map_err(|e| format!("engine failed: {e}"))
}

/// Engine verdicts equal the brute-force enumeration of all `2^m` initial
/// states, strategy by strategy.
fn oracle_agreement(case: &SimCase) -> Result<(), String> {
    let verdicts = Oracle::new()
        .verdicts(&case.netlist, &case.seq, case.faults.iter().copied())
        .map_err(|e| format!("oracle failed: {e}"))?;
    for strategy in Strategy::ALL {
        let outcome = run_engine(&SymbolicEngine, case, SimConfig::new().strategy(strategy))?;
        for (r, v) in outcome.results.iter().zip(&verdicts) {
            let engine_says = r.detection.is_some();
            let oracle_says = match strategy {
                Strategy::Sot => v.sot,
                Strategy::Rmot => v.rmot,
                Strategy::Mot => v.mot,
            };
            if engine_says != oracle_says {
                return fail(format!(
                    "{strategy}: engine says {} but oracle says {} for fault {}",
                    engine_says,
                    oracle_says,
                    r.fault.display(&case.netlist)
                ));
            }
        }
    }
    Ok(())
}

/// Three-valued detection implies SOT implies rMOT implies MOT, fault by
/// fault (the observation-strategy hierarchy of Definitions 2–3).
fn strategy_containment(case: &SimCase) -> Result<(), String> {
    let mut tiers: Vec<(String, Vec<bool>)> = Vec::new();
    let sim3 = run_engine(&Sim3Engine, case, SimConfig::new())?;
    tiers.push(("sim3".into(), detected(&sim3)));
    for strategy in Strategy::ALL {
        let outcome = run_engine(&SymbolicEngine, case, SimConfig::new().strategy(strategy))?;
        tiers.push((strategy.to_string(), detected(&outcome)));
    }
    for pair in tiers.windows(2) {
        let (lo_name, lo) = &pair[0];
        let (hi_name, hi) = &pair[1];
        for (i, (&a, &b)) in lo.iter().zip(hi).enumerate() {
            if a && !b {
                return fail(format!(
                    "fault {} detected by {lo_name} but not by {hi_name}",
                    case.faults[i].display(&case.netlist)
                ));
            }
        }
    }
    Ok(())
}

/// The hybrid engine equals the pure symbolic engine when it never has to
/// degrade, and under a tight node limit its verdicts stay a sound subset.
fn hybrid_matches_symbolic(case: &SimCase) -> Result<(), String> {
    for strategy in Strategy::ALL {
        let exact = run_engine(&SymbolicEngine, case, SimConfig::new().strategy(strategy))?;
        let roomy = run_engine(
            &HybridEngine,
            case,
            SimConfig::new()
                .strategy(strategy)
                .node_limit(Some(1_000_000)),
        )?;
        if roomy.is_approximate() {
            return fail(format!(
                "{strategy}: hybrid degraded under a 1M node limit on a tiny circuit"
            ));
        }
        if exact.results != roomy.results {
            return fail(format!(
                "{strategy}: hybrid (roomy limit) verdicts differ from pure symbolic"
            ));
        }
        let tight = run_engine(
            &HybridEngine,
            case,
            SimConfig::new()
                .strategy(strategy)
                .node_limit(Some(250))
                .fallback_frames(2),
        )?;
        for (t, e) in tight.results.iter().zip(&exact.results) {
            if t.detection.is_some() && e.detection.is_none() {
                return fail(format!(
                    "{strategy}: degraded hybrid claims fault {} that exact symbolic rejects",
                    t.fault.display(&case.netlist)
                ));
            }
        }
        if !tight.is_approximate() && detected(&tight) != detected(&exact) {
            return fail(format!(
                "{strategy}: hybrid never degraded yet its verdicts differ from symbolic"
            ));
        }
    }
    Ok(())
}

/// The sharded engine's merged verdicts *and* its trace stream are
/// byte-identical for every worker count.
fn jobs_invariance(case: &SimCase) -> Result<(), String> {
    let engines = [
        EngineKind::Sim3,
        EngineKind::Hybrid(
            Strategy::Mot,
            HybridConfig {
                node_limit: 2_000,
                fallback_frames: 4,
                reorder: ReorderPolicy::None,
            },
        ),
    ];
    for engine in engines {
        let mut runs = Vec::new();
        for jobs in [1usize, 4] {
            let job = Job::new(&case.netlist, &case.seq, &case.faults, engine)
                .jobs(jobs)
                .units(3);
            let mut sink = CollectSink::new();
            let result = run_traced(&job, &mut sink).map_err(|e| format!("job failed: {e}"))?;
            runs.push((result.outcome, sink.to_jsonl()));
        }
        let (a_out, a_trace) = &runs[0];
        let (b_out, b_trace) = &runs[1];
        if a_out.results != b_out.results {
            return fail(format!("{engine:?}: verdicts depend on the worker count"));
        }
        if a_trace != b_trace {
            return fail(format!(
                "{engine:?}: trace streams differ between --jobs 1 and --jobs 4"
            ));
        }
    }
    Ok(())
}

/// Exact SOT, rMOT and MOT verdicts (fault, frame and output) are the same
/// for one work unit as for `k` of them, with `k` in `2..=8` drawn from the
/// case's sequence seed: each unit runs in a fresh manager, and an exact
/// verdict must not depend on which faults share it.
fn units_invariance(case: &SimCase) -> Result<(), String> {
    let k = 2 + (case.params.seq_seed % 7) as usize;
    for strategy in Strategy::ALL {
        let engine = EngineKind::Symbolic(strategy);
        let job = Job::new(&case.netlist, &case.seq, &case.faults, engine);
        let run = |units| {
            motsim_engine::run(&job.units(units))
                .map(|r| r.outcome.results)
                .map_err(|e| format!("job failed: {e}"))
        };
        if run(1)? != run(k)? {
            return fail(format!(
                "{strategy}: verdicts differ between 1 and {k} work unit(s)"
            ));
        }
    }
    Ok(())
}

/// Verdicts are independent of the BDD variable order, including a sifting
/// pass in the middle of the run.
fn reorder_invariance(case: &SimCase) -> Result<(), String> {
    for strategy in Strategy::ALL {
        let baseline = SymbolicFaultSim::new(&case.netlist, strategy)
            .run(&case.seq, case.faults.iter().copied())
            .map_err(bdd_err)?;
        for (order_name, order) in [
            ("dfs", VarOrder::dfs(&case.netlist)),
            ("connectivity", VarOrder::connectivity(&case.netlist)),
        ] {
            let mut sim = SymbolicFaultSim::with_order(&case.netlist, strategy, &order);
            for &f in &case.faults {
                sim.add_fault(f);
            }
            let mid = case.seq.len() / 2;
            for (t, vector) in case.seq.iter().enumerate() {
                if t == mid {
                    sim.reorder_sift();
                }
                sim.step(vector).map_err(bdd_err)?;
            }
            let outcome = sim.outcome();
            if outcome.results != baseline.results {
                return fail(format!(
                    "{strategy}: verdicts changed under the {order_name} order with mid-run sifting"
                ));
            }
        }
    }
    Ok(())
}

/// Which variable block encodes the faulty machine's initial state.
#[derive(Clone, Copy)]
enum YAlloc {
    /// `x_i = v_{2i}`, `y_i = v_{2i+1}` (the engine's interleaving).
    Interleaved,
    /// `x_i = v_i`, `y_i = v_{m+i}` (a fresh block after all `x`).
    Blocked,
}

/// Computes MOT detectability of a stem fault from first principles:
/// `D(x,y) = ∏_t ∏_j [o_j(x,t) ≡ o_j^f(y,t)]`, detected iff `D ≡ 0`.
fn direct_mot_detected(
    netlist: &Netlist,
    seq: &TestSequence,
    fault: Fault,
    alloc: YAlloc,
) -> Result<bool, String> {
    let m = netlist.num_dffs();
    let mgr = BddManager::with_vars(2 * m);
    let (xv, yv): (Vec<VarId>, Vec<VarId>) = match alloc {
        YAlloc::Interleaved => (
            (0..m).map(|i| VarId::from_index(2 * i)).collect(),
            (0..m).map(|i| VarId::from_index(2 * i + 1)).collect(),
        ),
        YAlloc::Blocked => (
            (0..m).map(VarId::from_index).collect(),
            (0..m).map(|i| VarId::from_index(m + i)).collect(),
        ),
    };
    let mut good: Vec<Bdd> = xv.iter().map(|&v| mgr.var(v)).collect();
    let mut bad: Vec<Bdd> = yv.iter().map(|&v| mgr.var(v)).collect();
    let mut det = mgr.one();
    for inputs in seq {
        let gvals = eval_frame_bdd(netlist, &mgr, &good, inputs, None).map_err(bdd_err)?;
        let bvals = eval_frame_bdd(netlist, &mgr, &bad, inputs, Some(fault)).map_err(bdd_err)?;
        for &o in netlist.outputs() {
            let term = gvals[o.index()].equiv(&bvals[o.index()]).map_err(bdd_err)?;
            det = det.and(&term).map_err(bdd_err)?;
            if det.is_false() {
                return Ok(true);
            }
        }
        good = netlist
            .dffs()
            .iter()
            .map(|&q| gvals[netlist.dff_d(q).index()].clone())
            .collect();
        bad = netlist
            .dffs()
            .iter()
            .map(|&q| bvals[netlist.dff_d(q).index()].clone())
            .collect();
    }
    Ok(det.is_false())
}

/// Lemma 1: the detection function `D(x,y)` (hence the verdict) does not
/// depend on where the fresh `y` variable block is allocated. Checked by
/// rebuilding `D` from first principles under an interleaved and a blocked
/// allocation and comparing both against the engine's MOT verdict.
fn lemma1_rename_invariance(case: &SimCase) -> Result<(), String> {
    let stems: Vec<Fault> = case
        .faults
        .iter()
        .filter(|f| f.lead.is_stem())
        .take(3)
        .copied()
        .collect();
    if stems.is_empty() {
        return Ok(());
    }
    let engine = SymbolicFaultSim::new(&case.netlist, Strategy::Mot)
        .run(&case.seq, stems.iter().copied())
        .map_err(bdd_err)?;
    for (r, &fault) in engine.results.iter().zip(&stems) {
        let interleaved =
            direct_mot_detected(&case.netlist, &case.seq, fault, YAlloc::Interleaved)?;
        let blocked = direct_mot_detected(&case.netlist, &case.seq, fault, YAlloc::Blocked)?;
        if interleaved != blocked {
            return fail(format!(
                "D(x,y) verdict for fault {} depends on the y-block allocation \
                 (interleaved={interleaved}, blocked={blocked})",
                fault.display(&case.netlist)
            ));
        }
        if r.detection.is_some() != interleaved {
            return fail(format!(
                "engine MOT verdict {} disagrees with direct D(x,y) computation {} \
                 for fault {}",
                r.detection.is_some(),
                interleaved,
                fault.display(&case.netlist)
            ));
        }
    }
    Ok(())
}

/// `.bench` export is a parse/write fixpoint and preserves all counts.
fn bench_round_trip(case: &SimCase) -> Result<(), String> {
    let text = motsim_netlist::write::to_bench(&case.netlist);
    let reparsed = motsim_netlist::parse::parse_bench(case.netlist.name(), &text)
        .map_err(|e| format!("generated netlist failed to reparse: {e}"))?;
    let counts = |n: &Netlist| {
        (
            n.num_inputs(),
            n.num_outputs(),
            n.num_dffs(),
            n.num_gates(),
            n.num_nets(),
        )
    };
    if counts(&case.netlist) != counts(&reparsed) {
        return fail(format!(
            "counts changed across round-trip: {:?} vs {:?}",
            counts(&case.netlist),
            counts(&reparsed)
        ));
    }
    let again = motsim_netlist::write::to_bench(&reparsed);
    if text != again {
        return fail("to_bench(parse_bench(to_bench(n))) is not a fixpoint".into());
    }
    Ok(())
}

/// `ID_X-red` is sound: no fault it discards is detected by the
/// three-valued simulator on the same sequence.
fn xred_sound(case: &SimCase) -> Result<(), String> {
    let complete: Vec<Fault> = FaultList::complete(&case.netlist).into_iter().collect();
    let analysis = XRedAnalysis::analyze(&case.netlist, &case.seq);
    let (red, _rest) = analysis.partition(complete.iter().copied());
    let outcome = Sim3Engine
        .run(&case.netlist, &case.seq, &complete, SimConfig::new())
        .map_err(|e| format!("engine failed: {e}"))?;
    let detected: std::collections::BTreeSet<Fault> = outcome.detected_faults().collect();
    for f in &red {
        if detected.contains(f) {
            return fail(format!(
                "ID_X-red discarded fault {} although sim3 detects it",
                f.display(&case.netlist)
            ));
        }
    }
    Ok(())
}

/// Wherever three-valued simulation knows a value, the symbolic simulator
/// computes the same constant (symbolic refines `X01`).
fn symbolic_refines_sim3(case: &SimCase) -> Result<(), String> {
    let mut tv = TrueSim::new(&case.netlist);
    let mut sym = SymbolicTrueSim::new(&case.netlist);
    for (t, vector) in case.seq.iter().enumerate() {
        tv.step(vector);
        sym.step(vector).map_err(bdd_err)?;
        for id in case.netlist.net_ids() {
            if let Some(known) = tv.value(id).to_bool() {
                let sv = &sym.values()[id.index()];
                if sv.const_value() != Some(known) {
                    return fail(format!(
                        "frame {t}: sim3 knows net {} is {known} but the symbolic \
                         value is not that constant",
                        id.index()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Test evaluation against the enumeration of every initial state (the
/// `u64`-lane kernel of the exhaustive oracle). Without a limit, each
/// fault-free response is consistent with exactly the initial states that
/// produce it, and a response with one or two bits flipped is faulty iff
/// no state produces it, rejected at the first (frame, output) where no
/// state agrees with it so far. Under a limit a few nodes above the
/// literals, which forces a three-valued prefix on about half the cases,
/// a response is rejected only if no state produces it, and never before
/// that first (frame, output).
fn testeval_exhaustive(case: &SimCase) -> Result<(), String> {
    let (netlist, seq) = (&case.netlist, &case.seq);
    let matrix = Oracle::new()
        .response_matrix(netlist, seq, None)
        .map_err(|e| format!("oracle failed: {e}"))?;
    let l = netlist.num_outputs();
    // Every produced response, flattened in (frame, output) order, with the
    // number of initial states producing it.
    let mut produced: BTreeMap<Vec<bool>, u128> = BTreeMap::new();
    for p in 0..matrix.num_states() {
        let bits = (0..seq.len() * l)
            .map(|b| matrix.output(p, b / l, b % l))
            .collect();
        *produced.entry(bits).or_default() += 1;
    }
    // The enumeration's verdict: consistent with the producing states, or
    // faulty at the first bit no state agrees with (the longest prefix
    // shared with any produced response is shared with a neighbour in
    // lexicographic order).
    let expected = |bits: &Vec<bool>| {
        if let Some(&witnesses) = produced.get(bits) {
            return TestVerdict::Consistent { witnesses };
        }
        let shared = |other: &Vec<bool>| bits.iter().zip(other).take_while(|(a, b)| a == b).count();
        let before = produced.range(..bits.clone()).next_back();
        let after = produced.range(bits.clone()..).next();
        let agree = before
            .into_iter()
            .chain(after)
            .map(|(r, _)| shared(r))
            .max()
            .unwrap_or(0);
        TestVerdict::Faulty {
            frame: agree / l,
            output: agree % l,
        }
    };
    let frames = |bits: &[bool]| bits.chunks(l).map(<[bool]>::to_vec).collect::<Vec<_>>();
    // Every produced response, then per (frame, output) position and per
    // produced response one corruption of a single bit and one of two.
    let good: Vec<&Vec<bool>> = produced.keys().collect();
    let width = seq.len() * l;
    let corrupted: Vec<Vec<bool>> = (0..width.max(good.len()))
        .flat_map(|k| {
            let mut one = good[k % good.len()].clone();
            one[k % width] ^= true;
            let mut two = one.clone();
            two[(5 * k + 1) % width] ^= true;
            [one, two]
        })
        .collect();
    let exact = SymbolicOutputSequence::compute(netlist, seq, None);
    for bits in good.iter().copied().chain(&corrupted) {
        let (got, want) = (exact.evaluate(&frames(bits)), expected(bits));
        if got != want {
            return fail(format!(
                "response {bits:?}: evaluation says {got:?}, the enumeration {want:?}"
            ));
        }
    }
    let rejected_at = |v| match v {
        TestVerdict::Faulty { frame, output } => Some((frame, output)),
        TestVerdict::Consistent { .. } => None,
    };
    let limited = SymbolicOutputSequence::compute(netlist, seq, Some(netlist.num_dffs() + 2));
    for bits in good.iter().copied().chain(&corrupted) {
        let (got, want) = (limited.evaluate(&frames(bits)), expected(bits));
        let sound = rejected_at(got).is_none_or(|g| rejected_at(want).is_some_and(|w| w <= g));
        if !sound {
            return fail(format!(
                "response {bits:?} after a {}-frame prefix: evaluation says {got:?}, \
                 the enumeration {want:?}",
                limited.prefix_len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn law_list_is_stable() {
        let names: Vec<&str> = all_laws().iter().map(|l| l.name).collect();
        assert_eq!(names.len(), 11);
        assert!(names.contains(&"oracle-agreement"));
        assert!(names.contains(&"units-invariance"));
        assert!(names.contains(&"lemma1-rename-invariance"));
    }

    #[test]
    fn testeval_exhaustive_enumerates_sixteen_flip_flops() {
        let case = SimCase::build(crate::CaseParams {
            family: crate::Family::Random,
            circuit_seed: 7,
            inputs: 3,
            outputs: 3,
            dffs: 16,
            gates: 40,
            frames: 6,
            seq_seed: 7,
            fault_lo: 0,
            fault_len: 0,
        });
        assert_eq!(case.netlist.num_dffs(), 16);
        testeval_exhaustive(&case).unwrap();
    }

    #[test]
    fn every_law_passes_on_a_small_case() {
        let mut rng = SmallRng::seed_from_u64(0xDAC95);
        let case = SimCase::generate(&mut rng, 4);
        for law in all_laws() {
            if let Err(m) = (law.run)(&case) {
                panic!("law {} failed on a known-good case: {m}", law.name);
            }
        }
    }
}
