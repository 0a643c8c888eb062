//! `motsim tables`: regenerates the paper's Tables I–IV, the Fig. 1–3
//! walkthroughs and a node-limit sweep.
//!
//! ```text
//! motsim tables table1 [--len N] [--quick]   Table I   (ID_X-red speedup)
//! motsim tables table2 [--len N] [--quick]   Table II  (SOT/rMOT/MOT, random)
//! motsim tables table3 [--quick]             Table III (SOT/rMOT/MOT, deterministic)
//! motsim tables table4 [--len N]             Table IV  (symbolic test evaluation)
//! motsim tables figs                         Fig. 1–3 walkthroughs
//! motsim tables limits [--len N]             node-limit sweep (accuracy/time)
//! motsim tables all [--quick]                everything
//! ```
//!
//! Every table also takes `--seed S` and `--jobs N`; only the time columns
//! depend on `--jobs`. `--quick` trims the circuit lists and, unless `--len`
//! is given, shortens the sequences to 50 vectors, so the whole run takes a
//! couple of minutes; the full run uses the paper's parameters (200 random
//! vectors, 30,000-node limit).

use std::fmt::Display;
use std::time::{Duration, Instant};

use motsim::faults::FaultList;
use motsim::hybrid::HybridConfig;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::{Strategy, SymbolicFaultSim};
use motsim::testeval::{reference_response, SymbolicOutputSequence};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim::{Fault, FaultSimEngine};
use motsim_circuits::figures::{self, Figure};
use motsim_circuits::suite::BenchmarkSpec;
use motsim_netlist::{Lead, Netlist};
use motsim_rng::SmallRng;

use crate::{die, strategy_runs, Opts};

/// Runs `motsim tables <which>`.
pub fn run(which: &str, opts: &Opts) {
    match which {
        "table1" => table1(opts),
        "table2" => table2(opts),
        "table3" => table3(opts),
        "table4" => table4(opts),
        "figs" => figs(),
        "limits" => limits(opts),
        "all" => {
            table1(opts);
            table2(opts);
            table3(opts);
            table4(opts);
            limits(opts);
            figs();
        }
        other => die(&format!("unknown table `{other}`")),
    }
}

/// Right-aligns `s` into a cell of width `w`.
fn cell(s: impl Display, w: usize) -> String {
    format!("{:>w$}", s.to_string(), w = w)
}

/// Formats seconds with the paper's precision (two decimals).
fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// One table line: each value right-aligned in its column's width, the
/// cells separated by one space.
fn row(widths: &[usize], values: &[&dyn Display]) -> String {
    let cells: Vec<String> = widths
        .iter()
        .zip(values)
        .map(|(&w, v)| cell(v, w))
        .collect();
    cells.join(" ")
}

/// Runs `f` and returns its result with the wall-clock time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed())
}

/// Looks up a suite spec by name.
///
/// # Panics
///
/// Panics if the name is not in the suite; the tables name only suite
/// circuits.
fn spec(name: &str) -> BenchmarkSpec {
    motsim_circuits::suite::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown suite circuit `{name}`"))
}

fn table1_names(quick: bool) -> Vec<&'static str> {
    let all = motsim_circuits::suite::table1_names();
    if quick {
        all.into_iter()
            .filter(|n| {
                !matches!(
                    *n,
                    "g5378" | "g9234" | "g13207" | "g15850" | "g35932" | "g38417" | "g38584"
                )
            })
            .collect()
    } else {
        all
    }
}

fn table23_names(quick: bool) -> Vec<&'static str> {
    let all = motsim_circuits::suite::table23_names();
    if quick {
        all.into_iter()
            .filter(|n| !matches!(*n, "g1196" | "g1238" | "g1423" | "g5378"))
            .collect()
    } else {
        all
    }
}

const TABLE1: [usize; 8] = [9, 10, 7, 7, 7, 9, 9, 8];

fn table1(opts: &Opts) {
    println!(
        "\nTable I: influence of ID_X-red on three-valued fault simulation \
         ({} random vectors, seed {})",
        opts.len, opts.seed
    );
    let header: [&dyn Display; 8] = [
        &"Circ.",
        &"(paper)",
        &"|F|",
        &"X-red",
        &"|F_d|",
        &"X01[s]",
        &"X01_p[s]",
        &"IDX[s]",
    ];
    println!("{}", row(&TABLE1, &header));
    for name in table1_names(opts.quick) {
        println!(
            "{}",
            table1_row(&spec(name), opts.len, opts.seed, opts.jobs)
        );
    }
}

/// One Table I row: `|F|`, the X-redundant faults, the faults three-valued
/// simulation detects, and the times of the simulation over all faults
/// (`X01`), over the faults `ID_X-red` leaves (`X01_p`) and of `ID_X-red`.
fn table1_row(spec: &BenchmarkSpec, len: usize, seed: u64, jobs: usize) -> String {
    let netlist = (spec.build)();
    let faults = FaultList::collapsed(&netlist);
    let seq = TestSequence::random(&netlist, len, seed);

    let ((red, rest), t_idx) = timed(|| {
        let analysis = XRedAnalysis::analyze(&netlist, &seq);
        motsim_engine::xred_partition(&analysis, faults.as_slice(), jobs)
    });
    let sim3 = |faults: &[Fault]| {
        motsim_engine::run(
            &motsim_engine::Job::new(&netlist, &seq, faults, motsim_engine::EngineKind::Sim3)
                .jobs(jobs),
        )
        .expect("three-valued jobs cannot fail")
        .outcome
    };
    let (full, t_x01) = timed(|| sim3(faults.as_slice()));
    let (_, t_x01p) = timed(|| sim3(&rest));

    row(
        &TABLE1,
        &[
            &spec.name,
            &spec.paper_name,
            &faults.len(),
            &red.len(),
            &full.num_detected(),
            &secs(t_x01),
            &secs(t_x01p),
            &secs(t_idx),
        ],
    )
}

const TABLE23: [usize; 12] = [9, 5, 7, 7, 1, 6, 6, 6, 1, 8, 8, 8];

fn print_table23_header() {
    let header: [&dyn Display; 12] = [
        &"Circ.", &"|T|", &"|F|", &"|F_u|", &"|", &"SOT", &"rMOT", &"MOT", &"|", &"SOT[s]",
        &"rMOT[s]", &"MOT[s]",
    ];
    println!("{}", row(&TABLE23, &header));
}

/// One Table II/III row and its SOT, rMOT and MOT detected counts. The
/// strategies grade `|F_u|`, the faults three-valued simulation leaves
/// undetected; a `*` marks a count reached with three-valued fallback
/// frames (the paper's asterisk).
fn table23_row(spec: &BenchmarkSpec, seq: &TestSequence, jobs: usize) -> (String, [usize; 3]) {
    let netlist = (spec.build)();
    let faults = FaultList::collapsed(&netlist);
    let (hard, runs) = strategy_runs(
        &netlist,
        seq,
        faults.as_slice(),
        jobs,
        0,
        HybridConfig::default(),
        &mut motsim_trace::NullSink,
    );
    let detected = runs.each_ref().map(|(r, _)| r.outcome.num_detected());
    let [det_sot, det_rmot, det_mot] = [0, 1, 2].map(|i| {
        let star = if runs[i].0.outcome.is_approximate() {
            "*"
        } else {
            ""
        };
        format!("{star}{}", detected[i])
    });
    let line = row(
        &TABLE23,
        &[
            &spec.name,
            &seq.len(),
            &faults.len(),
            &hard,
            &"|",
            &det_sot,
            &det_rmot,
            &det_mot,
            &"|",
            &secs(runs[0].1),
            &secs(runs[1].1),
            &secs(runs[2].1),
        ],
    );
    (line, detected)
}

fn table2(opts: &Opts) {
    println!(
        "\nTable II: SOT vs rMOT vs MOT on the three-valued-undetected faults \
         ({} random vectors, 30,000-node limit)",
        opts.len
    );
    print_table23_header();
    let mut sums = [0usize; 3];
    for name in table23_names(opts.quick) {
        let s = spec(name);
        let seq = TestSequence::random(&(s.build)(), opts.len, opts.seed);
        let (line, detected) = table23_row(&s, &seq, opts.jobs);
        for (sum, d) in sums.iter_mut().zip(detected) {
            *sum += d;
        }
        println!("{line}");
    }
    println!(
        "{} Σ detected: SOT {}  rMOT {}  MOT {}",
        cell("", 9),
        sums[0],
        sums[1],
        sums[2]
    );
}

/// The Table III "deterministic" sequence for a circuit.
fn deterministic_sequence(netlist: &Netlist, faults: &FaultList, max_len: usize) -> TestSequence {
    tgen::generate(
        netlist,
        faults.iter().cloned(),
        TgenConfig {
            max_len,
            ..TgenConfig::default()
        },
    )
}

fn table3(opts: &Opts) {
    println!("\nTable III: SOT vs rMOT vs MOT on deterministic (fault-oriented) sequences");
    print_table23_header();
    let max_len = if opts.quick { 120 } else { 400 };
    for name in table23_names(opts.quick) {
        let s = spec(name);
        let netlist = (s.build)();
        let seq = deterministic_sequence(&netlist, &FaultList::collapsed(&netlist), max_len);
        if !seq.is_empty() {
            println!("{}", table23_row(&s, &seq, opts.jobs).0);
        }
    }
}

const TABLE4: [usize; 6] = [9, 4, 5, 9, 7, 9];

fn table4(opts: &Opts) {
    println!("\nTable IV: symbolic test evaluation (30,000-node limit)");
    let header: [&dyn Display; 6] = [&"Circ.", &"PO", &"|T|", &"BDD size", &"prefix", &"eval[µs]"];
    println!("{}", row(&TABLE4, &header));
    // The paper lists the circuits where MOT beat rMOT/SOT; our analogues:
    for name in ["g208", "g420", "g510", "g953", "g838"] {
        let s = spec(name);
        let seq = TestSequence::random(&(s.build)(), opts.len, opts.seed);
        println!("{}", table4_row(&s, &seq, opts.seed));
    }
}

/// Fault-free responses Table IV times the evaluation of, per row.
const TABLE4_RESPONSES: usize = 64;

/// One Table IV row: the shared BDD size of the symbolic output sequence
/// at the 30,000-node limit (`*` when a three-valued prefix of `prefix`
/// frames precedes it) and the median time to evaluate a fault-free
/// response, in µs, over responses from [`TABLE4_RESPONSES`] initial states
/// drawn from `seed`: the median, because a fresh sequence's first
/// evaluation can take many times as long as the rest, and in µs, because
/// two-decimal seconds would print 0.
fn table4_row(spec: &BenchmarkSpec, seq: &TestSequence, seed: u64) -> String {
    let netlist = (spec.build)();
    let sos = SymbolicOutputSequence::compute(&netlist, seq, Some(30_000));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut times: Vec<Duration> = (0..TABLE4_RESPONSES)
        .map(|_| {
            let state: Vec<bool> = (0..netlist.num_dffs()).map(|_| rng.gen_bool(0.5)).collect();
            let response = reference_response(&netlist, seq, &state);
            let (verdict, time) = timed(|| sos.evaluate(&response));
            assert!(
                !verdict.is_faulty(),
                "a genuine fault-free response must be accepted"
            );
            time
        })
        .collect();
    times.sort_unstable();
    let t_eval = times[times.len() / 2];
    let star = if sos.prefix_len() > 0 { "*" } else { "" };
    row(
        &TABLE4,
        &[
            &spec.name,
            &netlist.num_outputs(),
            &seq.len(),
            &format!("{star}{}", sos.bdd_size()),
            &sos.prefix_len(),
            &format!("{:.0}", t_eval.as_secs_f64() * 1e6),
        ],
    )
}

/// The Fig. 1–3 walkthroughs: tiny circuits where SOT provably fails and
/// MOT succeeds, printed with their detection-function algebra.
fn figs() {
    println!("\nFig. 1: stuck-at fault not detected under SOT (uninitialized machines)");
    println!("  circuit: O = (A ⊕ Q) ⊕ B, Q' = Q; fault A stuck-at-0; Z = ([1,0],[0,0])");
    run_strategies(figures::fig1(), Fault::stuck_at_0, "A");

    println!("\nFig. 2: SOT failure despite fault-free initialization");
    println!("  circuit: 3-bit counter; fault NCLR stuck-at-1 (clear defeated)");
    println!("  sequence: CLR, count x4, CLR, count x8");
    run_strategies(figures::fig2(), Fault::stuck_at_1, "NCLR");

    println!("\nFig. 3: the worked MOT example, D(x,y) = [x ≡ ȳ]·[x ≡ y] ≡ 0");
    println!("  circuit: O = XNOR(A, Q), Q' = Q; fault A stuck-at-0; Z = (1, 0)");
    println!("  fault-free outputs: (x, x̄); faulty outputs: (ȳ, ȳ)");
    println!("  D(x,y) = [x ≡ ȳ]·[x̄ ≡ ȳ] = [x ≡ ȳ]·[x ≡ y] ≡ 0");
    run_strategies(figures::fig3(), Fault::stuck_at_0, "A");
}

/// Grades the stuck-at fault `stuck(net)` of a figure under each strategy.
fn run_strategies((netlist, vectors): Figure, stuck: fn(Lead) -> Fault, net: &str) {
    let fault = stuck(Lead::stem(netlist.find(net).expect("figure net")));
    let seq = TestSequence::new(netlist.num_inputs(), vectors);
    for strategy in Strategy::ALL {
        let (outcome, time) = timed(|| {
            SymbolicFaultSim::new(&netlist, strategy)
                .run(&seq, [fault])
                .expect("no node limit")
        });
        println!(
            "  {:>4}: {} ({} ms)",
            strategy.to_string(),
            if outcome.num_detected() == 1 {
                "DETECTED"
            } else {
                "not detected"
            },
            time.as_millis()
        );
    }
}

const LIMITS: [usize; 6] = [9, 8, 6, 10, 8, 8];

/// The node-limit sweep: accuracy and time of hybrid MOT as the space
/// budget varies — the knob behind the paper's s838.1 anomaly.
fn limits(opts: &Opts) {
    println!(
        "\nNode-limit sweep: hybrid MOT on g420 / g526 ({} random vectors)",
        opts.len
    );
    let header: [&dyn Display; 6] = [
        &"Circ.",
        &"limit",
        &"det",
        &"fb-frames",
        &"skipped",
        &"time[s]",
    ];
    println!("{}", row(&LIMITS, &header));
    for name in ["g420", "g526"] {
        let netlist = (spec(name).build)();
        let faults = FaultList::collapsed(&netlist);
        let seq = TestSequence::random(&netlist, opts.len, opts.seed);
        let three = FaultSim3::run(&netlist, &seq, faults.iter().cloned());
        let hard: Vec<Fault> = three.undetected_faults().collect();
        for limit in [500usize, 2_000, 10_000, 30_000, 120_000] {
            let config = motsim::SimConfig::new()
                .strategy(Strategy::Mot)
                .node_limit(Some(limit));
            let (outcome, time) = timed(|| {
                motsim::HybridEngine
                    .run(&netlist, &seq, &hard, config)
                    .expect("hybrid never fails on a valid config")
            });
            println!(
                "{}",
                row(
                    &LIMITS,
                    &[
                        &name,
                        &limit,
                        &outcome.num_detected(),
                        &outcome.fallback_frames,
                        &outcome.degraded_terms,
                        &secs(time),
                    ],
                )
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whitespace-separated cells of a table line.
    fn cells(line: &str) -> Vec<&str> {
        line.split_whitespace().collect()
    }

    /// A detected-count cell, and whether it carries the fallback `*`.
    fn count(cell: &str) -> (usize, bool) {
        let approximate = cell.starts_with('*');
        (cell.trim_start_matches('*').parse().unwrap(), approximate)
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(cell(42, 5), "   42");
        assert_eq!(secs(Duration::from_millis(1234)), "1.23");
        assert_eq!(row(&[3, 1, 2], &[&7, &"|", &"ab"]), "  7 | ab");
    }

    #[test]
    fn table1_row_smoke() {
        let line = table1_row(&spec("g27"), 30, 1, 2);
        let c = cells(&line);
        assert_eq!(c[0], "g27");
        let [faults, x_red, detected] = [2, 3, 4].map(|i| c[i].parse::<usize>().unwrap());
        assert!(faults > 0);
        assert!(detected <= faults);
        assert!(x_red + detected <= faults);
    }

    #[test]
    fn table23_row_strategy_order() {
        let s = spec("g208");
        let seq = TestSequence::random(&(s.build)(), 30, 2);
        let (line, detected) = table23_row(&s, &seq, 2);
        let c = cells(&line);
        let [sot, rmot, mot] = [5, 6, 7].map(|i| count(c[i]));
        assert_eq!([sot.0, rmot.0, mot.0], detected);
        assert!(sot.0 <= rmot.0, "SOT ≤ rMOT");
        // MOT ≥ rMOT holds when no fallback occurred.
        if !mot.1 {
            assert!(rmot.0 <= mot.0, "rMOT ≤ MOT");
        }
        let [faults, undetected] = [2, 3].map(|i| c[i].parse::<usize>().unwrap());
        assert!(undetected <= faults);
    }

    #[test]
    fn table4_row_smoke() {
        let s = spec("g208");
        let seq = TestSequence::random(&(s.build)(), 40, 3);
        let line = table4_row(&s, &seq, 7);
        let c = cells(&line);
        assert_eq!(c[1], "1", "one primary output");
        assert_eq!(c[2], "40", "sequence length");
        let (bdd_size, _) = count(c[3]);
        let prefix: usize = c[4].parse().unwrap();
        assert!(bdd_size > 0 || prefix > 0);
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
