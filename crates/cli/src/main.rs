//! `motsim` — command-line front end for the symbolic fault simulator.
//!
//! ```text
//! motsim stats      <circuit>
//! motsim faults     <circuit> [--complete]
//! motsim sim3       <circuit> [--len N] [--seed S] [--no-xred] [--jobs N]
//! motsim strategies <circuit> [--len N] [--seed S] [--limit NODES] [--jobs N]
//! motsim xred       <circuit> [--len N] [--seed S] [--static] [--jobs N]
//! motsim tgen       <circuit> [--max-len N] [--seed S]
//! motsim synch      <circuit> [--max-len N] [--seed S]
//! motsim testeval   <circuit> [--len N] [--seed S] [--limit NODES]
//! motsim dot        <circuit> [--len N] [--seed S] [--output J]
//! motsim scoap      <circuit>
//! motsim list
//! motsim trace-check <file.jsonl>
//! motsim fuzz [--seed S] [--cases N] [--max-dffs M]
//! motsim tables <table1|table2|table3|table4|figs|limits|all> [--len N] [--seed S] [--jobs N] [--quick]
//! ```
//!
//! `<circuit>` is either a built-in suite name (`g208`, `g298`, … — see
//! `motsim list`) or a path to an ISCAS-89 `.bench` file. Every number may
//! be given in decimal or as `0x` hexadecimal.

use std::io::{self, Write};
use std::process::exit;
use std::time::{Duration, Instant};

use motsim::faults::FaultList;
use motsim::hybrid::HybridConfig;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::Strategy;
use motsim::synch::{self, SynchConfig};
use motsim::testeval::{reference_response, SymbolicOutputSequence, TestVerdict};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim_netlist::analysis::NetlistStats;
use motsim_netlist::Netlist;
use motsim_trace::{JsonlSink, TraceEvent, TraceSink};

// The std `print!`/`println!` panic when stdout is closed (e.g. `motsim
// list | head -3`); these shadow them for the whole binary.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. Once the reader has gone away the output is dropped
/// and the command still runs to completion, so `--trace` files and the
/// exit status stay intact; any other write error is fatal.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
            exit(1);
        }
    }
}

mod tables;

const USAGE: &str = "\
usage: motsim <command> <circuit> [options]

commands:
  stats       structural statistics of the circuit
  faults      print the collapsed stuck-at fault list
  sim3        three-valued fault simulation (with ID_X-red pre-pass)
  strategies  compare SOT / rMOT / MOT coverage (hybrid, node-limited)
  xred        X-redundancy analysis (add --static for any-sequence mode)
  tgen        generate a compact fault-oriented test sequence of at most
              --max-len vectors (default 400)
  synch       search for a synchronizing sequence (symbolic); gives up after
              --max-len frames, at most 256
  testeval    symbolic test evaluation demo (accept good / reject bad)
  dot         Graphviz dump of a symbolic output function
  scoap       SCOAP testability measures (CC0/CC1/CO per net)
  list        list the built-in benchmark suite
  trace-check validate a --trace JSONL file (schema + frame monotonicity)
  fuzz        differential fuzzing: random circuits through every engine,
              cross-checked law by law; counterexamples are shrunk to
              minimal reproducers. Takes no <circuit>; options:
              --seed S (master seed), --cases N (cases per law, default
              32), --max-dffs M (flip-flop cap 1..=16, default 5).
              Output is deterministic in the options; exits 1 if any
              law is violated
  tables      regenerate the paper's results; takes no <circuit> but one of
              table1 table2 table3 table4 (Tables I-IV), figs (Figs. 1-3),
              limits (node-limit sweep) or all; options --len, --seed,
              --jobs and --quick (fewer circuits; 50 vectors unless --len
              is given)

<circuit> is a suite name (try `motsim list`) or a .bench file path.

options (numbers in decimal or 0x hexadecimal):
         --len N  --seed S  --limit NODES  --max-len N  --complete
         --static  --output J  --no-xred
         --jobs N  (worker threads for sim3/strategies/xred; the result is
                    identical for every N — see DESIGN.md §8)
         --units N  (fixed work-unit count for sim3/strategies; default 0 =
                    auto-sized. More units mean fewer faults — and smaller
                    BDDs — per unit, which shifts where the hybrid node
                    limit bites; verdicts stay identical for every N)
         --reorder none|sift  (response to symbolic node-limit pressure in
                    hybrid runs: `sift` tries one dynamic-reordering pass
                    before the three-valued fallback; default `none`)
         --bdd-stats  (print BDD-manager usage — peak nodes, gc runs, ITE
                       cache hit rate, unique-table probe length, reorder
                       and fallback counts — after sim3/strategies/xred
                       runs)
         --trace FILE  (stream structured JSONL telemetry of sim3/strategies/
                       xred runs to FILE: per-frame node counts, node-limit
                       hits, sift passes, fallback spans, unit brackets.
                       The stream is byte-identical for every --jobs value;
                       validate with `motsim trace-check FILE`)
         --trace-summary  (print an event-count summary of the same
                       telemetry to stderr after the run)";

#[derive(Debug)]
struct Opts {
    len: usize,
    seed: u64,
    limit: usize,
    max_len: usize,
    complete: bool,
    static_mode: bool,
    no_xred: bool,
    output: usize,
    jobs: usize,
    units: usize,
    bdd_stats: bool,
    reorder: motsim::hybrid::ReorderPolicy,
    trace: Option<String>,
    trace_summary: bool,
    quick: bool,
    cases: usize,
    max_dffs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            len: 200,
            seed: 0xDAC95,
            limit: 30_000,
            max_len: 400,
            complete: false,
            static_mode: false,
            no_xred: false,
            output: 0,
            jobs: 1,
            units: 0,
            bdd_stats: false,
            reorder: motsim::hybrid::ReorderPolicy::None,
            trace: None,
            trace_summary: false,
            quick: false,
            cases: 32,
            max_dffs: 5,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    exit(2)
}

/// Parses a decimal or `0x`-prefixed hexadecimal number.
fn parse_num(s: &str) -> Option<usize> {
    match s.strip_prefix("0x") {
        Some(hex) => usize::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut len_given = false;
    let mut i = 0;
    let num = |args: &[String], i: &mut usize, what: &str| -> usize {
        *i += 1;
        args.get(*i)
            .and_then(|s| parse_num(s))
            .unwrap_or_else(|| die(&format!("{what} needs a number")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--len" => {
                o.len = num(args, &mut i, "--len");
                len_given = true;
            }
            "--seed" => o.seed = num(args, &mut i, "--seed") as u64,
            "--limit" => {
                o.limit = num(args, &mut i, "--limit");
                if o.limit == 0 {
                    die("--limit must be at least 1 node");
                }
            }
            "--max-len" => o.max_len = num(args, &mut i, "--max-len"),
            "--jobs" => o.jobs = num(args, &mut i, "--jobs").max(1),
            "--units" => o.units = num(args, &mut i, "--units"),
            "--output" => o.output = num(args, &mut i, "--output"),
            "--cases" => o.cases = num(args, &mut i, "--cases"),
            "--max-dffs" => o.max_dffs = num(args, &mut i, "--max-dffs"),
            "--quick" => o.quick = true,
            "--complete" => o.complete = true,
            "--static" => o.static_mode = true,
            "--no-xred" => o.no_xred = true,
            "--bdd-stats" => o.bdd_stats = true,
            "--trace" => {
                i += 1;
                o.trace = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace needs a file path")),
                );
            }
            "--trace-summary" => o.trace_summary = true,
            "--reorder" => {
                i += 1;
                o.reorder = match args.get(i).map(String::as_str) {
                    Some("none") => motsim::hybrid::ReorderPolicy::None,
                    Some("sift") => motsim::hybrid::ReorderPolicy::Sift,
                    _ => die("--reorder needs `none` or `sift`"),
                };
            }
            other => die(&format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if o.quick && !len_given {
        o.len = 50;
    }
    o
}

/// Runs an engine job, replaying its deterministic trace stream into
/// `sink` (the merged stream is byte-identical for every `--jobs` value).
fn run_job(job: &motsim_engine::Job, sink: &mut dyn TraceSink) -> motsim_engine::JobResult {
    motsim_engine::run_traced(job, sink).unwrap_or_else(|e| die(&format!("engine failure: {e}")))
}

/// The Table II/III flow, shared by `strategies` and `tables`: one
/// three-valued job over `faults`, then one timed hybrid job per strategy,
/// in [`Strategy::ALL`] order, on `F_u`, the faults it leaves undetected.
/// `units` fixes the hybrid jobs' work units; 0 keeps the engine's default.
/// Returns `|F_u|` and the hybrid jobs.
fn strategy_runs(
    netlist: &Netlist,
    seq: &TestSequence,
    faults: &[motsim::Fault],
    jobs: usize,
    units: usize,
    config: HybridConfig,
    sink: &mut dyn TraceSink,
) -> (usize, [(motsim_engine::JobResult, Duration); 3]) {
    use motsim_engine::{EngineKind, Job};
    let three = run_job(
        &Job::new(netlist, seq, faults, EngineKind::Sim3).jobs(jobs),
        sink,
    );
    let hard: Vec<_> = three.outcome.undetected_faults().collect();
    let runs = Strategy::ALL.map(|strategy| {
        let t0 = Instant::now();
        let job = Job::new(netlist, seq, &hard, EngineKind::Hybrid(strategy, config)).jobs(jobs);
        let job = if units > 0 { job.units(units) } else { job };
        (run_job(&job, sink), t0.elapsed())
    });
    (hard.len(), runs)
}

/// The CLI's composite sink behind `--trace` / `--trace-summary`: streams
/// JSONL to a file and/or aggregates an event-count summary.
struct TraceOut {
    jsonl: Option<JsonlSink<std::io::BufWriter<std::fs::File>>>,
    summary: Option<TraceSummary>,
}

#[derive(Default)]
struct TraceSummary {
    events: usize,
    sym_frames: usize,
    tv_frames: usize,
    node_limits: usize,
    sift_passes: usize,
    sift_shed: usize,
    fallback_phases: usize,
    fallback_frames: usize,
    units: usize,
    peak: usize,
}

impl TraceOut {
    /// Builds the sink the options ask for; a disabled sink costs nothing.
    fn from_opts(opts: &Opts) -> TraceOut {
        let jsonl = opts.trace.as_deref().map(|path| {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create `{path}`: {e}")));
            JsonlSink::new(std::io::BufWriter::new(file))
        });
        TraceOut {
            jsonl,
            summary: opts.trace_summary.then(TraceSummary::default),
        }
    }

    /// Flushes the JSONL file and prints the summary. Trace I/O errors are
    /// fatal only here, after the simulation finished.
    fn finish(self, opts: &Opts) {
        if let Some(jsonl) = self.jsonl {
            if let Err(e) = jsonl.finish() {
                let path = opts.trace.as_deref().unwrap_or("?");
                die(&format!("writing trace `{path}`: {e}"));
            }
        }
        if let Some(s) = self.summary {
            eprintln!(
                "trace: {} event(s), {} unit(s); {} symbolic frame(s) (peak {} node(s)), \
                 {} three-valued frame(s) in {} fallback phase(s); \
                 {} node-limit hit(s), {} sift pass(es) shedding {} node(s)",
                s.events,
                s.units,
                s.sym_frames,
                s.peak,
                s.tv_frames,
                s.fallback_phases,
                s.node_limits,
                s.sift_passes,
                s.sift_shed,
            );
            if s.fallback_frames > 0 {
                eprintln!(
                    "trace: fallback spans cover {} frame(s) total",
                    s.fallback_frames
                );
            }
        }
    }
}

impl TraceSink for TraceOut {
    fn event(&mut self, event: &TraceEvent) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.event(event);
        }
        if let Some(s) = &mut self.summary {
            s.events += 1;
            match *event {
                TraceEvent::SymFrame { peak, .. } => {
                    s.sym_frames += 1;
                    s.peak = s.peak.max(peak);
                }
                TraceEvent::TvFrame { .. } => s.tv_frames += 1,
                TraceEvent::NodeLimit { .. } => s.node_limits += 1,
                TraceEvent::SiftPass { shed, .. } => {
                    s.sift_passes += 1;
                    s.sift_shed += shed;
                }
                TraceEvent::FallbackExit { frames, .. } => {
                    s.fallback_phases += 1;
                    s.fallback_frames += frames;
                }
                TraceEvent::UnitStart { .. } => s.units += 1,
                _ => {}
            }
        }
    }

    fn enabled(&self) -> bool {
        self.jsonl.is_some() || self.summary.is_some()
    }
}

/// Prints the BDD usage of a run (the `--bdd-stats` flag). The second line
/// is the pressure-response summary: sifting passes, level swaps, and how
/// many frames still had to run three-valued.
fn print_bdd_stats(bdd: &motsim::BddUsage, fallback_frames: usize) {
    if bdd.unique_lookups == 0 && bdd.cache_misses == 0 {
        println!("  bdd: no symbolic work performed");
        return;
    }
    let rate = bdd
        .cache_hit_rate()
        .map(|r| format!("{:.1}%", 100.0 * r))
        .unwrap_or_else(|| "n/a".to_owned());
    let probe = bdd
        .avg_probe_len()
        .map(|p| format!("{p:.2}"))
        .unwrap_or_else(|| "n/a".to_owned());
    println!(
        "  bdd: peak {} node(s), {} gc run(s), ite cache hit rate {}, avg unique-table probe {}",
        bdd.peak_live_nodes, bdd.gc_runs, rate, probe
    );
    println!(
        "  reorder: {} sifting pass(es), {} level swap(s); {} fallback frame(s)",
        bdd.reorder_runs, bdd.reorder_swaps, fallback_frames
    );
}

fn load_circuit(name: &str) -> Netlist {
    if let Some(n) = motsim_circuits::suite::by_name(name) {
        return n;
    }
    if name == "s27" {
        return motsim_circuits::s27();
    }
    match std::fs::read_to_string(name) {
        Ok(text) => {
            let base = std::path::Path::new(name)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("circuit");
            match motsim_netlist::parse::parse_bench(base, &text) {
                Ok(n) => n,
                Err(e) => die(&format!("cannot parse `{name}`: {e}")),
            }
        }
        Err(e) => die(&format!(
            "`{name}` is neither a suite circuit nor a readable file ({e})"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        die("missing command")
    };
    if cmd == "list" {
        cmd_list();
        return;
    }
    if cmd == "trace-check" {
        let Some(path) = args.get(1) else {
            die("trace-check needs a .jsonl file path")
        };
        cmd_trace_check(path);
        return;
    }
    if cmd == "fuzz" {
        cmd_fuzz(&parse_opts(&args[1..]));
        return;
    }
    if cmd == "tables" {
        let Some(which) = args.get(1) else {
            die("tables needs one of table1 table2 table3 table4 figs limits all")
        };
        tables::run(which, &parse_opts(&args[2..]));
        return;
    }
    let Some(circuit) = args.get(1) else {
        die("missing circuit")
    };
    let netlist = load_circuit(circuit);
    let opts = parse_opts(&args[2..]);
    match cmd.as_str() {
        "stats" => cmd_stats(&netlist),
        "faults" => cmd_faults(&netlist, &opts),
        "sim3" => cmd_sim3(&netlist, &opts),
        "strategies" => cmd_strategies(&netlist, &opts),
        "xred" => cmd_xred(&netlist, &opts),
        "tgen" => cmd_tgen(&netlist, &opts),
        "synch" => cmd_synch(&netlist, &opts),
        "testeval" => cmd_testeval(&netlist, &opts),
        "dot" => cmd_dot(&netlist, &opts),
        "scoap" => cmd_scoap(&netlist),
        other => die(&format!("unknown command `{other}`")),
    }
}

/// Validates a `--trace` JSONL file: every line parses, and frame-anchored
/// events are monotone (non-decreasing) within each unit bracket / engine
/// run. Exits 1 on the first violation.
fn cmd_trace_check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read `{path}`: {e}")));
    let mut watermark: Option<usize> = None;
    let mut events = 0usize;
    let mut units = 0usize;
    let mut runs = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::parse_jsonl(line).unwrap_or_else(|e| {
            eprintln!("error: {path}:{}: {e}", idx + 1);
            exit(1);
        });
        events += 1;
        match ev {
            TraceEvent::UnitStart { .. } => {
                units += 1;
                watermark = None;
            }
            TraceEvent::RunStart { .. } => {
                runs += 1;
                watermark = None;
            }
            _ => {
                if let Some(frame) = ev.frame() {
                    if let Some(w) = watermark {
                        if frame < w {
                            eprintln!(
                                "error: {path}:{}: frame {frame} regresses below {w} \
                                 within one unit",
                                idx + 1
                            );
                            exit(1);
                        }
                    }
                    watermark = Some(frame);
                }
            }
        }
    }
    if events == 0 {
        eprintln!("error: `{path}` holds no trace events");
        exit(1);
    }
    println!(
        "{path}: {events} event(s), {runs} engine run(s), {units} unit bracket(s); \
         frames monotone per unit"
    );
}

/// Differential fuzzing over random circuits: every law from
/// `motsim-check`, each over `--cases` random cases; counterexamples are
/// shrunk and dumped as self-contained reproducers. The output carries no
/// timing, so two runs with identical options are byte-identical.
fn cmd_fuzz(opts: &Opts) {
    let (seed, cases, max_dffs) = (opts.seed, opts.cases, opts.max_dffs);
    if cases == 0 {
        die("--cases must be at least 1");
    }
    if !(1..=16).contains(&max_dffs) {
        die("--max-dffs must be in 1..=16 (the oracle enumerates 2^m states)");
    }

    let config = motsim_check::Config { cases, seed };
    let reports = motsim_check::fuzz(&config, max_dffs);
    let laws = reports.len();
    let mut bad = 0usize;
    for report in reports {
        match report.counterexample {
            None => println!("ok   {:<26} {} case(s)", report.law, report.cases),
            Some(cex) => {
                bad += 1;
                println!(
                    "FAIL {:<26} case {} (seed {:#x}), {} shrink step(s): {}",
                    report.law, cex.case_index, cex.case_seed, cex.shrink_steps, cex.message
                );
                println!(
                    "     shrunk to {} gate(s), {} flip-flop(s), {} frame(s), {} fault(s):",
                    cex.shrunk.netlist.num_gates(),
                    cex.shrunk.netlist.num_dffs(),
                    cex.shrunk.seq.len(),
                    cex.shrunk.faults.len()
                );
                for line in cex.shrunk.reproducer().lines() {
                    println!("     {line}");
                }
            }
        }
    }
    println!(
        "fuzz: {laws} law(s), {cases} case(s) each, {bad} counterexample(s) \
         (seed {seed:#x}, max-dffs {max_dffs})"
    );
    if bad > 0 {
        exit(1);
    }
}

fn cmd_list() {
    println!("built-in benchmark suite:");
    for s in motsim_circuits::suite::all() {
        let n = (s.build)();
        println!(
            "  {:<10} ({:>9})  {:>3} PI {:>3} PO {:>4} FF {:>5} gates",
            s.name,
            s.paper_name,
            n.num_inputs(),
            n.num_outputs(),
            n.num_dffs(),
            n.num_gates()
        );
    }
}

fn cmd_stats(netlist: &Netlist) {
    let st = NetlistStats::of(netlist);
    println!("circuit {}", netlist.name());
    println!("  inputs      {}", st.inputs);
    println!("  outputs     {}", st.outputs);
    println!("  flip-flops  {}", st.dffs);
    println!("  gates       {}", st.gates);
    println!("  depth       {}", st.depth);
    println!("  stems       {}", st.stems);
    println!("  max fanout  {}", st.max_fanout);
    print!("  gate mix    ");
    for (k, c) in &st.kind_histogram {
        print!("{k}:{c} ");
    }
    println!();
    let faults = FaultList::collapsed(netlist);
    println!(
        "  faults      {} collapsed / {} complete",
        faults.len(),
        faults.complete_len()
    );
}

fn cmd_faults(netlist: &Netlist, opts: &Opts) {
    let list = if opts.complete {
        FaultList::complete(netlist)
    } else {
        FaultList::collapsed(netlist)
    };
    for (i, f) in list.iter().enumerate() {
        println!("{i:>5}  {}", f.display(netlist));
    }
    eprintln!("{} faults", list.len());
}

fn cmd_sim3(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let mut trace = TraceOut::from_opts(opts);
    let t0 = Instant::now();
    let (sim_faults, x_red) = if opts.no_xred {
        (faults.as_slice().to_vec(), 0)
    } else {
        let analysis = XRedAnalysis::analyze(netlist, &seq);
        let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), opts.jobs);
        (rest, red.len())
    };
    if trace.enabled() {
        trace.event(&TraceEvent::XRed {
            eliminated: x_red,
            remaining: sim_faults.len(),
        });
    }
    let mut job =
        motsim_engine::Job::new(netlist, &seq, &sim_faults, motsim_engine::EngineKind::Sim3)
            .jobs(opts.jobs);
    if opts.units > 0 {
        job = job.units(opts.units);
    }
    let outcome = run_job(&job, &mut trace).outcome;
    trace.finish(opts);
    println!(
        "{} vectors, {} faults ({} X-redundant eliminated): {} detected in {:?}",
        opts.len,
        faults.len(),
        x_red,
        outcome.num_detected(),
        t0.elapsed()
    );
    println!(
        "three-valued coverage (lower bound): {:.2}%",
        100.0 * outcome.num_detected() as f64 / faults.len() as f64
    );
    if opts.bdd_stats {
        print_bdd_stats(&outcome.bdd, outcome.fallback_frames);
    }
}

fn cmd_strategies(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let mut trace = TraceOut::from_opts(opts);
    let config = HybridConfig {
        node_limit: opts.limit,
        fallback_frames: 8,
        reorder: opts.reorder,
    };
    let (hard, runs) = strategy_runs(
        netlist,
        &seq,
        faults.as_slice(),
        opts.jobs,
        opts.units,
        config,
        &mut trace,
    );
    println!(
        "{}: |F| = {}, three-valued detects {}, {} hard faults remain",
        netlist.name(),
        faults.len(),
        faults.len() - hard,
        hard
    );
    for (strategy, (r, elapsed)) in Strategy::ALL.into_iter().zip(&runs) {
        println!(
            "  {strategy:>4}: +{:<5} detected{} in {elapsed:?} ({} unit(s), {} worker(s))",
            r.outcome.num_detected(),
            if r.outcome.is_approximate() {
                " (*)"
            } else {
                ""
            },
            r.units,
            r.workers
        );
        if opts.bdd_stats {
            print_bdd_stats(&r.outcome.bdd, r.outcome.fallback_frames);
        }
    }
    trace.finish(opts);
}

fn cmd_xred(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let mut trace = TraceOut::from_opts(opts);
    let t0 = Instant::now();
    let analysis = if opts.static_mode {
        XRedAnalysis::analyze_static(netlist)
    } else {
        let seq = TestSequence::random(netlist, opts.len, opts.seed);
        XRedAnalysis::analyze(netlist, &seq)
    };
    let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), opts.jobs);
    if trace.enabled() {
        trace.event(&TraceEvent::XRed {
            eliminated: red.len(),
            remaining: rest.len(),
        });
    }
    trace.finish(opts);
    println!(
        "{} of {} faults are X-redundant ({}, {:?})",
        red.len(),
        faults.len(),
        if opts.static_mode {
            "for ANY sequence"
        } else {
            "for this sequence"
        },
        t0.elapsed()
    );
    println!("{} faults remain for simulation", rest.len());
    if opts.bdd_stats {
        // X-redundancy analysis is purely three-valued — no BDD manager.
        print_bdd_stats(&motsim::BddUsage::default(), 0);
    }
}

fn cmd_tgen(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let t0 = Instant::now();
    let seq = tgen::generate(
        netlist,
        faults.iter().cloned(),
        TgenConfig {
            max_len: opts.max_len,
            seed: opts.seed,
        },
    );
    let outcome = FaultSim3::run(netlist, &seq, faults.iter().cloned());
    eprintln!(
        "generated {} vectors detecting {}/{} faults in {:?}",
        seq.len(),
        outcome.num_detected(),
        faults.len(),
        t0.elapsed()
    );
    print!("{seq}");
}

fn cmd_synch(netlist: &Netlist, opts: &Opts) {
    let t0 = Instant::now();
    match synch::find_synchronizing_sequence(
        netlist,
        SynchConfig {
            max_len: opts.max_len.min(256),
            seed: opts.seed,
        },
    ) {
        Some(seq) => {
            let p = synch::profile(netlist, &seq);
            eprintln!(
                "synchronizing sequence of length {} found in {:?} \
                 (three-valued logic {} it)",
                seq.len(),
                t0.elapsed(),
                if p.synchronizes_v3() {
                    "also finds"
                } else {
                    "provably cannot find"
                }
            );
            print!("{seq}");
        }
        None => {
            eprintln!(
                "no synchronizing sequence found within {} frames ({:?})",
                opts.max_len.min(256),
                t0.elapsed()
            );
            exit(1);
        }
    }
}

fn cmd_testeval(netlist: &Netlist, opts: &Opts) {
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let t0 = Instant::now();
    let sos = SymbolicOutputSequence::compute(netlist, &seq, Some(opts.limit));
    println!(
        "symbolic output sequence built in {:?}: shared BDD size {}, prefix {}",
        t0.elapsed(),
        sos.bdd_size(),
        sos.prefix_len()
    );
    let good = reference_response(netlist, &seq, &vec![false; netlist.num_dffs()]);
    let t0 = Instant::now();
    match sos.evaluate(&good) {
        TestVerdict::Consistent { witnesses } => println!(
            "fault-free response accepted in {:?} ({} witness state(s))",
            t0.elapsed(),
            witness_count(witnesses)
        ),
        TestVerdict::Faulty { .. } => unreachable!("fault-free response rejected"),
    }
    let mut bad = good;
    // Flip the first observation that is state-independent.
    'outer: for t in 0..seq.len() {
        for j in 0..netlist.num_outputs() {
            let mut flipped = bad.clone();
            flipped[t][j] = !flipped[t][j];
            if sos.evaluate(&flipped).is_faulty() {
                bad = flipped;
                println!("flipping frame {t}, output {j}:");
                break 'outer;
            }
        }
    }
    match sos.evaluate(&bad) {
        TestVerdict::Faulty { frame, output } => println!(
            "corrupted response rejected (product collapsed at frame {frame}, output {output})"
        ),
        TestVerdict::Consistent { .. } => {
            println!("no single-bit corruption is provably faulty on this circuit")
        }
    }
}

/// A witness count as printed: `sat_count` saturates at `u128::MAX`, which
/// a circuit with more than 127 flip-flops can reach (g5378 has 179).
fn witness_count(witnesses: u128) -> String {
    if witnesses == u128::MAX {
        "≥ 2^128".to_string()
    } else {
        witnesses.to_string()
    }
}

fn cmd_dot(netlist: &Netlist, opts: &Opts) {
    if opts.output >= netlist.num_outputs() {
        die(&format!(
            "--output {} out of range (circuit has {} outputs)",
            opts.output,
            netlist.num_outputs()
        ));
    }
    let seq = TestSequence::random(netlist, opts.len.min(50), opts.seed);
    let mut sim = motsim::symbolic::SymbolicTrueSim::new(netlist);
    for v in &seq {
        sim.step(v).expect("unlimited");
    }
    let o = &sim.outputs()[opts.output];
    let name = netlist
        .net(netlist.outputs()[opts.output])
        .name()
        .to_owned();
    let dot = motsim_bdd::to_dot(&[(&name, o)], |v| {
        let q = netlist.dffs()[v.index()];
        format!("init({})", netlist.net(q).name())
    });
    eprintln!(
        "output {} after {} frames: {} BDD node(s)",
        name,
        seq.len(),
        o.size()
    );
    println!("{dot}");
}

fn cmd_scoap(netlist: &Netlist) {
    use motsim::testability::{Testability, INFINITY};
    let t = Testability::analyze(netlist);
    println!("{:<12} {:>8} {:>8} {:>8}", "net", "CC0", "CC1", "CO");
    let show = |v: u32| {
        if v >= INFINITY {
            "inf".to_owned()
        } else {
            v.to_string()
        }
    };
    for id in netlist.net_ids() {
        println!(
            "{:<12} {:>8} {:>8} {:>8}",
            netlist.net(id).name(),
            show(t.cc0(id)),
            show(t.cc1(id)),
            show(t.co(id))
        );
    }
    let faults = FaultList::collapsed(netlist);
    let untestable = faults.iter().filter(|f| t.is_untestable(**f)).count();
    eprintln!(
        "{} of {} collapsed faults are SCOAP-untestable",
        untestable,
        faults.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_opts(&args)
    }

    #[test]
    fn quick_shortens_only_a_len_not_given() {
        assert_eq!(parse(&["--quick"]).len, 50);
        assert_eq!(parse(&["--quick", "--len", "200"]).len, 200);
        assert_eq!(parse(&["--len", "200", "--quick"]).len, 200);
        assert_eq!(parse(&[]).len, 200);
    }

    #[test]
    fn numbers_parse_in_decimal_and_hex() {
        assert_eq!(parse_num("0xDAC95"), Some(896_149));
        assert_eq!(parse_num("896149"), Some(896_149));
        assert_eq!(parse_num("0xZZ"), None);
        let o = parse(&["--seed", "0xDAC95", "--len", "0x10", "--max-dffs", "0x3"]);
        assert_eq!((o.seed, o.len, o.max_dffs), (0xDAC95, 16, 3));
    }
}
