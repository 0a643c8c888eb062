//! `motbench` — the offline benchmark of the motsim workspace.
//!
//! ```text
//! motbench --workload <name> [--seed N | --held-out] [--seconds S] [--trace 0|1]
//! motbench --self-test
//! motbench --print-digests [--workload <name>]
//! motbench --baseline
//! ```
//!
//! A run sets the workload up several times (`setup_s` is the median),
//! then repeats timed iterations for `--seconds`, checking every
//! iteration's outputs outside the timed region. It prints a report and,
//! as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced pass (`--trace 1`).
//! Every figure is host time or host memory; the end-to-end times of the
//! workloads that name a calibration kernel are scaled to a reference host
//! speed (see [`timed_run`]).

mod baseline;
mod spans;
mod stats;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::process::ExitCode;
use std::time::Instant;

use spans::{Layers, Recorder};
use stats::{median, percentile, spearman, tail};
use workloads::{Gate, HostKernel, Kind, Prepared, NAMES};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0xDAC95;
/// A seed kept out of tuning, for re-checking a claim (`--held-out`).
pub const HELD_OUT_SEED: u64 = 0x4E1D_0075;
/// A calibration kernel's time at the reference host speed, about the
/// median of either kernel on the two-core container the benchmark was
/// tuned on when the host was quiet.
const CAL_REFERENCE_S: f64 = 0.020;
/// Seconds between calibration runs in the timed loop, at least.
const CAL_EVERY_S: f64 = 0.25;
/// Set-ups per run before the timed iterations, at least; cheap set-ups
/// repeat for two seconds (at most 400 times). `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The share of the timed loop that further set-ups take, run between its
/// iterations.
const SETUP_SHARE: f64 = 0.1;

/// The layers of the self-time table, in report order (`other` is the
/// traced wall time no layer span covers).
const LAYERS: [&str; 14] = [
    "xred.analyze",
    "xred.partition",
    "engine.partition",
    "engine.unit",
    "engine.merge",
    "symbolic.phase_start",
    "symbolic.frame",
    "hybrid.wasted",
    "hybrid.project",
    "hybrid.fallback",
    "sim3.frame",
    "bdd.sift",
    "testeval.evaluate",
    "other",
];

const USAGE: &str =
    "usage: motbench --workload <name> [--seed N | --held-out] [--seconds S] [--trace 0|1]
       motbench --self-test | --print-digests [--workload <name>] | --baseline
workloads: tv_g9234 mot_units64_g298 hybrid_g526 testeval_g5378";

enum Mode {
    Run,
    SelfTest,
    Digests,
    Baseline,
}

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses a seed in decimal or `0x` hexadecimal.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed `{s}`"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = parse_seed(&value()?)?,
            "--held-out" => a.seed = HELD_OUT_SEED,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--self-test" => a.mode = Mode::SelfTest,
            "--print-digests" => a.mode = Mode::Digests,
            "--baseline" => a.mode = Mode::Baseline,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::spec(w).is_none() {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("motbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::SelfTest => match self_test() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Digests => {
            let names: Vec<&str> = match &args.workload {
                Some(w) => vec![w.as_str()],
                None => NAMES.to_vec(),
            };
            for name in names {
                for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                    let spec = workloads::spec(name).expect("checked name");
                    match Prepared::setup(spec, seed).reference_digest() {
                        Ok(d) => println!("{name} {seed:#x} {d:016x}"),
                        Err(e) => {
                            eprintln!("motbench: {name}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Mode::Baseline => match baseline::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("motbench: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run => {
            let Some(name) = &args.workload else {
                eprintln!("motbench: --workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let spec = workloads::spec(name).expect("checked name");
            let result = if args.trace {
                traced_run(spec, &args)
            } else {
                timed_run(spec, &args)
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("motbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints the result line: `correct`, `attempted`, `failed` and the metrics.
fn print_result(attempted: usize, failed: usize, errors: &[String], metrics: &[Metric]) {
    for e in errors.iter().take(20) {
        println!("  CHECK FAILED: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        errors.is_empty() && failed == 0,
        body.join(",")
    );
}

/// Resets this process's peak resident set to its current one, so that
/// `VmHWM` then covers only what follows; `false` where the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Times one run of a fixed calibration kernel that does not depend on the
/// program under test; each takes about [`CAL_REFERENCE_S`] at the
/// reference host speed.
fn kernel_time(kernel: HostKernel) -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    match kernel {
        // 2M dependent loads over a 1 MiB table built before the clock
        // starts.
        HostKernel::Core => {
            const WORDS: usize = 1 << 17;
            let table: Vec<u64> = (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..2_000_000 {
                acc = acc.wrapping_add(table[((next() ^ acc) as usize) & (WORDS - 1)]);
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64()
        }
        // 200,000 lookups, and inserts on a miss, into a fresh hash map
        // that grows to about 180,000 entries.
        HostKernel::Alloc => {
            type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;
            let t = Instant::now();
            let (mut map, mut acc) = (Map::default(), 0u64);
            for i in 0..200_000 {
                let key = next() & 0xF_FFFF;
                match map.get(&key) {
                    Some(v) => acc = acc.wrapping_add(*v),
                    None => {
                        map.insert(key, i);
                    }
                }
            }
            std::hint::black_box((acc, map));
            t.elapsed().as_secs_f64()
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median over inputs of each input's median, where sample `i` belongs
/// to input `i mod inputs`: the inner median absorbs a noisy iteration and
/// weighs every input alike however many iterations the run fitted in; the
/// outer one keeps a single costly input from swinging the run.
fn median_of_medians(samples: &[f64], inputs: usize) -> f64 {
    let per_input: Vec<f64> = (0..inputs.min(samples.len()))
        .map(|k| {
            let mine: Vec<f64> = samples.iter().skip(k).step_by(inputs).copied().collect();
            median(&mine)
        })
        .collect();
    median(&per_input)
}

/// Sets the workload up `reps` times, or more while under two seconds in
/// all (at most 400); returns the last set-up and the seconds each took.
fn setup(spec: &workloads::Spec, seed: u64, reps: usize) -> (Prepared, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let start = Instant::now();
    while times.len() < reps
        || (times.len() < 400 && start.elapsed().as_secs_f64() < 2.0 && reps > 1)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(Prepared::setup(spec.clone(), seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn header(w: &Prepared, args: &Args) {
    println!(
        "motbench {} on {} (seed {:#x}, {} s, trace {}, {} worker(s), {} input(s))",
        w.spec.name,
        w.spec.circuit,
        w.seed,
        args.seconds,
        u8::from(args.trace),
        w.workers(),
        w.spec.instances,
    );
}

/// The untraced run: the end-to-end metrics.
///
/// The speed of a shared host drifts: on the two-core container the
/// benchmark was tuned on, the same workload ran up to twice as fast
/// minutes later, in CPU time as in wall time. So the calibration kernel
/// that the workload follows (see [`workloads::Spec::host_kernel`]) runs
/// before set-up, before an iteration once [`CAL_EVERY_S`] has passed since
/// its last run, and at the end, and every time is reported at the
/// reference speed: multiplied by [`CAL_REFERENCE_S`] over the kernel's
/// median time in this run. The report also prints the raw times.
fn timed_run(spec: workloads::Spec, args: &Args) -> Result<(), String> {
    let kernel = spec.host_kernel();
    let calibrate = || kernel.map(kernel_time);
    let mut cals: Vec<f64> = calibrate().into_iter().collect();
    let (mut w, mut setup_s) = setup(&spec, args.seed, SETUP_REPS);
    header(&w, args);
    let mut gate = Gate::default();
    let (mut walls, mut rates, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    // The peak resident set covers the timed iterations only: set-up and
    // the checks (oracle matrices, exact managers) are excluded.
    let resettable = reset_peak_rss();
    let mut peak_mb: f64 = 0.0;
    let start = Instant::now();
    let mut i = 0;
    let mut last_cal = Instant::now();
    let mut setup_spent = 0.0;
    while i < w.min_iters() || start.elapsed().as_secs_f64() < args.seconds {
        if last_cal.elapsed().as_secs_f64() >= CAL_EVERY_S {
            cals.extend(calibrate());
            last_cal = Instant::now();
        }
        w.refresh(i);
        reset_peak_rss();
        let t = Instant::now();
        let run = w.run(i).map_err(|e| format!("iteration {i}: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        peak_mb = peak_mb.max(peak_rss_mb());
        walls.push(wall);
        rates.push(run.work as f64 / wall);
        calls.extend_from_slice(&run.calls);
        let t = Instant::now();
        let errs = w.check(i, &run, &mut gate);
        if i < 20 {
            println!(
                "  iteration {i:>3}: {wall:.6} s (checked in {:.3} s), {}",
                t.elapsed().as_secs_f64(),
                run.summary()
            );
        }
        attempted += run.ops();
        if !errs.is_empty() {
            failed += run.ops();
            errors.extend(errs);
        }
        // Set-ups repeat here too, up to a tenth of the loop's time, so
        // that `setup_s` samples the host over the whole run, not only its
        // first seconds.
        while setup_spent < start.elapsed().as_secs_f64() * SETUP_SHARE {
            let s = Instant::now();
            drop(std::hint::black_box(Prepared::setup(
                spec.clone(),
                args.seed,
            )));
            setup_s.push(s.elapsed().as_secs_f64());
            setup_spent += s.elapsed().as_secs_f64();
        }
        i += 1;
    }
    errors.extend(w.finish(&gate));
    cals.extend(calibrate());
    let scale = match kernel {
        Some(k) => {
            let scale = CAL_REFERENCE_S / median(&cals);
            println!(
                "  host speed: {k:?} kernel median {:.6} s over {} runs; times scaled by {scale:.4}",
                median(&cals),
                cals.len()
            );
            scale
        }
        None => {
            println!("  host speed: not calibrated; times are raw");
            1.0
        }
    };

    let peak = if resettable { peak_mb } else { peak_rss_mb() };
    let raw = [
        median_of_medians(&walls, w.spec.instances),
        median_of_medians(&rates, w.spec.instances),
        median(&calls) * 1e6,
        median(&setup_s),
    ];
    let metrics = vec![
        metric("wall_s", raw[0] * scale, "s"),
        metric("fault_frames_per_s", raw[1] / scale, "1/s"),
        metric("eval_us_p50", raw[2] * scale, "us"),
        metric("setup_s", raw[3] * scale, "s"),
    ];
    let wall_tail = match tail(&walls) {
        Some((p, v)) => format!(", p{p} {v:.6} s"),
        None => String::new(),
    };
    let call_tail = match tail(&calls) {
        Some((p, v)) => format!(", p{p} {:.1} us", v * 1e6),
        None => String::new(),
    };
    let notes = [
        format!(
            "raw {:.6}: median over {} inputs of the median iteration, {} iterations{wall_tail}",
            raw[0],
            w.spec.instances.min(walls.len()),
            walls.len()
        ),
        format!(
            "raw {:.1}: machine-frames per second, aggregated as wall_s",
            raw[1]
        ),
        format!(
            "raw {:.1}: median of {} grading calls{call_tail}",
            raw[2],
            calls.len()
        ),
        format!("raw {:.6}: median of {} set-ups", raw[3], setup_s.len()),
    ];
    for (m, note) in metrics.iter().zip(notes) {
        println!("  {:<20} {:>16.6} {:<4} ({note})", m.name, m.value, m.unit);
    }
    println!(
        "  {:<20} {:>16.6} {:<4} (VmHWM {}; not gated: it swings with the seed)",
        "peak_rss_mb",
        peak,
        "MB",
        if resettable {
            "over the timed iterations"
        } else {
            "of the whole process"
        }
    );
    print_result(attempted, failed, &errors, &metrics);
    Ok(())
}

/// The traced run: alternates an untraced iteration of input 0 with the
/// traced pass over the same input, and reports the per-layer metrics.
fn traced_run(spec: workloads::Spec, args: &Args) -> Result<(), String> {
    let (mut w, _) = setup(&spec, args.seed, 1);
    header(&w, args);
    let mut probe = Layers::default();
    w.probe(&mut probe);
    let mut rounds: Vec<Vec<Metric>> = Vec::new();
    let mut errors = Vec::new();
    let mut gate = Gate::default();
    let mut first: Option<(Recorder, BTreeMap<&'static str, std::time::Duration>)> = None;
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        w.refresh(0);
        reset_peak_rss();
        let t = Instant::now();
        let untraced = w.run(0).map_err(|e| format!("untraced iteration: {e}"))?;
        let untraced_wall = t.elapsed().as_secs_f64();
        let rss = peak_rss_mb();
        // The traced pass drives units one after another, so its overhead
        // is measured against an untraced run on one worker.
        let serial_wall = if w.workers() > 1 {
            let t = Instant::now();
            w.run_with(0, 1)
                .map_err(|e| format!("untraced iteration: {e}"))?;
            t.elapsed().as_secs_f64()
        } else {
            untraced_wall
        };
        let mut errs = w.check(0, &untraced, &mut gate);

        w.refresh(0);
        let mut rec = Recorder::default();
        let mut layers = probe.clone();
        let (replay, traced_wall) = rec.time(None, "iteration", |rec, root| {
            w.traced(rec, root, &mut layers, &untraced)
        });
        errs.extend(replay.err());
        let table = rec.self_times(0);
        let sum: std::time::Duration = table.values().sum();
        if sum != rec.spans[0].dur() {
            errs.push(format!(
                "layer self times sum to {sum:?}, not the traced wall"
            ));
        }
        attempted += untraced.ops();
        if !errs.is_empty() {
            failed += untraced.ops();
            errors.extend(errs);
        }
        let walls = (traced_wall, untraced_wall, serial_wall);
        let mut m = layer_metrics(&w, &layers, &table, walls);
        m.push(metric("rss.peak_mb", rss, "MB"));
        rounds.push(m);
        if first.is_none() {
            first = Some((rec, table));
        }
    }

    // Counts must repeat exactly from round to round; times take the median.
    let mut metrics = Vec::new();
    for (k, m) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[k].value).collect();
        let value = if m.unit == "count" {
            if values.iter().any(|&v| v != m.value) {
                errors.push(format!("{} differs between rounds: {values:?}", m.name));
            }
            m.value
        } else {
            median(&values)
        };
        metrics.push(metric(m.name.clone(), value, m.unit));
    }

    let (rec, table) = first.expect("at least one round");
    let traced_wall = rec.spans[0].dur();
    println!("  self time per layer (round 1 of {}):", rounds.len());
    for layer in LAYERS {
        let d = table.get(layer).copied().unwrap_or_default();
        if !d.is_zero() {
            println!(
                "    {layer:<22} {:>12.6} s {:>6.2} %",
                d.as_secs_f64(),
                100.0 * d.as_secs_f64() / traced_wall.as_secs_f64()
            );
        }
    }
    let sum: std::time::Duration = table.values().sum();
    println!(
        "    {:<22} {:>12.6} s (traced wall {:.6} s)",
        "sum",
        sum.as_secs_f64(),
        traced_wall.as_secs_f64()
    );
    let path = std::path::PathBuf::from("motbench-out")
        .join(format!("spans-{}-{:#x}.jsonl", w.spec.name, w.seed));
    match rec.dump(&path) {
        Ok(()) => println!("  {} spans written to {}", rec.spans.len(), path.display()),
        Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
    }
    for m in &metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    print_result(attempted, failed, &errors, &metrics);
    Ok(())
}

/// The per-layer metrics of one traced round. Ratios come with their base
/// as a separate count (`engine.units`, `bdd.ite_calls`, …).
fn layer_metrics(
    w: &Prepared,
    l: &Layers,
    table: &BTreeMap<&'static str, std::time::Duration>,
    (traced_wall, untraced_wall, serial_wall): (f64, f64, f64),
) -> Vec<Metric> {
    let count = |x: u64| x as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let unit_sum = l.unit_s.iter().fold(0.0, |a, b| a + b);
    let unit_mean = ratio(unit_sum, l.unit_s.len() as f64);
    let unit_max = l.unit_s.iter().copied().fold(0.0, f64::max);
    let ff_p50 = median(&l.faultfree_frame_ms);
    let attempted = l.sym_frames + l.node_limit_hits + l.fallback_frames;
    let ite = l.bdd.cache_hits + l.bdd.cache_misses;
    let mut m = vec![
        metric("xred.analyze_s", l.xred_analyze_s, "s"),
        metric("xred.eliminated", count(l.xred_eliminated), "count"),
        metric("sim3.step_s", l.sim3_step_s, "s"),
        metric("sim3.frame_ms_p50", median(&l.sim3_frame_ms), "ms"),
        metric(
            "sim3.frame_ms_p99",
            percentile(&l.sim3_frame_ms, 99.0),
            "ms",
        ),
        metric("sim3.frames", l.sim3_frame_ms.len() as f64, "count"),
        metric(
            "sim3.live_fault_frames",
            count(l.sim3_live_fault_frames),
            "count",
        ),
        metric("engine.partition_s", l.partition_s, "s"),
        metric("engine.merge_s", l.merge_s, "s"),
        metric("engine.units", l.unit_s.len() as f64, "count"),
        metric("engine.unit_s_p50", median(&l.unit_s), "s"),
        metric("engine.unit_s_max", unit_max, "s"),
        metric("engine.imbalance", ratio(unit_max, unit_mean), "ratio"),
        metric(
            "engine.cost_corr",
            spearman(&l.unit_cost, &l.unit_s),
            "ratio",
        ),
        metric(
            "engine.parallel_eff",
            ratio(unit_sum, w.workers() as f64 * untraced_wall),
            "ratio",
        ),
        metric("faultfree.frame_ms_p50", ff_p50, "ms"),
        metric("faultfree.rebuilds", count(l.faultfree_rebuilds), "count"),
        metric(
            "faultfree.share_est",
            ratio(
                (l.sym_frames + l.node_limit_hits) as f64 * ff_p50 / 1e3,
                traced_wall,
            ),
            "ratio",
        ),
        metric("symbolic.frame_ms_p50", median(&l.sym_frame_ms), "ms"),
        metric(
            "symbolic.frame_ms_p99",
            percentile(&l.sym_frame_ms, 99.0),
            "ms",
        ),
        metric("symbolic.frames", count(l.sym_frames), "count"),
        metric("symbolic.events", count(l.sym_events), "count"),
        metric(
            "symbolic.us_per_event",
            ratio(l.sym_s * 1e6, l.sym_events as f64),
            "us",
        ),
        metric("hybrid.node_limit_hits", count(l.node_limit_hits), "count"),
        metric("hybrid.wasted_s", l.wasted_s, "s"),
        metric("hybrid.fallback_frames", count(l.fallback_frames), "count"),
        metric("hybrid.fallback_s", l.fallback_s, "s"),
        metric("hybrid.frames_attempted", count(attempted), "count"),
        metric(
            "hybrid.sym_frame_share",
            ratio(l.sym_frames as f64, attempted as f64),
            "ratio",
        ),
        metric("bdd.ite_calls", count(ite), "count"),
        metric(
            "bdd.cache_hit_rate",
            ratio(l.bdd.cache_hits as f64, ite as f64),
            "ratio",
        ),
        metric("bdd.unique_lookups", count(l.bdd.unique_lookups), "count"),
        metric(
            "bdd.avg_probe_len",
            l.bdd.avg_probe_len().unwrap_or(0.0),
            "probes",
        ),
        metric("bdd.gc_runs", count(l.bdd.gc_runs), "count"),
        metric("bdd.peak_live_nodes", l.bdd.peak_live_nodes as f64, "count"),
        metric("bdd.reorder_swaps", count(l.bdd.reorder_swaps), "count"),
        metric("testeval.sos_build_s", l.sos_build_s, "s"),
        metric("testeval.bdd_size", count(l.bdd_size), "count"),
        metric("testeval.accepts", count(l.accepts), "count"),
        metric("testeval.rejects", count(l.rejects), "count"),
        metric("trace.wall_s", traced_wall, "s"),
        metric("trace.untraced_wall_s", serial_wall, "s"),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(traced_wall - serial_wall, serial_wall),
            "%",
        ),
    ];
    for layer in LAYERS {
        let d = table.get(layer).copied().unwrap_or_default();
        m.push(metric(format!("self.{layer}_s"), d.as_secs_f64(), "s"));
    }
    m
}

/// Runs every workload shape at tiny sizes: repeated iterations must pass
/// the correctness gate, the traced pass must replay the engine exactly
/// with self times summing to the traced wall, and tampered outputs must
/// be caught.
fn self_test() -> Result<(), String> {
    for kind in [Kind::Tv, Kind::Mot, Kind::Hybrid, Kind::TestEval] {
        let spec = workloads::tiny(kind);
        let name = spec.name;
        let mut w = Prepared::setup(spec, DEFAULT_SEED);
        let mut gate = Gate::default();
        let mut runs = Vec::new();
        for i in 0..w.min_iters() + 1 {
            w.refresh(i);
            let run = w.run(i).map_err(|e| format!("{name}: {e}"))?;
            let errs = w.check(i, &run, &mut gate);
            if !errs.is_empty() {
                return Err(format!("{name}: {errs:?}"));
            }
            runs.push(run);
        }
        let errs = w.finish(&gate);
        if !errs.is_empty() {
            return Err(format!("{name}: {errs:?}"));
        }
        let mut rec = Recorder::default();
        let mut layers = Layers::default();
        let (replay, _) = rec.time(None, "iteration", |rec, root| {
            w.traced(rec, root, &mut layers, &runs[0])
        });
        replay.map_err(|e| format!("{name}: {e}"))?;
        let sum: std::time::Duration = rec.self_times(0).values().sum();
        if sum != rec.spans[0].dur() {
            return Err(format!("{name}: self times do not sum to the wall"));
        }

        // Tampering: a repeat with another digest (test evaluation digests
        // its whole pool instead, in `finish`), and wrong verdicts.
        let mut bad = w.run(0).map_err(|e| e.to_string())?;
        bad.digest ^= 1;
        if kind != Kind::TestEval && w.check(0, &bad, &mut gate).is_empty() {
            return Err(format!("{name}: a changed digest went unnoticed"));
        }
        let mut fresh = Gate::default();
        let mut bad = w.run(0).map_err(|e| e.to_string())?;
        for o in &mut bad.outcomes {
            for r in &mut o.results {
                r.detection = match r.detection {
                    Some(_) => None,
                    None => Some(motsim::Detection {
                        frame: 0,
                        output: 0,
                    }),
                };
            }
        }
        for v in &mut bad.verdicts {
            v.1 = motsim::testeval::TestVerdict::Faulty {
                frame: 0,
                output: 0,
            };
        }
        if w.check(0, &bad, &mut fresh).is_empty() {
            return Err(format!("{name}: flipped verdicts went unnoticed"));
        }
        // Missing detections: nothing detected, every response accepted.
        let mut bad = w.run(0).map_err(|e| e.to_string())?;
        for o in &mut bad.outcomes {
            for r in &mut o.results {
                r.detection = None;
            }
        }
        for v in &mut bad.verdicts {
            v.2 = motsim::testeval::TestVerdict::Consistent { witnesses: 1 };
        }
        if w.check(0, &bad, &mut Gate::default()).is_empty() {
            return Err(format!("{name}: missing detections went unnoticed"));
        }
        println!("{name}: ok ({} spans)", rec.spans.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_self_test() {
        super::self_test().unwrap();
    }

    #[test]
    fn seeds_parse() {
        assert_eq!(super::parse_seed("0xDAC95"), Ok(0xDAC95));
        assert_eq!(super::parse_seed("17"), Ok(17));
        assert!(super::parse_seed("x").is_err());
    }
}
