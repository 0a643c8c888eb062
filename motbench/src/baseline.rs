//! `--baseline`: re-measures the ROADMAP's baseline table through the
//! same public calls the CLI makes, once, with the default seed, and
//! records the result as JSON. It is a snapshot for later comparisons,
//! not one of the gating workloads.

use std::fmt::Write as _;
use std::time::Instant;

use motsim::hybrid::HybridConfig;
use motsim::symbolic::Strategy;
use motsim::xred::XRedAnalysis;
use motsim::{Fault, FaultList, SimOutcome, TestSequence};
use motsim_engine::{EngineKind, Job};
use motsim_netlist::Netlist;

use crate::DEFAULT_SEED;

fn load(name: &str) -> Result<(Netlist, Vec<Fault>), String> {
    let n = motsim_circuits::suite::by_name(name).ok_or(format!("no circuit {name}"))?;
    let f = FaultList::collapsed(&n).into_iter().collect();
    Ok((n, f))
}

fn job(j: &Job) -> Result<(SimOutcome, f64), String> {
    let t = Instant::now();
    let r = motsim_engine::run(j).map_err(|e| e.to_string())?;
    Ok((r.outcome, t.elapsed().as_secs_f64()))
}

/// `motsim sim3 <circuit> --len 200`: `ID_X-red` plus three-valued
/// simulation of the rest.
fn sim3_row(circuit: &str) -> Result<String, String> {
    let (n, faults) = load(circuit)?;
    let seq = TestSequence::random(&n, 200, DEFAULT_SEED);
    let t = Instant::now();
    let analysis = XRedAnalysis::analyze(&n, &seq);
    let (red, rest) = motsim_engine::xred_partition(&analysis, &faults, 1);
    let (outcome, _) = job(&Job::new(&n, &seq, &rest, EngineKind::Sim3))?;
    let secs = t.elapsed().as_secs_f64();
    Ok(format!(
        "{{\"run\":\"sim3 {circuit} --len 200\",\"wall_s\":{secs},\"faults\":{},\
         \"x_redundant\":{},\"detected\":{}}}",
        faults.len(),
        red.len(),
        outcome.num_detected()
    ))
}

/// `motsim strategies <circuit> --len 100 [--units N]`: three-valued
/// pre-classification, then hybrid SOT, rMOT and MOT over the rest.
fn strategies_row(circuit: &str, units: Option<usize>) -> Result<String, String> {
    let (n, faults) = load(circuit)?;
    let seq = TestSequence::random(&n, 100, DEFAULT_SEED);
    let (three, _) = job(&Job::new(&n, &seq, &faults, EngineKind::Sim3))?;
    let hard: Vec<Fault> = three.undetected_faults().collect();
    let mut row = format!(
        "{{\"run\":\"strategies {circuit} --len 100{}\",\"hard_faults\":{}",
        units.map_or(String::new(), |u| format!(" --units {u}")),
        hard.len()
    );
    for strategy in Strategy::ALL {
        let mut j = Job::new(
            &n,
            &seq,
            &hard,
            EngineKind::Hybrid(strategy, HybridConfig::default()),
        );
        if let Some(u) = units {
            j = j.units(u);
        }
        let (o, secs) = job(&j)?;
        let _ = write!(
            row,
            ",\"{strategy}\":{{\"wall_s\":{secs},\"detected\":{},\"gc_runs\":{},\
             \"fallback_frames\":{}}}",
            o.num_detected(),
            o.bdd.gc_runs,
            o.fallback_frames
        );
    }
    row.push('}');
    Ok(row)
}

/// Where the snapshot is recorded, relative to the repository root.
const OUT: &str = "motbench/roadmap_baseline.json";

/// Measures the five rows and writes them to [`OUT`].
pub fn run() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = [
        sim3_row("g5378")?,
        sim3_row("g38417")?,
        strategies_row("g526", None)?,
        strategies_row("g298", Some(1))?,
        strategies_row("g298", Some(64))?,
    ];
    for r in &rows {
        println!("{r}");
    }
    let json = format!(
        "{{\"seed\":\"{DEFAULT_SEED:#x}\",\"jobs\":1,\"available_parallelism\":{cores},\
         \"rows\":[\n  {}\n]}}\n",
        rows.join(",\n  ")
    );
    std::fs::write(OUT, json).map_err(|e| format!("cannot write {OUT}: {e}"))?;
    println!("written to {OUT}");
    Ok(())
}
