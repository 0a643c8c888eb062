//! The workloads: inputs generated from the seed, one timed iteration, the
//! correctness gate, and the traced per-layer pass.
//!
//! Every workload prepares `instances` inputs in set-up, each of `seqs`
//! sequences with a sub-seed of its own (the first uses the run's seed
//! itself, so the default seed reproduces the CLI's default inputs). The
//! symbolic workloads keep the default seed's sequences and take the
//! fault samples or responses from the run's seed (see [`Prepared::setup`]).
//! Iteration `i` grades input `i mod instances`; a run's figures therefore
//! span several sequences, which keeps them steady from one seed to the
//! next.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use motsim::engine_api::{FaultSimEngine, HybridEngine, SimConfig, SymbolicEngine};
use motsim::exhaustive::{verdict_from, Oracle, ResponseMatrix};
use motsim::hybrid::HybridConfig;
use motsim::sim3::{eval_frame, eval_frame_with_fault, next_state_with_fault, FaultSim3};
use motsim::symbolic::{Strategy, SymbolicFaultSim, SymbolicTrueSim};
use motsim::testeval::{reference_response, SymbolicOutputSequence, TestVerdict};
use motsim::xred::XRedAnalysis;
use motsim::{Detection, Fault, FaultList, SimError, SimOutcome, TestSequence};
use motsim_bdd::BddManager;
use motsim_engine::{default_units, EngineKind, FaultPartitioner, Job, PartitionPolicy, WorkUnit};
use motsim_logic::V3;
use motsim_netlist::Netlist;
use motsim_rng::SmallRng;

use crate::spans::{unit_spans, Layers, Recorder, StampSink};

/// The paper's live-node limit, used by every symbolic workload.
pub const NODE_LIMIT: usize = 30_000;

/// Node limit of the test-evaluation manager. `evaluate` never collects
/// garbage and panics on a limit hit, so at 30,000 a symbolic output
/// sequence of g5378 survives about 300 evaluations, fewer than one pool.
/// At this limit the sequence built is the same (one three-valued prefix
/// frame, the same shared size) and takes 2,000 evaluations in a row. A
/// higher limit gives nothing more: the first frame builds up to the limit
/// before it falls back to the prefix, so the build time grows with it
/// (about 1 s at 1,000,000 nodes against 80 ms here).
pub const EVAL_NODE_LIMIT: usize = 100_000;

/// What a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ID_X-red` pre-pass plus three-valued simulation through the engine.
    Tv,
    /// Hybrid MOT over many small work units (fixed per-unit cost).
    Mot,
    /// Hybrid SOT, rMOT and MOT over few large units (limit pressure).
    Hybrid,
    /// Symbolic test evaluation of device responses.
    TestEval,
}

/// Sizes of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub circuit: &'static str,
    /// Frames graded per iteration.
    pub len: usize,
    /// Frames of the sequence that classifies `F_u` (the faults three-valued
    /// simulation leaves undetected); the graded sequence is its prefix.
    pub fu_len: usize,
    /// Work units per job (`None`: the engine's default).
    pub units: Option<usize>,
    /// Worker threads per job.
    pub jobs: usize,
    /// Faults of `F_u` kept, by seeded sample (`None`: all).
    pub sample: Option<usize>,
    /// Inputs prepared in set-up; iteration `i` grades input `i mod
    /// instances`.
    pub instances: usize,
    /// Sequences per input, each graded by its own job (one sub-seed each).
    pub seqs: usize,
    /// Fault-free responses in each input's test-evaluation pool.
    pub pool: usize,
}

/// Workload names. `BENCHMARK.json` gates all but `mot_units64_g298`, whose
/// run-to-run spread on a shared two-core host exceeds any bound the
/// benchmark may set; it stays runnable by name.
pub const NAMES: [&str; 4] = [
    "tv_g9234",
    "mot_units64_g298",
    "hybrid_g526",
    "testeval_g5378",
];

/// The benchmark's workloads.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        kind: Kind::Tv,
        circuit: "",
        len: 0,
        fu_len: 0,
        units: None,
        jobs: 1,
        sample: None,
        instances: 4,
        seqs: 1,
        pool: 0,
    };
    Some(match name {
        "tv_g9234" => Spec {
            name: "tv_g9234",
            circuit: "g9234",
            len: 200,
            fu_len: 200,
            ..base
        },
        "mot_units64_g298" => Spec {
            name: "mot_units64_g298",
            kind: Kind::Mot,
            circuit: "g298",
            len: 40,
            fu_len: 100,
            units: Some(4),
            jobs: 2,
            sample: Some(4),
            seqs: 8,
            ..base
        },
        "hybrid_g526" => Spec {
            name: "hybrid_g526",
            kind: Kind::Hybrid,
            circuit: "g526",
            len: 100,
            fu_len: 100,
            sample: Some(32),
            instances: 6,
            seqs: 2,
            ..base
        },
        "testeval_g5378" => Spec {
            name: "testeval_g5378",
            kind: Kind::TestEval,
            circuit: "g5378",
            len: 200,
            fu_len: 200,
            pool: 250,
            ..base
        },
        _ => return None,
    })
}

/// A calibration kernel, which slows down with one kind of work when the
/// shared host is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKernel {
    /// Dependent loads over a table in a core's private cache: the core's
    /// own speed.
    Core,
    /// Lookups into a fresh, growing hash map: the cost of fresh memory.
    Alloc,
}

impl Spec {
    /// The kernel whose speed this workload's times follow, by which they
    /// are scaled to the reference host speed (`None`: reported raw); see
    /// the README for the runs behind each choice. Test evaluation grows a
    /// fresh manager each iteration and follows fresh memory; three-valued
    /// simulation follows the core's speed, not fresh memory; the hybrid
    /// workloads followed neither kernel better than their raw times.
    pub fn host_kernel(&self) -> Option<HostKernel> {
        match self.kind {
            Kind::Tv => Some(HostKernel::Core),
            Kind::TestEval => Some(HostKernel::Alloc),
            Kind::Mot | Kind::Hybrid => None,
        }
    }
}

/// The same workload shapes at sizes small enough for the self-test (under
/// names that no digest is pinned for).
pub fn tiny(kind: Kind) -> Spec {
    let mut s = spec(NAMES[kind as usize]).expect("listed workload");
    s.name = ["tiny_tv", "tiny_mot", "tiny_hybrid", "tiny_testeval"][kind as usize];
    s.instances = 2;
    match kind {
        Kind::Tv => (s.circuit, s.len, s.fu_len) = ("g27", 40, 40),
        Kind::Mot => (s.circuit, s.len, s.fu_len, s.seqs, s.sample) = ("g208", 12, 20, 3, None),
        Kind::Hybrid => (s.circuit, s.len, s.fu_len, s.sample) = ("g298", 20, 20, Some(24)),
        Kind::TestEval => (s.circuit, s.len, s.pool) = ("g298", 30, 8),
    }
    s
}

/// Sub-seed `k` of `seed`; sub-seed 0 is the seed itself.
pub fn subseed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sub-seeded input: the graded sequence and the faults handed to the
/// engine (`F_u` for the hybrid workloads, unused for the others).
struct Case {
    seq: TestSequence,
    fu: Vec<Fault>,
}

/// The test-evaluation inputs: the symbolic output sequence, fault-free
/// responses from seeded initial states, and the same responses with one
/// seeded bit flipped (with the flipped frame and output).
struct Responses {
    sos: SymbolicOutputSequence,
    good: Vec<Vec<Vec<bool>>>,
    bad: Vec<(Vec<Vec<bool>>, usize, usize)>,
}

/// A workload with its inputs generated.
pub struct Prepared {
    pub spec: Spec,
    pub seed: u64,
    netlist: Netlist,
    faults: Vec<Fault>,
    cases: Vec<Vec<Case>>,
    responses: Vec<Responses>,
}

/// The result of one iteration.
#[derive(Debug, Default)]
pub struct Run {
    /// Digest of the per-fault verdicts (fault, detection frame, output), or
    /// of the test verdicts.
    pub digest: u64,
    /// Seconds per grading call timed alone: one engine job, or one
    /// fault-free response evaluated (an accept, which runs every frame;
    /// a corrupted response stops at its flip, so its time depends on
    /// where the seed put the flip).
    pub calls: Vec<f64>,
    /// Machine-frames graded: faults handed to the engine × frames, or
    /// responses evaluated × frames.
    pub work: u64,
    /// One outcome per engine job, by sequence and then by strategy.
    pub outcomes: Vec<SimOutcome>,
    /// `ID_X-red` eliminations of the tv pre-pass.
    pub eliminated: Vec<Fault>,
    /// Test evaluation: (response id, fault-free verdict, corrupted
    /// verdict); response `g` is entry `g mod pool` of input `g / pool`.
    pub verdicts: Vec<(usize, TestVerdict, TestVerdict)>,
}

impl Run {
    /// Grading calls made, the operations a run attempts: the engine jobs,
    /// or the fault-free and the corrupted responses evaluated.
    pub fn ops(&self) -> usize {
        self.calls.len() + self.verdicts.len()
    }

    /// One report line: per job, faults / detected / fallback frames / GC
    /// runs; for test evaluation, rejected corrupted responses.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                format!(
                    "{} faults {} det {} fb {} gc",
                    o.results.len(),
                    o.num_detected(),
                    o.fallback_frames,
                    o.bdd.gc_runs
                )
            })
            .collect();
        if !self.verdicts.is_empty() {
            let rejected = self.verdicts.iter().filter(|v| v.2.is_faulty()).count();
            parts.push(format!(
                "{rejected}/{} corrupted rejected",
                self.verdicts.len()
            ));
        }
        parts.join("; ")
    }
}

/// Correctness state carried across a run's iterations.
#[derive(Debug, Default)]
pub struct Gate {
    digests: HashMap<usize, u64>,
    verified: std::collections::HashSet<usize>,
    pool: HashMap<usize, TestVerdict>,
    /// Per test-evaluation input: which (frame, output) every fault-free
    /// initial state drives to the same known value.
    known: HashMap<usize, Vec<Vec<bool>>>,
}

impl Prepared {
    /// Builds the netlist, collapses its faults and generates every input
    /// from `seed` (the untimed set-up).
    pub fn setup(spec: Spec, seed: u64) -> Prepared {
        let netlist = motsim_circuits::suite::by_name(spec.circuit).expect("suite circuit");
        let faults: Vec<Fault> = FaultList::collapsed(&netlist).into_iter().collect();
        let mut cases: Vec<Vec<Case>> = (0..spec.instances).map(|_| Vec::new()).collect();
        let mut responses = Vec::new();
        for k in 0..spec.instances * spec.seqs {
            let s = subseed(seed, k);
            // The symbolic workloads grade fixed sequences, because their
            // cost differs up to twofold between sequences: test evaluation
            // the CLI's default one, as Table IV grades one per circuit, and
            // the hybrid workloads the default seed's sub-seeded ones. The
            // seed draws the response pools and the `F_u` samples.
            let seq_seed = match spec.kind {
                Kind::Tv => s,
                Kind::TestEval => crate::DEFAULT_SEED,
                Kind::Mot | Kind::Hybrid => subseed(crate::DEFAULT_SEED, k),
            };
            let long = TestSequence::random(&netlist, spec.fu_len.max(spec.len), seq_seed);
            let seq = long.slice(0..spec.len);
            let fu = match spec.kind {
                Kind::Tv | Kind::TestEval => Vec::new(),
                Kind::Mot | Kind::Hybrid => {
                    let three = FaultSim3::run(&netlist, &long, faults.iter().copied());
                    let mut fu: Vec<Fault> = three.undetected_faults().collect();
                    if let Some(n) = spec.sample {
                        fu = stride(fu, n, s);
                    }
                    fu
                }
            };
            if spec.kind == Kind::TestEval {
                responses.push(make_responses(&netlist, &seq, spec.pool, s));
            }
            cases[k / spec.seqs].push(Case { seq, fu });
        }
        Prepared {
            spec,
            seed,
            netlist,
            faults,
            cases,
            responses,
        }
    }

    fn group(&self, i: usize) -> &[Case] {
        &self.cases[i % self.cases.len()]
    }

    /// Iterations needed to cover every input once.
    pub fn min_iters(&self) -> usize {
        self.cases.len()
    }

    /// Rebuilds the symbolic output sequence of iteration `i`'s input, so
    /// that the iteration evaluates its pool in a fresh manager: `evaluate`
    /// keeps every node it makes, and a repeat in the same manager would
    /// replay cached work. Called outside the timed region; does nothing on
    /// the simulation workloads.
    pub fn refresh(&mut self, i: usize) {
        if self.spec.kind == Kind::TestEval {
            let k = i % self.cases.len();
            self.responses[k].sos = SymbolicOutputSequence::compute(
                &self.netlist,
                &self.cases[k][0].seq,
                Some(EVAL_NODE_LIMIT),
            );
        }
    }

    fn strategies(&self) -> &'static [Strategy] {
        match self.spec.kind {
            Kind::Hybrid => &Strategy::ALL,
            _ => &[Strategy::Mot],
        }
    }

    fn job<'a>(
        &'a self,
        case: &'a Case,
        engine: EngineKind,
        faults: &'a [Fault],
        jobs: usize,
    ) -> Job<'a> {
        let job = Job::new(&self.netlist, &case.seq, faults, engine).jobs(jobs);
        match self.spec.units {
            Some(u) => job.units(u),
            None => job,
        }
    }

    /// Runs iteration `i`: the timed region.
    pub fn run(&self, i: usize) -> Result<Run, SimError> {
        self.run_with(i, self.spec.jobs)
    }

    /// [`run`](Self::run) with `jobs` worker threads per engine job.
    pub fn run_with(&self, i: usize, jobs: usize) -> Result<Run, SimError> {
        let case = &self.group(i)[0];
        let frames = case.seq.len() as u64;
        let mut run = Run::default();
        match self.spec.kind {
            Kind::Tv => {
                let t = Instant::now();
                let analysis = XRedAnalysis::analyze(&self.netlist, &case.seq);
                let (red, rest) = motsim_engine::xred_partition(&analysis, &self.faults, 1);
                let job = self.job(case, EngineKind::Sim3, &rest, jobs);
                let out = motsim_engine::run(&job).map_err(|e| e.source)?;
                run.calls.push(t.elapsed().as_secs_f64());
                run.work = rest.len() as u64 * frames;
                run.digest = digest_faults(digest_outcome(FNV, &out.outcome), &red);
                run.outcomes.push(out.outcome);
                run.eliminated = red;
            }
            Kind::Mot | Kind::Hybrid => {
                let mut h = FNV;
                for case in self.group(i) {
                    for &strategy in self.strategies() {
                        let t = Instant::now();
                        let engine = EngineKind::Hybrid(strategy, hybrid_config());
                        let out = motsim_engine::run(&self.job(case, engine, &case.fu, jobs))
                            .map_err(|e| e.source)?;
                        run.calls.push(t.elapsed().as_secs_f64());
                        run.work += (case.fu.len() * case.seq.len()) as u64;
                        h = digest_outcome(h, &out.outcome);
                        run.outcomes.push(out.outcome);
                    }
                }
                run.digest = h;
            }
            Kind::TestEval => {
                let mut h = FNV;
                for k in self.pool_ids(i) {
                    let r = self.response_set(k);
                    let idx = k % self.spec.pool;
                    let t = Instant::now();
                    let good = black_box(r.sos.evaluate(black_box(&r.good[idx])));
                    run.calls.push(t.elapsed().as_secs_f64());
                    let bad = black_box(r.sos.evaluate(black_box(&r.bad[idx].0)));
                    fnv(&mut h, k as u64);
                    fnv(&mut h, verdict_word(bad));
                    run.verdicts.push((k, good, bad));
                }
                run.work = run.ops() as u64 * frames;
                run.digest = h;
            }
        }
        Ok(run)
    }

    /// Response ids of iteration `i`: the whole pool of input `i mod
    /// instances`.
    fn pool_ids(&self, i: usize) -> std::ops::Range<usize> {
        let (pool, input) = (self.spec.pool, i % self.cases.len());
        input * pool..(input + 1) * pool
    }

    fn response_set(&self, id: usize) -> &Responses {
        &self.responses[id / self.spec.pool]
    }

    /// Checks iteration `i`'s outputs (outside the timed region), returning
    /// every violation found.
    ///
    /// - Every repeat of an input must give the same verdict digest, and
    ///   input 0 must match the digest pinned for the seed, if any.
    /// - tv: a seeded sample of simulated faults must get the same
    ///   detection from a dense three-valued reference, and a sample of the
    ///   X-redundant faults must stay undetected by it.
    /// - mot: every detection must be confirmed by the exhaustive oracle
    ///   over the sequence prefix up to its frame.
    /// - hybrid: each strategy's earliest detection must not predate the
    ///   exact symbolic engine's detection of that fault alone (undecided
    ///   when the exact run outgrows four times the node limit).
    /// - mot and hybrid: no detection goes missing over the frames each
    ///   work unit simulates exactly (see [`Self::check_complete`]).
    /// - testeval: fault-free responses are accepted; a corrupted one is
    ///   never rejected before its flipped frame, and is rejected exactly
    ///   there when every fault-free state drives the flipped output to a
    ///   known value; repeats agree.
    pub fn check(&self, i: usize, run: &Run, gate: &mut Gate) -> Vec<String> {
        let mut errs = Vec::new();
        let inst = i % self.cases.len();
        if self.spec.kind != Kind::TestEval {
            match gate.digests.get(&inst) {
                Some(&d) if d != run.digest => errs.push(format!(
                    "input {inst}: verdict digest {:016x} differs from the earlier {d:016x}",
                    run.digest
                )),
                _ => {
                    gate.digests.insert(inst, run.digest);
                }
            }
            if inst == 0 {
                if let Some(pin) = pinned(self.spec.name, self.seed) {
                    if pin != run.digest {
                        errs.push(format!(
                            "verdict digest {:016x} differs from the pinned {pin:016x}",
                            run.digest
                        ));
                    }
                }
            }
        }
        for (k, o) in run.outcomes.iter().enumerate() {
            let case = &self.group(i)[k / self.strategies().len()];
            let expect = match self.spec.kind {
                Kind::Tv => self.faults.len() - run.eliminated.len(),
                _ => case.fu.len(),
            };
            if o.results.len() != expect || o.frames != case.seq.len() {
                errs.push(format!(
                    "outcome covers {} faults over {} frames, expected {expect} over {}",
                    o.results.len(),
                    o.frames,
                    case.seq.len()
                ));
            }
        }
        if self.spec.kind == Kind::TestEval {
            self.check_responses(run, gate, &mut errs);
        } else if gate.verified.insert(inst) {
            let per_case = run.outcomes.chunks(self.strategies().len());
            for (c, (case, outcomes)) in self.group(i).iter().zip(per_case).enumerate() {
                let mut found = match self.spec.kind {
                    Kind::Tv => self.check_tv(case, run, subseed(self.seed, inst)),
                    Kind::Mot => self.check_oracle(case, &outcomes[0]),
                    Kind::Hybrid => self.check_exact(case, outcomes),
                    Kind::TestEval => unreachable!(),
                };
                if self.spec.kind != Kind::Tv {
                    // One job per sequence, since a reference unit costs as
                    // much as the unit itself.
                    let seed = subseed(self.seed, 1000 + inst * self.spec.seqs + c);
                    let k = SmallRng::seed_from_u64(seed).gen_range(0..outcomes.len());
                    let strategy = self.strategies()[k];
                    found.extend(self.check_complete(case, strategy, &outcomes[k], seed));
                }
                errs.extend(found.into_iter().map(|e| format!("input {inst}: {e}")));
            }
        }
        errs
    }

    fn check_tv(&self, case: &Case, run: &Run, seed: u64) -> Vec<String> {
        const SAMPLE: usize = 16;
        let mut errs = Vec::new();
        let good = dense_good(&self.netlist, &case.seq);
        let outcome = &run.outcomes[0];
        let sim: Vec<_> = sample(outcome.results.clone(), SAMPLE, seed);
        for r in sim {
            let want = dense_detection(&self.netlist, &case.seq, &good, r.fault);
            if want != r.detection {
                errs.push(format!(
                    "fault {}: engine {:?}, dense reference {want:?}",
                    r.fault.display(&self.netlist),
                    r.detection
                ));
            }
        }
        for f in sample(run.eliminated.clone(), SAMPLE, seed ^ 1) {
            if let Some(d) = dense_detection(&self.netlist, &case.seq, &good, f) {
                errs.push(format!(
                    "X-redundant fault {} detected by the dense reference at {d:?}",
                    f.display(&self.netlist)
                ));
            }
        }
        errs
    }

    /// Whether the exhaustive oracle finds `fault` MOT-detectable over
    /// `prefix`, a prefix of one sequence; `good` caches that sequence's
    /// fault-free response matrices by prefix length.
    fn oracle_mot(
        &self,
        good: &mut HashMap<usize, ResponseMatrix>,
        prefix: &TestSequence,
        fault: Fault,
    ) -> Result<bool, SimError> {
        let oracle = Oracle::new().max_dffs(16);
        let g = match good.entry(prefix.len()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(oracle.response_matrix(&self.netlist, prefix, None)?),
        };
        let bad = oracle.response_matrix(&self.netlist, prefix, Some(fault))?;
        Ok(verdict_from(g, &bad, prefix.len(), self.netlist.num_outputs()).mot)
    }

    fn check_oracle(&self, case: &Case, outcome: &SimOutcome) -> Vec<String> {
        let mut good = HashMap::new();
        let mut errs = Vec::new();
        for r in &outcome.results {
            let Some(d) = r.detection else { continue };
            let prefix = case.seq.slice(0..d.frame + 1);
            match self.oracle_mot(&mut good, &prefix, r.fault) {
                Ok(true) => {}
                Ok(false) => errs.push(format!(
                    "fault {} reported MOT-detected at frame {} but the oracle disagrees",
                    r.fault.display(&self.netlist),
                    d.frame
                )),
                Err(e) => errs.push(format!("oracle: {e}")),
            }
        }
        errs
    }

    fn check_exact(&self, case: &Case, outcomes: &[SimOutcome]) -> Vec<String> {
        let mut errs = Vec::new();
        for (&strategy, outcome) in self.strategies().iter().zip(outcomes) {
            // The earliest detection: the cheapest exact run to decide.
            if let Some(r) = outcome
                .results
                .iter()
                .filter(|r| r.detection.is_some())
                .min_by_key(|r| r.detection.map(|d| d.frame))
            {
                let d = r.detection.expect("filtered");
                let exact = SymbolicEngine.run(
                    &self.netlist,
                    &case.seq.slice(0..d.frame + 1),
                    &[r.fault],
                    SimConfig::new()
                        .strategy(strategy)
                        .node_limit(Some(4 * NODE_LIMIT)),
                );
                match exact {
                    Ok(o) if o.results[0].detection.is_some_and(|e| e.frame <= d.frame) => {}
                    // Skipped detection terms make the exact run a lower
                    // bound too: unverified, not wrong.
                    Ok(o) if o.degraded_terms > 0 => {}
                    Ok(_) => errs.push(format!(
                        "{strategy}: hybrid detects {} at frame {} before the exact engine",
                        r.fault.display(&self.netlist),
                        d.frame
                    )),
                    // Too large to decide exactly: unverified, not wrong.
                    Err(SimError::Bdd(_)) => {}
                    Err(e) => errs.push(format!("exact engine: {e}")),
                }
            }
        }
        errs
    }

    /// Checks that no detection goes missing: one seeded work unit of the
    /// job is recomputed by [`hybrid_reference`], and the outcome must give
    /// each of the unit's faults exactly the reference's detection. (An
    /// exact engine or the oracle cannot serve here: at the 30,000-node
    /// limit a g526 unit hits the limit at frame 0 or 1, and a g298 unit
    /// skips detection terms from frame 1 on, which legitimately loses
    /// detections.)
    fn check_complete(
        &self,
        case: &Case,
        strategy: Strategy,
        outcome: &SimOutcome,
        seed: u64,
    ) -> Vec<String> {
        let plan = self.plan(&case.fu);
        let unit = &plan[SmallRng::seed_from_u64(seed ^ 1).gen_range(0..plan.len())];
        let want = hybrid_reference(&self.netlist, strategy, &case.seq, &unit.faults);
        let mut errs = Vec::new();
        for r in outcome
            .results
            .iter()
            .filter(|r| unit.faults.contains(&r.fault))
        {
            let expect = want.get(&r.fault).copied();
            if r.detection != expect {
                errs.push(format!(
                    "{strategy}: fault {} detected at {:?}, the reference at {expect:?}",
                    r.fault.display(&self.netlist),
                    r.detection
                ));
            }
        }
        errs
    }

    fn check_responses(&self, run: &Run, gate: &mut Gate, errs: &mut Vec<String>) {
        for &(k, good, bad) in &run.verdicts {
            let input = k / self.spec.pool;
            let (_, t, j) = self.responses[input].bad[k % self.spec.pool];
            if !matches!(good, TestVerdict::Consistent { witnesses } if witnesses >= 1) {
                errs.push(format!("fault-free response {k} not accepted: {good:?}"));
            }
            if let TestVerdict::Faulty { frame, .. } = bad {
                if frame < t {
                    errs.push(format!(
                        "corrupted response {k} rejected at frame {frame}, before its flip at {t}"
                    ));
                }
            }
            let known = gate
                .known
                .entry(input)
                .or_insert_with(|| known_outputs(&self.netlist, &self.cases[input][0].seq));
            let at_flip = TestVerdict::Faulty {
                frame: t,
                output: j,
            };
            if known[t][j] && bad != at_flip {
                errs.push(format!(
                    "corrupted response {k} flips output {j} at frame {t}, known for every \
                     fault-free state, but the verdict is {bad:?}"
                ));
            }
            if let Some(&prev) = gate.pool.get(&k) {
                if prev != bad {
                    errs.push(format!("corrupted response {k}: {bad:?}, earlier {prev:?}"));
                }
            }
            gate.pool.insert(k, bad);
        }
    }

    /// Checks run-level results once the loop ends: the pinned digest of
    /// the corrupted responses' verdicts over the whole pool.
    pub fn finish(&self, gate: &Gate) -> Vec<String> {
        if self.spec.kind != Kind::TestEval {
            return Vec::new();
        }
        let total = self.spec.pool * self.cases.len();
        if gate.pool.len() < total {
            return vec![format!(
                "only {} of {total} responses evaluated",
                gate.pool.len()
            )];
        }
        let d = self.pool_digest(gate);
        match pinned(self.spec.name, self.seed) {
            Some(pin) if pin != d => vec![format!(
                "corrupted-response verdict digest {d:016x} differs from the pinned {pin:016x}"
            )],
            _ => Vec::new(),
        }
    }

    fn pool_digest(&self, gate: &Gate) -> u64 {
        let mut h = FNV;
        for k in 0..self.spec.pool * self.cases.len() {
            fnv(&mut h, k as u64);
            fnv(&mut h, verdict_word(gate.pool[&k]));
        }
        h
    }

    /// The digest `pinned.txt` records for this seed: input 0's verdict
    /// digest, or the pool digest for test evaluation.
    pub fn reference_digest(&self) -> Result<u64, SimError> {
        if self.spec.kind != Kind::TestEval {
            return Ok(self.run(0)?.digest);
        }
        let mut gate = Gate::default();
        for i in 0..self.min_iters() {
            let mut errs = Vec::new();
            self.check_responses(&self.run(i)?, &mut gate, &mut errs);
        }
        Ok(self.pool_digest(&gate))
    }

    /// Layer probes run outside the traced wall time: the `ID_X-red`
    /// analysis and the symbolic fault-free machine on input 0's first sequence,
    /// where the workload itself does not already time them, and the
    /// symbolic output sequence that test evaluation builds in set-up.
    pub fn probe(&self, layers: &mut Layers) {
        let seq = &self.cases[0][0].seq;
        if self.spec.kind == Kind::TestEval {
            let t = Instant::now();
            let sos = SymbolicOutputSequence::compute(&self.netlist, seq, Some(EVAL_NODE_LIMIT));
            layers.sos_build_s = t.elapsed().as_secs_f64();
            layers.bdd_size = sos.bdd_size() as u64;
        }
        if self.spec.kind != Kind::Tv {
            let t = Instant::now();
            let analysis = XRedAnalysis::analyze(&self.netlist, seq);
            layers.xred_analyze_s = t.elapsed().as_secs_f64();
            layers.xred_eliminated = analysis.partition(self.faults.iter().copied()).0.len() as u64;
            // Fault-free frames under the workload's limit; a frame that
            // does not fit restarts from a fresh, all-unknown state.
            let mut sim = fresh_truesim(&self.netlist);
            for v in seq {
                let t = Instant::now();
                match sim.step(v) {
                    Ok(()) => layers
                        .faultfree_frame_ms
                        .push(t.elapsed().as_secs_f64() * 1e3),
                    Err(_) => sim = fresh_truesim(&self.netlist),
                }
            }
        }
    }

    /// The traced pass over input 0 under the root span `root`, driving
    /// each work unit itself so the stamping sink sees events as they
    /// happen. Fails unless the merged per-unit outcomes equal `untraced`
    /// (the engine's own outcomes for the same input) exactly.
    pub fn traced(
        &self,
        rec: &mut Recorder,
        root: usize,
        layers: &mut Layers,
        untraced: &Run,
    ) -> Result<(), String> {
        let case = &self.cases[0][0];
        let mut merged = Vec::new();
        match self.spec.kind {
            Kind::Tv => {
                let (analysis, dt) = rec.time(Some(root), "xred.analyze", |_, _| {
                    XRedAnalysis::analyze(&self.netlist, &case.seq)
                });
                layers.xred_analyze_s = dt;
                let ((red, rest), _) = rec.time(Some(root), "xred.partition", |_, _| {
                    motsim_engine::xred_partition(&analysis, &self.faults, 1)
                });
                layers.xred_eliminated = red.len() as u64;
                let run_unit =
                    |rec: &mut Recorder, layers: &mut Layers, unit: usize, faults: &[Fault]| {
                        let mut sim = FaultSim3::new(&self.netlist, faults.iter().copied());
                        let mut live = sim.live_faults() as u64;
                        for v in &case.seq {
                            let (_, dt) = rec.time(Some(unit), "sim3.frame", |_, _| sim.step(v));
                            layers.sim3_frame_ms.push(dt * 1e3);
                            layers.sim3_step_s += dt;
                            layers.sim3_live_fault_frames += live;
                            live = sim.live_faults() as u64;
                        }
                        sim.outcome()
                    };
                let frames = case.seq.len();
                merged.push(self.traced_units(rec, root, layers, &rest, frames, run_unit));
            }
            Kind::Mot | Kind::Hybrid => {
                for (case, &strategy) in self.cases[0]
                    .iter()
                    .flat_map(|c| self.strategies().iter().map(move |s| (c, s)))
                {
                    let run_unit =
                        |rec: &mut Recorder, layers: &mut Layers, unit: usize, faults: &[Fault]| {
                            let mut sink = StampSink::default();
                            let start = rec.spans[unit].start;
                            let config = hybrid_config();
                            let outcome = HybridEngine
                                .run(
                                    &self.netlist,
                                    &case.seq,
                                    faults,
                                    SimConfig::new()
                                        .strategy(strategy)
                                        .node_limit(Some(config.node_limit))
                                        .fallback_frames(config.fallback_frames)
                                        .reorder(config.reorder)
                                        .sink(&mut sink),
                                )
                                .expect("hybrid absorbs node limits");
                            unit_spans(rec, unit, start, &sink.events, case.seq.len(), layers);
                            outcome
                        };
                    let frames = case.seq.len();
                    merged.push(self.traced_units(rec, root, layers, &case.fu, frames, run_unit));
                }
                for o in &merged {
                    layers.bdd.absorb(&o.bdd);
                }
            }
            Kind::TestEval => {
                for &(k, good, bad) in &untraced.verdicts {
                    let (r, idx) = (self.response_set(k), k % self.spec.pool);
                    let sos = &r.sos;
                    let (g, _) = rec.time(Some(root), "testeval.evaluate", |_, _| {
                        sos.evaluate(&r.good[idx])
                    });
                    let (b, _) = rec.time(Some(root), "testeval.evaluate", |_, _| {
                        sos.evaluate(&r.bad[idx].0)
                    });
                    for v in [g, b] {
                        if v.is_faulty() {
                            layers.rejects += 1;
                        } else {
                            layers.accepts += 1;
                        }
                    }
                    if (g, b) != (good, bad) {
                        return Err(format!("response {k}: traced verdicts differ"));
                    }
                }
            }
        }
        if merged != untraced.outcomes
            || format!("{merged:?}") != format!("{:?}", untraced.outcomes)
        {
            return Err("merged per-unit outcomes differ from the engine's outcome".into());
        }
        Ok(())
    }

    /// Partitions `faults` into work units exactly as the engine does, runs
    /// each through `unit_run` inside an `engine.unit` span, and merges the
    /// outcomes as the engine's reducer does (over a `frames`-long sequence).
    fn traced_units(
        &self,
        rec: &mut Recorder,
        root: usize,
        layers: &mut Layers,
        faults: &[Fault],
        frames: usize,
        mut unit_run: impl FnMut(&mut Recorder, &mut Layers, usize, &[Fault]) -> SimOutcome,
    ) -> SimOutcome {
        let (plan, dt) = rec.time(Some(root), "engine.partition", |_, _| self.plan(faults));
        layers.partition_s += dt;
        let mut outcomes = Vec::with_capacity(plan.len());
        for unit in &plan {
            let (o, dt) = rec.time(Some(root), "engine.unit", |rec, id| {
                unit_run(rec, layers, id, &unit.faults)
            });
            layers.unit_s.push(dt);
            layers.unit_cost.push(unit.cost as f64);
            outcomes.push(o);
        }
        let (mut merged, dt) = rec.time(Some(root), "engine.merge", |_, _| {
            SimOutcome::merge(outcomes)
        });
        layers.merge_s += dt;
        merged.frames = frames;
        merged
    }

    /// Partitions `faults` into work units exactly as the engine does.
    fn plan(&self, faults: &[Fault]) -> Vec<WorkUnit> {
        let units = self
            .spec
            .units
            .unwrap_or_else(|| default_units(faults.len()));
        FaultPartitioner::new(&self.netlist, PartitionPolicy::default()).partition(faults, units)
    }

    /// Worker threads the untraced jobs actually use.
    pub fn workers(&self) -> usize {
        let case = &self.cases[0][0];
        let n = match self.spec.kind {
            Kind::Tv => self.faults.len(),
            _ => case.fu.len(),
        };
        let units = self.spec.units.unwrap_or_else(|| default_units(n));
        self.spec.jobs.clamp(1, units.max(1))
    }
}

fn hybrid_config() -> HybridConfig {
    HybridConfig {
        node_limit: NODE_LIMIT,
        ..HybridConfig::default()
    }
}

fn fresh_truesim(netlist: &Netlist) -> SymbolicTrueSim<'_> {
    let mgr = BddManager::new();
    mgr.set_node_limit(Some(NODE_LIMIT));
    SymbolicTrueSim::with_manager(netlist, mgr)
}

/// `n` elements of `xs` chosen by a seeded partial shuffle, in their
/// original order.
fn sample<T: Clone>(xs: Vec<T>, n: usize, seed: u64) -> Vec<T> {
    if xs.len() <= n {
        return xs;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    for k in 0..n {
        let j = rng.gen_range(k..idx.len());
        idx.swap(k, j);
    }
    let mut keep = idx[..n].to_vec();
    keep.sort_unstable();
    keep.into_iter().map(|k| xs[k].clone()).collect()
}

/// Builds the symbolic output sequence and the response pool. Fault-free
/// responses are simulated 64 initial states at a time on the bit-parallel
/// simulator; the first is cross-checked against `reference_response`.
fn make_responses(netlist: &Netlist, seq: &TestSequence, pool: usize, seed: u64) -> Responses {
    let sos = SymbolicOutputSequence::compute(netlist, seq, Some(EVAL_NODE_LIMIT));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57_E7A1);
    let m = netlist.num_dffs();
    let mut good: Vec<Vec<Vec<bool>>> = Vec::with_capacity(pool);
    let mut first_state = Vec::new();
    let mut values = Vec::new();
    while good.len() < pool {
        let mut state: Vec<u64> = (0..m).map(|_| rng.next_u64()).collect();
        if first_state.is_empty() {
            first_state = motsim::simb::lane(&state, 0);
        }
        let mut lanes: Vec<Vec<Vec<bool>>> =
            (0..64).map(|_| Vec::with_capacity(seq.len())).collect();
        for v in seq {
            motsim::simb::eval_frame_u64(
                netlist,
                &state,
                &motsim::simb::broadcast(v),
                None,
                &mut values,
            );
            for (k, lane) in lanes.iter_mut().enumerate() {
                lane.push(
                    netlist
                        .outputs()
                        .iter()
                        .map(|&o| (values[o.index()] >> k) & 1 == 1)
                        .collect(),
                );
            }
            motsim::simb::next_state_u64(netlist, &values, None, &mut state);
        }
        good.extend(lanes.into_iter().take(pool - good.len()));
    }
    assert_eq!(
        good[0],
        reference_response(netlist, seq, &first_state),
        "bit-parallel responses must match the reference"
    );
    let bad = good
        .iter()
        .map(|response| {
            let (t, j) = (
                rng.gen_range(0..seq.len()),
                rng.gen_range(0..netlist.num_outputs()),
            );
            let mut flipped = response.clone();
            flipped[t][j] = !flipped[t][j];
            (flipped, t, j)
        })
        .collect();
    Responses { sos, good, bad }
}

/// The detections of one hybrid work unit, recomputed from the public
/// simulator steps the hybrid driver composes ([`hybrid_config`]: no
/// reordering): a symbolic phase from the all-unknown state (later: from
/// the projected states, without the faults already detected) runs until
/// a frame does not fit the node limit; then `fallback_frames` frames run
/// three-valued (the rest of the sequence after four phases in a row made
/// no progress); each fault keeps its earliest detection. It shares the
/// simulators with the hybrid run, not its driver, partitioning or merge.
fn hybrid_reference(
    netlist: &Netlist,
    strategy: Strategy,
    seq: &TestSequence,
    faults: &[Fault],
) -> HashMap<Fault, Detection> {
    let config = hybrid_config();
    let mut found: HashMap<Fault, Detection> = HashMap::new();
    // The projected fault-free and faulty states a fallback hands on.
    type Carry = (Vec<V3>, Vec<(Fault, Vec<V3>)>);
    let mut carry: Option<Carry> = None;
    let (mut t, mut idle) = (0, 0);
    while t < seq.len() {
        let mut sym = SymbolicFaultSim::new(netlist, strategy);
        sym.set_node_limit(Some(config.node_limit));
        match &carry {
            None => faults.iter().for_each(|&f| sym.add_fault(f)),
            Some((good, bad)) => {
                sym.seed_true_state(good);
                for (f, state) in bad.iter().filter(|(f, _)| !found.contains_key(f)) {
                    sym.add_fault_with_state(*f, state);
                }
            }
        }
        let start = t;
        while t < seq.len() && sym.step(seq.vector(t)).is_ok() {
            t += 1;
        }
        for r in sym.outcome().results {
            if let Some(d) = r.detection {
                found.entry(r.fault).or_insert(Detection {
                    frame: start + d.frame,
                    output: d.output,
                });
            }
        }
        if t == seq.len() {
            break;
        }
        idle = if t == start && carry.is_some() {
            idle + 1
        } else {
            0
        };
        let frames = if idle >= 4 {
            seq.len() - t
        } else {
            config.fallback_frames.min(seq.len() - t)
        };
        let mut tv = FaultSim3::with_states(netlist, &sym.true_state_v3(), sym.faulty_states_v3());
        for _ in 0..frames {
            for (f, d) in tv.step(seq.vector(t)) {
                found.entry(f).or_insert(Detection {
                    frame: t,
                    output: d.output,
                });
            }
            t += 1;
        }
        carry = Some((tv.true_state().to_vec(), tv.faulty_states()));
    }
    found
}

/// Per frame and output, whether three-valued fault-free simulation from
/// the all-`X` state gives a known value: every initial state then drives
/// that output to it.
fn known_outputs(netlist: &Netlist, seq: &TestSequence) -> Vec<Vec<bool>> {
    dense_good(netlist, seq)
        .iter()
        .map(|values| {
            netlist
                .outputs()
                .iter()
                .map(|o| values[o.index()].to_bool().is_some())
                .collect()
        })
        .collect()
}

/// Fault-free three-valued values of every frame, from the all-`X` state.
fn dense_good(netlist: &Netlist, seq: &TestSequence) -> Vec<Vec<V3>> {
    let mut state = vec![V3::X; netlist.num_dffs()];
    let mut frames = Vec::with_capacity(seq.len());
    for v in seq {
        let mut values = Vec::new();
        eval_frame(netlist, &state, v, &mut values);
        for (i, &q) in netlist.dffs().iter().enumerate() {
            state[i] = values[netlist.dff_d(q).index()];
        }
        frames.push(values);
    }
    frames
}

/// First (frame, output) where the faulty machine's known output differs
/// from the known fault-free one, by dense re-simulation of every frame.
fn dense_detection(
    netlist: &Netlist,
    seq: &TestSequence,
    good: &[Vec<V3>],
    fault: Fault,
) -> Option<Detection> {
    let mut state = vec![V3::X; netlist.num_dffs()];
    let mut values = Vec::new();
    for (t, v) in seq.iter().enumerate() {
        eval_frame_with_fault(netlist, &state, v, fault, &mut values);
        for (j, &o) in netlist.outputs().iter().enumerate() {
            if let (Some(a), Some(b)) = (good[t][o.index()].to_bool(), values[o.index()].to_bool())
            {
                if a != b {
                    return Some(Detection {
                        frame: t,
                        output: j,
                    });
                }
            }
        }
        next_state_with_fault(netlist, &values, fault, &mut state);
    }
    None
}

const FNV: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fault_words(f: Fault) -> [u64; 3] {
    let sink = f
        .lead
        .sink
        .map_or(u64::MAX, |(s, p)| ((s.index() as u64) << 32) | u64::from(p));
    [f.lead.net.index() as u64, sink, u64::from(f.stuck)]
}

/// FNV-1a over every (fault, detection frame, output) triple, in the
/// outcome's fault order.
pub fn digest_outcome(mut h: u64, o: &SimOutcome) -> u64 {
    for r in &o.results {
        for w in fault_words(r.fault) {
            fnv(&mut h, w);
        }
        match r.detection {
            Some(d) => {
                fnv(&mut h, d.frame as u64);
                fnv(&mut h, d.output as u64);
            }
            None => fnv(&mut h, u64::MAX),
        }
    }
    h
}

fn digest_faults(mut h: u64, faults: &[Fault]) -> u64 {
    for &f in faults {
        for w in fault_words(f) {
            fnv(&mut h, w);
        }
    }
    h
}

fn verdict_word(v: TestVerdict) -> u64 {
    match v {
        TestVerdict::Faulty { frame, output } => ((frame as u64) << 16) | output as u64,
        TestVerdict::Consistent { .. } => u64::MAX,
    }
}

/// The digests pinned for (workload, seed) pairs in `pinned.txt`.
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../pinned.txt").lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        if w != workload || crate::parse_seed(s).ok()? != seed {
            return None;
        }
        u64::from_str_radix(d, 16).ok()
    })
}

/// `n` elements of `xs` at evenly spaced positions from a seeded offset,
/// in their original order (a systematic sample: it spreads over the whole
/// fault list, which is ordered by site, so runs do not hinge on which few
/// faults a random draw picks).
fn stride<T: Clone>(xs: Vec<T>, n: usize, seed: u64) -> Vec<T> {
    if xs.len() <= n {
        return xs;
    }
    let offset = SmallRng::seed_from_u64(seed).gen_range(0..xs.len() / n);
    (0..n)
        .map(|k| xs[k * xs.len() / n + offset].clone())
        .collect()
}
