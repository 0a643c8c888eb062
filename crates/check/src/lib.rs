//! Offline property-testing and differential fuzzing for the motsim
//! engines.
//!
//! The paper's central claims are *relational* — SOT-detected ⊆
//! rMOT-detected ⊆ MOT-detected, hybrid ≡ pure symbolic on verdicts,
//! rename-invariance of the detection function `D(x,y)` — and relational
//! claims are best checked generatively: draw a random sequential circuit,
//! a random test sequence and a fault set, run every engine, and
//! cross-check the verdicts against the exhaustive oracle and against each
//! other. This crate is that harness, built on the in-tree
//! [`motsim_rng`] xoshiro256++ generator so it runs in the default
//! offline `cargo test` (no `proptest`, no network).
//!
//! The three pieces:
//!
//! - [`forall`] — the runner: `cases` deterministic seeds, a generator, a
//!   property returning `Err(message)` on violation. On failure the case is
//!   **shrunk** via [`Shrinker::candidates`] (greedy descent: take the
//!   first smaller candidate that still fails, repeat) and reported as a
//!   [`Counterexample`] carrying both the original and the minimal case.
//! - [`SimCase`] — a random circuit + sequence + fault
//!   window, rebuilt deterministically from a small parameter record, so
//!   shrinking is *regeneration at smaller parameters* and a reproducer is
//!   just the parameter line plus a `.bench` dump.
//! - [`laws`] — the cross-engine laws themselves; [`laws::fuzz`] runs the
//!   whole suite (the `motsim fuzz` CLI subcommand is a thin wrapper).
//!
//! ```
//! use motsim_check::{forall, Config};
//!
//! // A deliberately false "law": no vector sums above 20.
//! let cex = forall(
//!     &Config { cases: 50, ..Config::default() },
//!     "sum-is-small",
//!     |rng| (0..8).map(|_| rng.gen_range(0..10)).collect::<Vec<usize>>(),
//!     |v| {
//!         let sum: usize = v.iter().sum();
//!         if sum <= 20 { Ok(()) } else { Err(format!("sum {sum} > 20")) }
//!     },
//! )
//! .unwrap_err();
//! // Greedy shrinking drives the witness down to a minimal one.
//! assert!(cex.shrunk.iter().sum::<usize>() > 20);
//! assert!(cex.shrunk.len() <= cex.original.len());
//! ```

pub mod case;
pub mod demo;
pub mod laws;

pub use case::{CaseParams, Family, SimCase};
pub use laws::{fuzz, Law, LawReport};

use motsim_rng::SmallRng;

/// Configuration of a [`forall`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of random cases to draw.
    pub cases: usize,
    /// Master seed; case `i` runs on a seed mixed from this and `i`, so a
    /// failure report pins down the exact case independently of `cases`.
    pub seed: u64,
}

/// Budget of property re-evaluations the shrinker may spend on one
/// counterexample.
const MAX_SHRINK_EVALS: usize = 400;

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 24,
            seed: 0xDAC95,
        }
    }
}

/// Types that can propose strictly "smaller" variants of themselves for
/// counterexample shrinking.
///
/// `candidates` returns simplified copies in most-aggressive-first order;
/// the runner keeps the first one that still fails the property and
/// recurses. An empty vector means the value is minimal. Candidates must
/// eventually bottom out (each candidate simpler than `self`), or the
/// shrink loop only stops on its evaluation budget.
pub trait Shrinker: Sized {
    /// Simplified variants to try, most aggressive first.
    fn candidates(&self) -> Vec<Self>;
}

/// A law that held on every generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The law's name.
    pub law: String,
    /// Number of cases that passed.
    pub cases: usize,
}

/// A failing case, before and after shrinking.
#[derive(Debug, Clone)]
pub struct Counterexample<T> {
    /// The law that failed.
    pub law: String,
    /// Index of the failing case within the run.
    pub case_index: usize,
    /// The exact per-case seed (regenerates `original`).
    pub case_seed: u64,
    /// The case as generated.
    pub original: T,
    /// The minimal failing case the shrinker reached.
    pub shrunk: T,
    /// The property's failure message on `shrunk`.
    pub message: String,
    /// Number of successful shrink steps taken.
    pub shrink_steps: usize,
}

/// The per-case seed of case `index` under master seed `seed`
/// (SplitMix64-style mixing, so neighbouring indices get unrelated
/// streams).
pub fn case_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks `property` on `config.cases` cases drawn by `generate`.
///
/// Deterministic in `config.seed`: case `i` always sees the same RNG
/// stream. On the first failing case the shrinker descends greedily
/// through [`Shrinker::candidates`] (within 400 property
/// re-evaluations) and the minimal failure is returned.
///
/// # Errors
///
/// Returns the shrunk [`Counterexample`] of the first failing case.
pub fn forall<T, G, P>(
    config: &Config,
    law: &str,
    generate: G,
    property: P,
) -> Result<CheckReport, Box<Counterexample<T>>>
where
    T: Clone + Shrinker,
    G: Fn(&mut SmallRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    for index in 0..config.cases {
        let seed = case_seed(config.seed, index);
        let mut rng = SmallRng::seed_from_u64(seed);
        let case = generate(&mut rng);
        if let Err(message) = property(&case) {
            let mut shrunk = case.clone();
            let mut message = message;
            let mut steps = 0usize;
            let mut evals = 0usize;
            'descend: loop {
                for candidate in shrunk.candidates() {
                    if evals >= MAX_SHRINK_EVALS {
                        break 'descend;
                    }
                    evals += 1;
                    if let Err(m) = property(&candidate) {
                        shrunk = candidate;
                        message = m;
                        steps += 1;
                        continue 'descend;
                    }
                }
                break;
            }
            return Err(Box::new(Counterexample {
                law: law.to_owned(),
                case_index: index,
                case_seed: seed,
                original: case,
                shrunk,
                message,
                shrink_steps: steps,
            }));
        }
    }
    Ok(CheckReport {
        law: law.to_owned(),
        cases: config.cases,
    })
}

/// Wrapper opting a case type out of shrinking (its candidate list is
/// empty) — handy for small enumerated values where a "smaller" variant
/// has no meaning, such as truth values or gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoShrink<T>(pub T);

impl<T: Clone> Shrinker for NoShrink<T> {
    fn candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

impl Shrinker for usize {
    fn candidates(&self) -> Vec<Self> {
        let n = *self;
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in [0, n / 2, n - 1] {
            if c < n && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl Shrinker for u64 {
    fn candidates(&self) -> Vec<Self> {
        let n = *self;
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in [0, n / 2, n - 1] {
            if c < n && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl Shrinker for bool {
    fn candidates(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Clone + Shrinker> Shrinker for Vec<T> {
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Drop whole elements first (most aggressive)…
        for i in 0..self.len() {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // …then shrink elements in place.
        for (i, e) in self.iter().enumerate() {
            for c in e.candidates() {
                let mut v = self.clone();
                v[i] = c;
                out.push(v);
            }
        }
        out
    }
}

impl<A: Clone + Shrinker, B: Clone + Shrinker> Shrinker for (A, B) {
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for a in self.0.candidates() {
            out.push((a, self.1.clone()));
        }
        for b in self.1.candidates() {
            out.push((self.0.clone(), b));
        }
        out
    }
}

impl<A: Clone + Shrinker, B: Clone + Shrinker, C: Clone + Shrinker> Shrinker for (A, B, C) {
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for a in self.0.candidates() {
            out.push((a, self.1.clone(), self.2.clone()));
        }
        for b in self.1.candidates() {
            out.push((self.0.clone(), b, self.2.clone()));
        }
        for c in self.2.candidates() {
            out.push((self.0.clone(), self.1.clone(), c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_reports_all_cases() {
        let report = forall(
            &Config::default(),
            "tautology",
            |rng| rng.gen_range(0..100),
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(report.cases, Config::default().cases);
        assert_eq!(report.law, "tautology");
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // "All numbers are below 10" fails; the minimal witness is 10.
        let cex = forall(
            &Config {
                cases: 100,
                ..Config::default()
            },
            "below-ten",
            |rng| rng.gen_range(0..1000),
            |&n| {
                if n < 10 {
                    Ok(())
                } else {
                    Err(format!("{n} >= 10"))
                }
            },
        )
        .unwrap_err();
        assert_eq!(cex.shrunk, 10, "greedy descent must reach the boundary");
        assert!(cex.original >= cex.shrunk);
        assert!(cex.message.contains(">= 10"));
    }

    #[test]
    fn vec_shrinking_drops_irrelevant_elements() {
        // "No vector contains a 7" — the minimal witness is [7].
        let cex = forall(
            &Config {
                cases: 200,
                ..Config::default()
            },
            "no-sevens",
            |rng| (0..10).map(|_| rng.gen_range(0..9)).collect::<Vec<usize>>(),
            |v| {
                if v.contains(&7) {
                    Err("found a 7".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(cex.shrunk, vec![7]);
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    #[test]
    fn scalar_and_tuple_candidates_are_strictly_smaller() {
        assert!(0usize.candidates().is_empty());
        assert_eq!(5usize.candidates(), vec![0, 2, 4]);
        assert_eq!(1u64.candidates(), vec![0]);
        assert_eq!(true.candidates(), vec![false]);
        assert!(NoShrink(42).candidates().is_empty());
        let pair = (2usize, vec![1usize]);
        assert!(pair.candidates().iter().all(|c| c != &pair));
        let triple = (1usize, true, 0u64);
        assert!(!triple.candidates().is_empty());
    }
}
