//! Property-based tests of the BDD package: canonical form and operator
//! semantics are validated against brute-force truth tables on random
//! expressions. Driven by the `motsim-check` harness (in-tree RNG +
//! shrinking), so they run in the default offline `cargo test`.

use motsim_bdd::{Bdd, BddManager, VarId};
use motsim_check::{forall, Config, Shrinker};
use motsim_rng::SmallRng;

/// A random Boolean expression over `NVARS` variables.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr {
    Var(usize),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Shrinker for Expr {
    fn candidates(&self) -> Vec<Self> {
        let mut out = vec![Expr::Const(false), Expr::Const(true)];
        // Replace the expression by any immediate subexpression, then
        // recurse one level into each operand.
        match self {
            Expr::Var(_) | Expr::Const(_) => return Vec::new(),
            Expr::Not(a) => {
                out.push((**a).clone());
                for c in a.candidates() {
                    out.push(Expr::Not(Box::new(c)));
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                out.push((**a).clone());
                out.push((**b).clone());
                let rebuild = |x: Expr, y: Expr| match self {
                    Expr::And(..) => Expr::And(Box::new(x), Box::new(y)),
                    Expr::Or(..) => Expr::Or(Box::new(x), Box::new(y)),
                    _ => Expr::Xor(Box::new(x), Box::new(y)),
                };
                for c in a.candidates() {
                    out.push(rebuild(c, (**b).clone()));
                }
                for c in b.candidates() {
                    out.push(rebuild((**a).clone(), c));
                }
            }
            Expr::Ite(a, b, c) => {
                out.push((**a).clone());
                out.push((**b).clone());
                out.push((**c).clone());
            }
        }
        out.retain(|c| c != self);
        out
    }
}

const NVARS: usize = 5;

fn gen_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    // Leaf bias grows as the depth budget shrinks.
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.8) {
            Expr::Var(rng.gen_range(0..NVARS))
        } else {
            Expr::Const(rng.gen_bool(0.5))
        };
    }
    match rng.gen_range(0..5) {
        0 => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
        1 => Expr::And(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => Expr::Or(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        3 => Expr::Xor(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => Expr::Ite(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

fn build(mgr: &BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(i) => mgr.var(VarId::from_index(*i)),
        Expr::Const(b) => mgr.constant(*b),
        Expr::Not(a) => build(mgr, a).not(),
        Expr::And(a, b) => build(mgr, a).and(&build(mgr, b)).unwrap(),
        Expr::Or(a, b) => build(mgr, a).or(&build(mgr, b)).unwrap(),
        Expr::Xor(a, b) => build(mgr, a).xor(&build(mgr, b)).unwrap(),
        Expr::Ite(a, b, c) => build(mgr, a).ite(&build(mgr, b), &build(mgr, c)).unwrap(),
    }
}

fn eval(e: &Expr, assignment: &[bool]) -> bool {
    match e {
        Expr::Var(i) => assignment[*i],
        Expr::Const(b) => *b,
        Expr::Not(a) => !eval(a, assignment),
        Expr::And(a, b) => eval(a, assignment) & eval(b, assignment),
        Expr::Or(a, b) => eval(a, assignment) | eval(b, assignment),
        Expr::Xor(a, b) => eval(a, assignment) ^ eval(b, assignment),
        Expr::Ite(a, b, c) => {
            if eval(a, assignment) {
                eval(b, assignment)
            } else {
                eval(c, assignment)
            }
        }
    }
}

fn all_assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|k| (0..NVARS).map(|i| (k >> i) & 1 == 1).collect())
}

fn config() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn check<T, G>(name: &str, generate: G, property: impl Fn(&T) -> Result<(), String>)
where
    T: Clone + Shrinker + std::fmt::Debug,
    G: Fn(&mut SmallRng) -> T,
{
    if let Err(cex) = forall(&config(), name, generate, property) {
        panic!(
            "property `{}` violated (case {}, seed {:#x}): {}\nshrunk: {:?}",
            cex.law, cex.case_index, cex.case_seed, cex.message, cex.shrunk
        );
    }
}

fn ensure(cond: bool, msg: impl Fn() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The BDD of an expression computes exactly its truth table.
#[test]
fn bdd_matches_truth_table() {
    check(
        "bdd-matches-truth-table",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            for a in all_assignments() {
                ensure(f.eval(&a) == eval(e, &a), || format!("differs at {a:?}"))?;
            }
            Ok(())
        },
    );
}

/// Canonicity: two expressions are semantically equal iff their BDD
/// handles are equal.
#[test]
fn canonical_equality() {
    check(
        "canonical-equality",
        |rng| (gen_expr(rng, 5), gen_expr(rng, 5)),
        |(e1, e2)| {
            let mgr = BddManager::with_vars(NVARS);
            let f1 = build(&mgr, e1);
            let f2 = build(&mgr, e2);
            let sem_eq = all_assignments().all(|a| eval(e1, &a) == eval(e2, &a));
            ensure((f1 == f2) == sem_eq, || {
                format!(
                    "handle equality {} but semantic equality {sem_eq}",
                    f1 == f2
                )
            })
        },
    );
}

/// sat_count equals the number of satisfying rows of the truth table.
#[test]
fn sat_count_is_exact() {
    check(
        "sat-count-is-exact",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            let expect = all_assignments().filter(|a| eval(e, a)).count() as u128;
            ensure(f.sat_count(NVARS) == expect, || {
                format!("sat_count {} want {expect}", f.sat_count(NVARS))
            })
        },
    );
}

/// any_sat returns a genuine witness exactly when one exists.
#[test]
fn any_sat_is_a_witness() {
    check(
        "any-sat-is-a-witness",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            match f.any_sat() {
                None => ensure(all_assignments().all(|a| !eval(e, &a)), || {
                    "no witness although satisfiable".into()
                }),
                Some(path) => {
                    let mut a = vec![false; NVARS];
                    for (v, b) in path {
                        a[v.index()] = b;
                    }
                    ensure(f.eval(&a), || "witness does not satisfy".into())
                }
            }
        },
    );
}

/// A monotone rename (shift into a fresh block) preserves semantics modulo
/// reindexing.
#[test]
fn rename_preserves_semantics() {
    check(
        "rename-preserves-semantics",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(2 * NVARS);
            let f = build(&mgr, e);
            let map: Vec<(VarId, VarId)> = (0..NVARS)
                .map(|i| (VarId::from_index(i), VarId::from_index(NVARS + i)))
                .collect();
            let g = f.rename(&map).unwrap();
            for a in all_assignments() {
                let mut wide = vec![false; 2 * NVARS];
                wide[NVARS..].copy_from_slice(&a);
                ensure(g.eval(&wide) == eval(e, &a), || {
                    format!("renamed function differs at {a:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// Garbage collection never changes live functions.
#[test]
fn gc_preserves_live_functions() {
    check(
        "gc-preserves-live-functions",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            for i in 0..NVARS {
                let junk = f.xor(&mgr.var(VarId::from_index(i))).unwrap();
                drop(junk);
            }
            mgr.gc();
            for a in all_assignments() {
                ensure(f.eval(&a) == eval(e, &a), || {
                    format!("gc changed the function at {a:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// Complement-edge canonical form: after arbitrary operations, no stored
/// node has a complemented then-edge (or is redundant or order-violating).
#[test]
fn no_complemented_then_edges() {
    check(
        "no-complemented-then-edges",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let _f = build(&mgr, e);
            ensure(mgr.canonical_violations() == 0, || {
                format!("{} canonical violations", mgr.canonical_violations())
            })
        },
    );
}

/// Double negation is pointer-identical (not just semantically equal) and
/// negation itself allocates nothing.
#[test]
fn not_not_is_pointer_identical() {
    check(
        "not-not-is-pointer-identical",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            let live = mgr.live_nodes();
            let nf = f.not();
            ensure(mgr.live_nodes() == live, || {
                "negation allocated nodes".into()
            })?;
            ensure(nf.not().raw_root() == f.raw_root(), || {
                "double negation is not pointer-identical".into()
            })?;
            for a in all_assignments() {
                ensure(nf.eval(&a) != eval(e, &a), || {
                    format!("negation differs at {a:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// sat_count and any_sat are exact on complemented roots too.
#[test]
fn sat_count_on_complemented_root() {
    check(
        "sat-count-on-complemented-root",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let nf = build(&mgr, e).not();
            let expect = all_assignments().filter(|a| !eval(e, a)).count() as u128;
            ensure(nf.sat_count(NVARS) == expect, || {
                format!("sat_count {} want {expect}", nf.sat_count(NVARS))
            })?;
            match nf.any_sat() {
                None => ensure(expect == 0, || "missing witness".into()),
                Some(path) => {
                    let mut a = vec![false; NVARS];
                    for (v, b) in path {
                        a[v.index()] = b;
                    }
                    ensure(nf.eval(&a), || "witness does not satisfy".into())
                }
            }
        },
    );
}

/// The support is exactly the set of variables the function depends on.
#[test]
fn support_is_exact() {
    check(
        "support-is-exact",
        |rng| gen_expr(rng, 5),
        |e| {
            let mgr = BddManager::with_vars(NVARS);
            let f = build(&mgr, e);
            let support = f.support();
            for v in 0..NVARS {
                let depends = all_assignments().any(|mut a| {
                    let r0 = eval(e, &a);
                    a[v] = !a[v];
                    eval(e, &a) != r0
                });
                ensure(support.contains(&VarId::from_index(v)) == depends, || {
                    format!("variable {v} support mismatch")
                })?;
            }
            Ok(())
        },
    );
}

/// Dynamic reordering is invisible at the function level: after any number
/// of sift passes (with arbitrary growth bounds), every handle still
/// computes its original truth table, sat_count is unchanged, and the
/// arena stays canonical.
#[test]
fn sift_preserves_semantics() {
    check(
        "sift-preserves-semantics",
        |rng| {
            let growths: Vec<u64> = (0..rng.gen_range(1..4))
                .map(|_| rng.next_u64() >> 11) // 53-bit mantissa, mapped below
                .collect();
            (gen_expr(rng, 5), gen_expr(rng, 5), growths)
        },
        |(e1, e2, growths)| {
            let mgr = BddManager::with_vars(NVARS);
            let f1 = build(&mgr, e1);
            let f2 = build(&mgr, e2);
            let count = f1.sat_count(NVARS);
            for &mantissa in growths {
                let g = 1.0 + (mantissa as f64) / (1u64 << 53) as f64; // 1.0..2.0
                mgr.sift(&[], g);
                ensure(mgr.canonical_violations() == 0, || {
                    "sift broke canonical form".into()
                })?;
                for a in all_assignments() {
                    ensure(f1.eval(&a) == eval(e1, &a), || {
                        format!("f1 differs at {a:?} after sift")
                    })?;
                    ensure(f2.eval(&a) == eval(e2, &a), || {
                        format!("f2 differs at {a:?} after sift")
                    })?;
                }
                ensure(f1.sat_count(NVARS) == count, || {
                    "sat_count changed by sift".into()
                })?;
            }
            Ok(())
        },
    );
}

/// Sifting interleaved (x, y) pairs as groups keeps each pair adjacent
/// with x above y, so the MOT rename stays order-valid and denotes the
/// same function as before the pass.
#[test]
fn grouped_sift_keeps_pairs_interleaved() {
    check(
        "grouped-sift-keeps-pairs-interleaved",
        |rng| gen_expr(rng, 5),
        |e| {
            // Variables 2i are "x", 2i+1 are "y"; the expression (over vars
            // 0..NVARS) is spread onto the x variables.
            let mgr = BddManager::with_vars(2 * NVARS);
            let spread: Vec<(VarId, VarId)> = (0..NVARS)
                .map(|i| (VarId::from_index(i), VarId::from_index(2 * i)))
                .collect();
            let f = build(&mgr, e).rename(&spread).unwrap();
            let pairs: Vec<Vec<VarId>> = (0..NVARS)
                .map(|i| vec![VarId::from_index(2 * i), VarId::from_index(2 * i + 1)])
                .collect();
            let mot: Vec<(VarId, VarId)> = pairs.iter().map(|p| (p[0], p[1])).collect();
            let before = f.rename(&mot).unwrap();
            mgr.sift(&pairs, 1.2);
            ensure(mgr.canonical_violations() == 0, || {
                "grouped sift broke canonical form".into()
            })?;
            for p in &pairs {
                ensure(mgr.var_level(p[1]) == mgr.var_level(p[0]) + 1, || {
                    "pair no longer adjacent after grouped sift".into()
                })?;
            }
            ensure(before == f.rename(&mot).unwrap(), || {
                "MOT rename changed across grouped sift".into()
            })
        },
    );
}
