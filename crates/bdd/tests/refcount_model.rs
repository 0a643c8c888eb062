//! Model test of handle refcounts and garbage collection.
//!
//! Seeded churn of clones, drops and operations runs against a shadow
//! truth-table model. After every collection the manager must hold exactly
//! the nodes its live handles reach, every handle must still denote its
//! shadow, and the arena must stay canonical. Collections free slots that
//! later operations reuse, so the memoized traversals (`rename` and
//! `sat_count`) are then checked against a fresh manager: a memo entry left
//! over from an earlier call on a reused slot would show up as a mismatch.
//!
//! The manager holds `2 * NVARS` variables. The pool's functions live on
//! the lower half; `rename` moves them to the upper half and back, which is
//! order-preserving on any support.

use motsim_bdd::{Bdd, BddManager, VarId};
use motsim_rng::SmallRng;

const NVARS: usize = 6;
/// Truth tables over `NVARS` variables: bit `a` is the value under the
/// assignment whose bit `v` is variable `v`.
type Tt = u64;

/// Assignments in which variable `v` is 1.
fn var_mask(v: usize) -> Tt {
    (0..1u64 << NVARS)
        .filter(|a| a >> v & 1 == 1)
        .fold(0, |m, a| m | 1 << a)
}

/// Truth table of `f` over the `NVARS` variables starting at `base`, the
/// others held at 0.
fn truth_table_at(f: &Bdd, base: usize) -> Tt {
    (0..1u64 << NVARS)
        .filter(|&a| {
            let mut asg = vec![false; 2 * NVARS];
            for v in 0..NVARS {
                asg[base + v] = a >> v & 1 == 1;
            }
            f.eval(&asg)
        })
        .fold(0, |m, a| m | 1 << a)
}

fn truth_table(f: &Bdd) -> Tt {
    truth_table_at(f, 0)
}

/// Builds `tt` in `m` by Shannon expansion, variable `v` upwards.
fn from_tt(m: &BddManager, tt: Tt, v: usize) -> Bdd {
    if v == NVARS {
        return m.constant(tt & 1 == 1);
    }
    // Cofactors re-packed onto the remaining variables' index space.
    let (mut lo, mut hi) = (0, 0);
    for k in 0..1u64 << (NVARS - v - 1) {
        lo |= (tt >> (2 * k) & 1) << k;
        hi |= (tt >> (2 * k + 1) & 1) << k;
    }
    let x = m.var(VarId::from_index(v));
    x.ite(&from_tt(m, hi, v + 1), &from_tt(m, lo, v + 1))
        .unwrap()
}

/// Variable `v` to `v + NVARS` (`up`) or back (`!up`).
fn shift(up: bool) -> Vec<(VarId, VarId)> {
    (0..NVARS)
        .map(|v| (VarId::from_index(v), VarId::from_index(v + NVARS)))
        .map(|(lo, hi)| if up { (lo, hi) } else { (hi, lo) })
        .collect()
}

/// `rename` and `sat_count` of `f` agree with the shadow `tt` and with the
/// same operations on a copy of `f` built in a fresh manager.
fn check_traversals(f: &Bdd, tt: Tt) {
    let upper = f.rename(&shift(true)).unwrap();
    assert_eq!(truth_table_at(&upper, NVARS), tt);
    assert_eq!(upper.rename(&shift(false)).unwrap(), *f);

    let fresh = BddManager::with_vars(2 * NVARS);
    let g = from_tt(&fresh, tt, 0);
    let g_upper = g.rename(&shift(true)).unwrap();
    assert_eq!(truth_table_at(&g_upper, NVARS), tt);
    assert_eq!(f.sat_count(NVARS), g.sat_count(NVARS));
    assert_eq!(f.sat_count(NVARS), u128::from(tt.count_ones()));
    assert_eq!(upper.sat_count(2 * NVARS), g_upper.sat_count(2 * NVARS));
    assert_eq!(
        upper.sat_count(2 * NVARS),
        u128::from(tt.count_ones()) << NVARS
    );
}

/// After a collection: live nodes are exactly those the handles reach,
/// every handle denotes its shadow, and the arena is canonical.
fn check_after_gc(m: &BddManager, pool: &[(Bdd, Tt)]) {
    let roots: Vec<&Bdd> = pool.iter().map(|(f, _)| f).collect();
    assert_eq!(m.live_nodes(), m.shared_size(&roots));
    for (f, tt) in pool {
        assert_eq!(truth_table(f), *tt);
    }
    assert_eq!(m.canonical_violations(), 0);
}

fn churn(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = BddManager::with_vars(2 * NVARS);
    let mut pool: Vec<(Bdd, Tt)> = (0..NVARS)
        .map(|v| (m.var(VarId::from_index(v)), var_mask(v)))
        .collect();
    let mut gcs = 0;
    for step in 0..3_000 {
        let pick = |rng: &mut SmallRng, pool: &[(Bdd, Tt)]| rng.gen_range(0..pool.len());
        match rng.gen_range(0..10) {
            0 | 1 => {
                let i = pick(&mut rng, &pool);
                pool.push(pool[i].clone());
            }
            2 | 3 if pool.len() > 2 => {
                let i = pick(&mut rng, &pool);
                pool.swap_remove(i);
            }
            4 => {
                let i = pick(&mut rng, &pool);
                pool.push((pool[i].0.not(), !pool[i].1));
            }
            5 => {
                let (i, j, k) = (
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                );
                let f = pool[i].0.ite(&pool[j].0, &pool[k].0).unwrap();
                let tt = pool[i].1 & pool[j].1 | !pool[i].1 & pool[k].1;
                pool.push((f, tt));
            }
            6 => {
                // A round trip through the upper half leaves garbage there.
                let i = pick(&mut rng, &pool);
                let upper = pool[i].0.rename(&shift(true)).unwrap();
                let f = upper.rename(&shift(false)).unwrap();
                pool.push((f, pool[i].1));
            }
            _ => {
                let (i, j) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                let (f, tt) = match rng.gen_range(0..3) {
                    0 => (pool[i].0.and(&pool[j].0), pool[i].1 & pool[j].1),
                    1 => (pool[i].0.or(&pool[j].0), pool[i].1 | pool[j].1),
                    _ => (pool[i].0.xor(&pool[j].0), pool[i].1 ^ pool[j].1),
                };
                pool.push((f.unwrap(), tt));
            }
        }
        if pool.len() > 40 {
            // Keep the pool small so drops, not growth, dominate.
            let i = pick(&mut rng, &pool);
            pool.swap_remove(i);
        }
        if step % 97 == 96 {
            m.gc();
            gcs += 1;
            check_after_gc(&m, &pool);
            // New nodes now land in freed slots.
            for _ in 0..3 {
                let (f, tt) = &pool[pick(&mut rng, &pool)];
                check_traversals(f, *tt);
            }
        }
    }
    assert!(gcs > 20);
    drop(pool);
    m.gc();
    assert_eq!(m.live_nodes(), 0, "no handle left, no node left");
}

#[test]
fn refcounts_and_gc_follow_the_shadow_model() {
    for seed in 0..8 {
        churn(seed);
    }
}
