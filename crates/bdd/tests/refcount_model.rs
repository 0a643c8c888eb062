//! Model test of handle refcounts and garbage collection.
//!
//! Seeded churn of clones, drops and operations runs against a shadow
//! truth-table model. After every collection the manager must hold exactly
//! the nodes its live handles reach, every handle must still denote its
//! shadow, and the arena must stay canonical. Collections free slots that
//! later operations reuse, so the memoized traversals (`rename`, `exists`,
//! `sat_count`) are then checked against a fresh manager: a memo entry left
//! over from an earlier call on a reused slot would show up as a mismatch.

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

fn exists_tt(tt: Tt, v: usize) -> Tt {
    let (hi, lo, s) = (tt & var_mask(v), tt & !var_mask(v), 1 << v);
    lo | lo << s | hi | hi >> s
}

/// `tt` with every even variable `2i` renamed to `2i + 1`; `tt` must not
/// depend on the odd variables.
fn rename_even_to_odd_tt(tt: Tt) -> Tt {
    (0..1u64 << NVARS)
        .filter(|&a| {
            let src = (0..NVARS / 2).fold(0, |b, i| b | (a >> (2 * i + 1) & 1) << (2 * i));
            tt >> src & 1 == 1
        })
        .fold(0, |m, a| m | 1 << a)
}

fn truth_table(f: &Bdd) -> Tt {
    (0..1u64 << NVARS)
        .filter(|&a| {
            let asg: Vec<bool> = (0..NVARS).map(|v| a >> v & 1 == 1).collect();
            f.eval(&asg)
        })
        .fold(0, |m, a| m | 1 << a)
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

/// The odd variables, quantified away before an even-to-odd rename.
fn odd_vars() -> Vec<VarId> {
    (1..NVARS).step_by(2).map(VarId::from_index).collect()
}

fn even_to_odd() -> Vec<(VarId, VarId)> {
    (0..NVARS)
        .step_by(2)
        .map(|v| (VarId::from_index(v), VarId::from_index(v + 1)))
        .collect()
}

/// `rename`, `exists` and `sat_count` of `f` agree with the same
/// operations on a copy of `f` built in a fresh manager.
fn check_traversals(f: &Bdd, tt: Tt) {
    let odd = odd_vars();
    let even_only = f.exists(&odd).unwrap();
    let renamed = even_only.rename(&even_to_odd()).unwrap();
    let shadow = odd.iter().fold(tt, |t, v| exists_tt(t, v.index()));
    assert_eq!(truth_table(&even_only), shadow);
    assert_eq!(truth_table(&renamed), rename_even_to_odd_tt(shadow));

    let fresh = BddManager::with_vars(NVARS);
    let g = from_tt(&fresh, tt, 0);
    let g_even = g.exists(&odd).unwrap();
    assert_eq!(truth_table(&g_even), truth_table(&even_only));
    assert_eq!(
        truth_table(&g_even.rename(&even_to_odd()).unwrap()),
        truth_table(&renamed)
    );
    assert_eq!(f.sat_count(NVARS), g.sat_count(NVARS));
    assert_eq!(f.sat_count(NVARS), u128::from(tt.count_ones()));
    assert_eq!(
        renamed.sat_count(NVARS),
        g_even.rename(&even_to_odd()).unwrap().sat_count(NVARS)
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
    let m = BddManager::with_vars(NVARS);
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
                let i = pick(&mut rng, &pool);
                let v = rng.gen_range(0..NVARS);
                let f = pool[i].0.exists(&[VarId::from_index(v)]).unwrap();
                pool.push((f, exists_tt(pool[i].1, v)));
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
