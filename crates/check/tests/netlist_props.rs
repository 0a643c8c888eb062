//! Property tests of the netlist substrate: arbitrary well-formed builder
//! programs produce valid, round-trippable netlists. Driven by the
//! `motsim-check` harness (in-tree RNG + shrinking), so they run in the
//! default offline `cargo test`.

use motsim_check::{forall, Config, Shrinker};
use motsim_netlist::analysis::{fanin_cone, fanout_cone};
use motsim_netlist::builder::NetlistBuilder;
use motsim_netlist::parse::parse_bench;
use motsim_netlist::write::to_bench;
use motsim_netlist::{GateKind, NetId, Netlist};
use motsim_rng::SmallRng;

/// A recipe for one random, always-valid circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Recipe {
    inputs: usize,
    dffs: usize,
    gates: Vec<(u8, Vec<usize>)>, // (kind tag, fanin picks modulo pool)
    outputs: Vec<usize>,
    dff_ds: Vec<usize>,
}

impl Shrinker for Recipe {
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Drop gates (keeping at least one), then outputs, then flip-flops,
        // then inputs. Every candidate stays well-formed by construction:
        // picks are taken modulo the pool, so any pool size works.
        for i in 0..self.gates.len() {
            if self.gates.len() > 1 {
                let mut r = self.clone();
                r.gates.remove(i);
                out.push(r);
            }
        }
        for i in 0..self.outputs.len() {
            if self.outputs.len() > 1 {
                let mut r = self.clone();
                r.outputs.remove(i);
                out.push(r);
            }
        }
        if self.dffs > 0 {
            let mut r = self.clone();
            r.dffs -= 1;
            out.push(r);
        }
        if self.inputs > 1 {
            let mut r = self.clone();
            r.inputs -= 1;
            out.push(r);
        }
        out
    }
}

fn gen_recipe(rng: &mut SmallRng) -> Recipe {
    let gates = (0..rng.gen_range(1..20))
        .map(|_| {
            let tag = rng.gen_range(0..8) as u8;
            let picks = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..64))
                .collect();
            (tag, picks)
        })
        .collect();
    Recipe {
        inputs: rng.gen_range(1..5),
        dffs: rng.gen_range(0..4),
        gates,
        outputs: (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(0..64))
            .collect(),
        dff_ds: (0..rng.gen_range(0..4))
            .map(|_| rng.gen_range(0..64))
            .collect(),
    }
}

fn build(r: &Recipe) -> Netlist {
    let mut b = NetlistBuilder::new("prop");
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..r.inputs {
        pool.push(b.add_input(&format!("I{i}")).unwrap());
    }
    let mut qs = Vec::new();
    for i in 0..r.dffs {
        let q = b.add_dff(&format!("Q{i}")).unwrap();
        qs.push(q);
        pool.push(q);
    }
    let kinds = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for (i, (tag, picks)) in r.gates.iter().enumerate() {
        let kind = kinds[*tag as usize % kinds.len()];
        let fanin: Vec<NetId> = if kind.is_unary() {
            vec![pool[picks[0] % pool.len()]]
        } else {
            picks.iter().map(|&p| pool[p % pool.len()]).collect()
        };
        let g = b.add_gate(&format!("G{i}"), kind, fanin).unwrap();
        pool.push(g);
    }
    for (i, &q) in qs.iter().enumerate() {
        let d = r.dff_ds.get(i).copied().unwrap_or(i);
        b.connect_dff(q, pool[d % pool.len()]).unwrap();
    }
    for &o in &r.outputs {
        b.add_output(pool[o % pool.len()]);
    }
    b.finish()
        .expect("recipe circuits are acyclic by construction")
}

fn check(name: &str, property: impl Fn(&Netlist) -> Result<(), String>) {
    let config = Config {
        cases: 48,
        ..Config::default()
    };
    if let Err(cex) = forall(&config, name, gen_recipe, |r| property(&build(r))) {
        panic!(
            "property `{}` violated (case {}, seed {:#x}): {}\nshrunk recipe: {:?}",
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

/// Eval order is topological and complete.
#[test]
fn levelization_is_topological() {
    check("levelization-is-topological", |n| {
        let mut seen = vec![false; n.num_nets()];
        for id in n.inputs().iter().chain(n.dffs()) {
            seen[id.index()] = true;
        }
        for &g in n.eval_order() {
            for &f in n.net(g).fanin() {
                ensure(seen[f.index()], || "fanin evaluated after gate".into())?;
            }
            seen[g.index()] = true;
        }
        ensure(n.net_ids().all(|i| seen[i.index()]), || {
            "eval order misses nets".into()
        })?;
        for &g in n.eval_order() {
            for &f in n.net(g).fanin() {
                ensure(n.level(f) < n.level(g), || {
                    "levels not strictly increasing".into()
                })?;
            }
        }
        Ok(())
    });
}

/// Writer → parser round-trip preserves everything observable.
#[test]
fn round_trip() {
    check("round-trip", |n| {
        let text = to_bench(n);
        let m = parse_bench("prop", &text).map_err(|e| format!("reparse failed: {e}"))?;
        ensure(n.num_nets() == m.num_nets(), || "net count changed".into())?;
        ensure(n.num_gates() == m.num_gates(), || {
            "gate count changed".into()
        })?;
        for id in n.net_ids() {
            let a = n.net(id);
            let bid = m
                .find(a.name())
                .ok_or_else(|| format!("net {} lost", a.name()))?;
            let b = m.net(bid);
            ensure(a.kind() == b.kind(), || {
                format!("kind of {} changed", a.name())
            })?;
            let fa: Vec<&str> = a.fanin().iter().map(|&f| n.net(f).name()).collect();
            let fb: Vec<&str> = b.fanin().iter().map(|&f| m.net(f).name()).collect();
            ensure(fa == fb, || format!("fanin of {} changed", a.name()))?;
        }
        Ok(())
    });
}

/// Fanout tables are the exact inverse of fanin tables.
#[test]
fn fanout_inverts_fanin() {
    check("fanout-inverts-fanin", |n| {
        for id in n.net_ids() {
            for &(sink, pin) in n.fanout(id) {
                ensure(n.net(sink).fanin()[pin as usize] == id, || {
                    "fanout entry does not point back".into()
                })?;
            }
            let count: usize = n
                .net_ids()
                .map(|s| n.net(s).fanin().iter().filter(|&&f| f == id).count())
                .sum();
            ensure(n.fanout(id).len() == count, || {
                "fanout count does not match fanin references".into()
            })?;
        }
        Ok(())
    });
}

/// Cones are closed and mutually consistent: `a ∈ fanin_cone(b)` iff
/// `b ∈ fanout_cone(a)`.
#[test]
fn cones_are_consistent() {
    check("cones-are-consistent", |n| {
        // Check on a few nets to bound the cost.
        let ids: Vec<NetId> = n.net_ids().collect();
        for &a in ids.iter().take(5) {
            let fo = fanout_cone(n, a);
            for &b in fo.iter().take(10) {
                let fi = fanin_cone(n, b);
                ensure(fi.contains(&a), || format!("{a} -> {b} not inverted"))?;
            }
        }
        Ok(())
    });
}

/// Lead enumeration: one stem per net; branches exactly on nets with
/// fanout ≥ 2, one per sink pin.
#[test]
fn leads_are_exact() {
    check("leads-are-exact", |n| {
        let leads = n.leads();
        let stems = leads.iter().filter(|l| l.is_stem()).count();
        ensure(stems == n.num_nets(), || "not one stem per net".into())?;
        for id in n.net_ids() {
            let fo = n.fanout(id);
            let branches = leads.iter().filter(|l| !l.is_stem() && l.net == id).count();
            let expected = if fo.len() >= 2 { fo.len() } else { 0 };
            ensure(branches == expected, || {
                "branch leads do not match fanout".into()
            })?;
        }
        Ok(())
    });
}

/// Applies `edits` seeded random character inserts, deletes and
/// replacements to `text`, drawing new characters from the `.bench`
/// syntax, a few letters and digits, and one non-ASCII letter.
fn mutate(text: &str, edits: usize, rng: &mut SmallRng) -> String {
    const ALPHABET: &[char] = &[
        '(', ')', '=', ',', '#', '\n', '\r', ' ', '\t', 'A', 'D', 'F', 'N', 'O', 'T', 'a', 'q',
        '0', '1', '_', 'é',
    ];
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..edits {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        let at = rng.gen_range(0..chars.len() + 1);
        match rng.gen_range(0..3) {
            0 => chars.insert(at, c),
            _ if at == chars.len() => {}
            1 => {
                chars.remove(at);
            }
            _ => chars[at] = c,
        }
    }
    chars.into_iter().collect()
}

/// The parser never panics on malformed input: seeded random edits of
/// written recipe netlists either parse or return an error, and whatever
/// parses is a write → parse → write fixpoint.
#[test]
fn mutated_bench_text_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xBE0C);
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..400 {
        let text = to_bench(&build(&gen_recipe(&mut rng)));
        for _ in 0..4 {
            let edits = rng.gen_range(1..6);
            let mutated = mutate(&text, edits, &mut rng);
            let result = std::panic::catch_unwind(|| parse_bench("mutated", &mutated))
                .unwrap_or_else(|_| panic!("case {case}: the parser panicked on\n{mutated}"));
            let Ok(n) = result else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            let written = to_bench(&n);
            let again = parse_bench("mutated", &written)
                .unwrap_or_else(|e| panic!("case {case}: {e} on rereading\n{written}"));
            assert_eq!(to_bench(&again), written, "case {case}: not a fixpoint");
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
