//! Property tests of the logic crate: algebraic laws of `V3` and its
//! gate evaluation, and the soundness of the `V4` gate transfer that static
//! `ID_X-red` reads from SCOAP controllability.
//! Driven by the `motsim-check` harness, so they run in the default
//! offline `cargo test`.

use motsim::xred::XRedAnalysis;
use motsim_check::{forall, Config, NoShrink};
use motsim_logic::{eval_gate, V3, V4};
use motsim_netlist::builder::NetlistBuilder;
use motsim_netlist::{GateKind, Lead, NetId};
use motsim_rng::SmallRng;

fn gen_v3(rng: &mut SmallRng) -> V3 {
    [V3::Zero, V3::One, V3::X][rng.gen_range(0..3)]
}

fn gen_v4(rng: &mut SmallRng) -> V4 {
    V4::ALL[rng.gen_range(0..4)]
}

/// A concrete value that is a member of `v4` (so soundness cases are built
/// by construction instead of generate-and-discard).
fn gen_member_of(rng: &mut SmallRng, v4: V4) -> V3 {
    let mut pool = vec![V3::X];
    if v4.has_zero() {
        pool.push(V3::Zero);
    }
    if v4.has_one() {
        pool.push(V3::One);
    }
    pool[rng.gen_range(0..pool.len())]
}

/// v3 ∈ γ(v4): the concrete value is a member of the abstract set.
fn member(v3: V3, v4: V4) -> bool {
    match v3 {
        V3::X => true,
        V3::Zero => v4.has_zero(),
        V3::One => v4.has_one(),
    }
}

/// A net that can be set to exactly the binary values of `v4`: a primary
/// input for `{X,0,1}`, otherwise a flip-flop (initially `X`) whose next
/// state is `AND(Q, A)` (never 1), `OR(Q, A)` (never 0) or `Q` itself.
fn source(b: &mut NetlistBuilder, name: &str, v4: V4) -> NetId {
    if v4 == V4::X01 {
        return b.add_input(name).unwrap();
    }
    let q = b.add_dff(name).unwrap();
    let d = if v4 == V4::X {
        b.add_gate(&format!("{name}_d"), GateKind::Buf, vec![q])
    } else {
        let a = b.add_input(&format!("{name}_a")).unwrap();
        let kind = if v4 == V4::X0 {
            GateKind::And
        } else {
            GateKind::Or
        };
        b.add_gate(&format!("{name}_d"), kind, vec![q, a])
    };
    b.connect_dff(q, d.unwrap()).unwrap();
    q
}

/// The `V4` value static `ID_X-red` gives a `kind` gate whose pins are
/// driven by sources of the values `pins`.
fn static_transfer(kind: GateKind, pins: &[V4]) -> V4 {
    let mut b = NetlistBuilder::new("transfer");
    let fanin = pins
        .iter()
        .enumerate()
        .map(|(i, &v)| source(&mut b, &format!("P{i}"), v))
        .collect();
    let z = b.add_gate("Z", kind, fanin).unwrap();
    b.add_output(z);
    let n = b.finish().unwrap();
    XRedAnalysis::analyze_static(&n).ix(Lead::stem(z))
}

fn gen_kind(rng: &mut SmallRng) -> GateKind {
    [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ][rng.gen_range(0..6)]
}

fn config() -> Config {
    Config {
        cases: 128,
        ..Config::default()
    }
}

fn check<T, G>(name: &str, generate: G, property: impl Fn(&T) -> Result<(), String>)
where
    T: Clone + std::fmt::Debug,
    G: Fn(&mut SmallRng) -> T,
{
    // Logic values are atoms — nothing meaningful to shrink.
    let outcome = forall(
        &config(),
        name,
        |rng| NoShrink(generate(rng)),
        |v| property(&v.0),
    );
    if let Err(cex) = outcome {
        panic!(
            "property `{}` violated (case {}, seed {:#x}): {} on {:?}",
            cex.law, cex.case_index, cex.case_seed, cex.message, cex.shrunk.0
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

/// Kleene associativity of AND/OR/XOR over arbitrary triples.
#[test]
fn associativity() {
    check(
        "associativity",
        |rng| (gen_v3(rng), gen_v3(rng), gen_v3(rng)),
        |&(a, b, c)| {
            ensure(a.and(b).and(c) == a.and(b.and(c)), || "AND".into())?;
            ensure(a.or(b).or(c) == a.or(b.or(c)), || "OR".into())?;
            ensure(a.xor(b).xor(c) == a.xor(b.xor(c)), || "XOR".into())
        },
    );
}

/// Distributivity of AND over OR in Kleene logic.
#[test]
fn distributivity() {
    check(
        "distributivity",
        |rng| (gen_v3(rng), gen_v3(rng), gen_v3(rng)),
        |&(a, b, c)| {
            ensure(a.and(b.or(c)) == a.and(b).or(a.and(c)), || {
                format!("a={a} b={b} c={c}")
            })
        },
    );
}

/// Monotonicity in the information order: replacing an `X` input by a
/// known value never turns a known output into a different known value.
#[test]
fn x_refinement_is_monotone() {
    check(
        "x-refinement-is-monotone",
        |rng| {
            let kind = gen_kind(rng);
            let inputs: Vec<V3> = (0..rng.gen_range(1..5)).map(|_| gen_v3(rng)).collect();
            let pos = rng.gen_range(0..inputs.len());
            let refine = rng.gen_bool(0.5);
            (kind, inputs, pos, refine)
        },
        |(kind, inputs, pos, refine)| {
            let base = eval_gate(*kind, inputs);
            if inputs[*pos] == V3::X {
                let mut refined = inputs.clone();
                refined[*pos] = V3::from_bool(*refine);
                let out = eval_gate(*kind, &refined);
                if base.is_known() {
                    ensure(out == base, || "refinement changed a known output".into())?;
                }
            }
            Ok(())
        },
    );
}

/// Double negation and De Morgan over whole gates: NAND = NOT ∘ AND.
#[test]
fn inverting_kinds_are_negations() {
    check(
        "inverting-kinds-are-negations",
        |rng| {
            (0..rng.gen_range(1..5))
                .map(|_| gen_v3(rng))
                .collect::<Vec<V3>>()
        },
        |inputs| {
            ensure(
                eval_gate(GateKind::Nand, inputs) == !eval_gate(GateKind::And, inputs),
                || "NAND is not NOT AND".into(),
            )?;
            ensure(
                eval_gate(GateKind::Nor, inputs) == !eval_gate(GateKind::Or, inputs),
                || "NOR is not NOT OR".into(),
            )?;
            ensure(
                eval_gate(GateKind::Xnor, inputs) == !eval_gate(GateKind::Xor, inputs),
                || "XNOR is not NOT XOR".into(),
            )
        },
    );
}

/// Soundness of the `V4` gate transfer of static `ID_X-red` (the finiteness
/// of SCOAP controllability): whenever concrete inputs are members of the
/// abstract inputs, the concrete output is a member of the abstract output.
/// (Members are generated by construction.)
#[test]
fn v4_transfer_is_sound() {
    check(
        "v4-transfer-is-sound",
        |rng| {
            let kind = gen_kind(rng);
            let pairs: Vec<(V3, V4)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let a = gen_v4(rng);
                    (gen_member_of(rng, a), a)
                })
                .collect();
            (kind, pairs)
        },
        |(kind, pairs)| {
            assert!(pairs.iter().all(|&(c, a)| member(c, a)));
            let concrete: Vec<V3> = pairs.iter().map(|&(c, _)| c).collect();
            let abst: Vec<V4> = pairs.iter().map(|&(_, a)| a).collect();
            let out_c = eval_gate(*kind, &concrete);
            let out_a = static_transfer(*kind, &abst);
            ensure(member(out_c, out_a), || {
                format!("{kind}: {out_c} not in {out_a}")
            })
        },
    );
}

/// The sources of [`static_transfer`] hold what they claim: a `BUF` of
/// each one reads back its own value.
#[test]
fn v4_transfer_sources_hold_their_values() {
    for v in V4::ALL {
        assert_eq!(static_transfer(GateKind::Buf, &[v]), v, "{v}");
    }
}
