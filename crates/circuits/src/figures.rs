//! The circuits of the paper's Figures 1–3, each with its pinned input
//! vectors: tiny machines on which the SOT strategy provably fails and the
//! MOT (or rMOT) strategy succeeds.

use motsim_netlist::builder::NetlistBuilder;
use motsim_netlist::{GateKind, Netlist};

/// A netlist and the input vectors pinned for it, one `Vec<bool>` per frame.
pub type Figure = (Netlist, Vec<Vec<bool>>);

/// Fig. 1: `O = (A ⊕ Q) ⊕ B`, `Q' = Q`, vectors `([1,0], [0,0])`. With
/// `A` stuck-at-0 both machines stay uninitialized, no single observation
/// time tells them apart, yet their response sets are disjoint.
pub fn fig1() -> Figure {
    let mut b = NetlistBuilder::new("fig1");
    let a = b.add_input("A").unwrap();
    let c = b.add_input("B").unwrap();
    let q = b.add_dff("Q").unwrap();
    let keep = b.add_gate("KEEP", GateKind::Buf, vec![q]).unwrap();
    b.connect_dff(q, keep).unwrap();
    let x = b.add_gate("XR", GateKind::Xor, vec![a, q]).unwrap();
    let o = b.add_gate("O", GateKind::Xor, vec![x, c]).unwrap();
    b.add_output(o);
    let vectors = vec![vec![true, false], vec![false, false]];
    (b.finish().expect("fig1 is well-formed"), vectors)
}

/// Fig. 2: the 3-bit [`counter`](crate::generators::counter) with inputs
/// `(EN, CLR)` and the vectors clear, count ×4, clear, count ×8. They
/// synchronize the fault-free machine, but with `NCLR` stuck-at-1 the
/// faulty machine keeps counting from an unknown state: undetectable under
/// SOT, detected by rMOT and MOT.
pub fn fig2() -> Figure {
    let mut vectors = vec![vec![false, true]];
    vectors.extend(std::iter::repeat_n(vec![true, false], 4));
    vectors.push(vec![false, true]);
    vectors.extend(std::iter::repeat_n(vec![true, false], 8));
    (crate::generators::counter(3), vectors)
}

/// Fig. 3, the worked MOT example: `O = XNOR(A, Q)`, `Q' = Q`, vectors
/// `(1, 0)`. Fault-free outputs are `(x, x̄)`; with `A` stuck-at-0 they are
/// `(ȳ, ȳ)`, so `D(x,y) = [x ≡ ȳ]·[x ≡ y] ≡ 0`.
pub fn fig3() -> Figure {
    let mut b = NetlistBuilder::new("fig3");
    let a = b.add_input("A").unwrap();
    let q = b.add_dff("Q").unwrap();
    let keep = b.add_gate("KEEP", GateKind::Buf, vec![q]).unwrap();
    b.connect_dff(q, keep).unwrap();
    let o = b.add_gate("O", GateKind::Xnor, vec![a, q]).unwrap();
    b.add_output(o);
    let vectors = vec![vec![true], vec![false]];
    (b.finish().expect("fig3 is well-formed"), vectors)
}
