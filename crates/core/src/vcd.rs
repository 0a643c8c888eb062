//! Value Change Dump (VCD) export of three-valued simulations.
//!
//! Dumps the per-net waveforms of a dense three-valued simulation —
//! fault-free or with one fault injected — in the standard IEEE 1364 VCD
//! format (loadable in GTKWave and friends). `X` values map to VCD's `x`.

use std::fmt::Write as _;

use motsim_logic::V3;
use motsim_netlist::{NetId, Netlist};

use crate::faults::Fault;
use crate::frame::{self, Stuck};
use crate::pattern::TestSequence;

/// Which nets to include in a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scope {
    /// Primary inputs, outputs and flip-flop outputs only.
    #[default]
    Interface,
    /// Every net of the circuit.
    All,
}

fn vcd_id(i: usize) -> String {
    // Printable VCD identifier characters: '!'..='~'.
    let mut i = i;
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn v3_char(v: V3) -> char {
    match v {
        V3::Zero => '0',
        V3::One => '1',
        V3::X => 'x',
    }
}

fn selected(netlist: &Netlist, scope: Scope) -> Vec<NetId> {
    match scope {
        Scope::All => netlist.net_ids().collect(),
        Scope::Interface => {
            let mut nets: Vec<NetId> = netlist
                .inputs()
                .iter()
                .chain(netlist.outputs())
                .chain(netlist.dffs())
                .copied()
                .collect();
            nets.sort();
            nets.dedup();
            nets
        }
    }
}

/// Dumps the fault-free simulation of `seq` as VCD text. One VCD time unit
/// per clock cycle.
///
/// # Example
///
/// ```
/// use motsim::vcd::{dump, Scope};
/// use motsim::TestSequence;
///
/// let circuit = motsim_circuits::s27();
/// let seq = TestSequence::random(&circuit, 10, 1);
/// let text = dump(&circuit, &seq, Scope::Interface);
/// assert!(text.contains("$enddefinitions"));
/// ```
pub fn dump(netlist: &Netlist, seq: &TestSequence, scope: Scope) -> String {
    dump_with_fault(netlist, seq, None, scope)
}

/// Dumps a simulation as VCD text, optionally with `fault` injected; the
/// faulty run is a full per-frame re-simulation, so every net shows its
/// faulty waveform.
pub fn dump_with_fault(
    netlist: &Netlist,
    seq: &TestSequence,
    fault: Option<Fault>,
    scope: Scope,
) -> String {
    let nets = selected(netlist, scope);
    let mut out = String::new();
    let _ = writeln!(out, "$date motsim $end");
    let _ = writeln!(out, "$version motsim {} $end", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(out, "$timescale 1 ns $end");
    let _ = writeln!(out, "$scope module {} $end", netlist.name());
    for (i, &n) in nets.iter().enumerate() {
        let _ = writeln!(
            out,
            "$var wire 1 {} {} $end",
            vcd_id(i),
            netlist.net(n).name()
        );
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    let stuck = fault.map(Stuck::new);
    let mut state = vec![V3::X; netlist.num_dffs()];
    let mut frame_vals: Vec<V3> = Vec::new();
    let mut last: Vec<Option<V3>> = vec![None; nets.len()];
    for (t, v) in seq.iter().enumerate() {
        frame::eval_frame(netlist, &state, frame::known(v), stuck, &mut frame_vals);
        frame::next_state(netlist, &frame_vals, stuck, &mut state);
        let _ = writeln!(out, "#{t}");
        for (i, &n) in nets.iter().enumerate() {
            let val = frame_vals[n.index()];
            if last[i] != Some(val) {
                let _ = writeln!(out, "{}{}", v3_char(val), vcd_id(i));
                last[i] = Some(val);
            }
        }
    }
    let _ = writeln!(out, "#{}", seq.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_netlist::Lead;

    #[test]
    fn header_and_vars_present() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 5, 1);
        let vcd = dump(&n, &seq, Scope::Interface);
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("G17")); // the PO by name
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#5"));
    }

    #[test]
    fn all_scope_includes_internal_nets() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 3, 1);
        let small = dump(&n, &seq, Scope::Interface);
        let big = dump(&n, &seq, Scope::All);
        assert!(big.matches("$var").count() > small.matches("$var").count());
        assert!(big.contains("G10"));
    }

    #[test]
    fn initial_values_are_x_for_state() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::new(4, vec![vec![true; 4]]);
        let vcd = dump(&n, &seq, Scope::Interface);
        // At least one x value is dumped at time 0 (unknown state bits).
        let after0 = vcd.split("#0").nth(1).unwrap();
        assert!(after0.lines().any(|l| l.starts_with('x')));
    }

    #[test]
    fn only_changes_are_dumped() {
        // Constant input over two frames: the second frame dumps nothing
        // for the input net.
        let n = motsim_circuits::c17();
        let seq = TestSequence::new(5, vec![vec![true; 5], vec![true; 5]]);
        let vcd = dump(&n, &seq, Scope::Interface);
        let frame1 = vcd.split("#1").nth(1).unwrap().split('#').next().unwrap();
        assert_eq!(frame1.trim(), "", "no changes expected in frame 1");
    }

    #[test]
    fn faulty_dump_differs_from_fault_free() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 10, 2);
        let g17 = n.find("G17").unwrap();
        let fault = Fault::stuck_at_1(Lead::stem(g17));
        let good = dump(&n, &seq, Scope::Interface);
        let bad = dump_with_fault(&n, &seq, Some(fault), Scope::Interface);
        assert_ne!(good, bad);
        assert_eq!(good.lines().next(), bad.lines().next());
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let ids: Vec<String> = (0..500).map(vcd_id).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }
}
