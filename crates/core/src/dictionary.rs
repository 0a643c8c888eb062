//! Fault dictionaries and simple diagnosis.
//!
//! A *fault dictionary* records, for every fault, the complete set of
//! observation points `(frame, output)` at which the fault produces a
//! known discrepancy under three-valued simulation (the classical
//! pass/fail dictionary). Given the failures observed on a tester, the
//! dictionary narrows the defect down to the faults whose signatures are
//! consistent with the observation.
//!
//! This is downstream tooling the paper's fault simulator enables: the
//! dictionary construction is just fault simulation *without fault
//! dropping*, so every entry reuses the engines of [`crate::sim3`].
//!
//! Dictionaries built under three-valued logic are conservative: a fault's
//! signature lists only discrepancies that occur for **every** initial
//! state (known fault-free value vs known, different faulty value). An
//! observed failure outside any signature therefore never falsifies a
//! candidate; matching is done on the subset relation.

use std::collections::BTreeSet;

use motsim_logic::V3;
use motsim_netlist::Netlist;

use crate::faults::Fault;
use crate::pattern::TestSequence;
use crate::sim3::TrueSim;

/// An observation point: output `output` at frame `frame` shows a value
/// different from the fault-free circuit.
pub type Failure = (usize, usize);

/// A complete pass/fail fault dictionary for one circuit and sequence.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    entries: Vec<(Fault, BTreeSet<Failure>)>,
    frames: usize,
}

impl FaultDictionary {
    /// Builds the dictionary by full (no-drop) three-valued fault
    /// simulation of every fault.
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::dictionary::FaultDictionary;
    /// use motsim::{FaultList, TestSequence};
    ///
    /// let circuit = motsim_circuits::s27();
    /// let faults = FaultList::collapsed(&circuit);
    /// let seq = TestSequence::random(&circuit, 50, 1);
    /// let dict = FaultDictionary::build(&circuit, &seq, faults.iter().cloned());
    /// assert!(dict.detectable().count() > 0);
    /// ```
    pub fn build(
        netlist: &Netlist,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
    ) -> Self {
        // Fault-free reference once.
        let mut good = TrueSim::new(netlist);
        let reference: Vec<Vec<V3>> = seq
            .iter()
            .map(|v| {
                good.step(v);
                good.outputs()
            })
            .collect();

        let entries = faults
            .into_iter()
            .map(|fault| {
                let sig = signature(netlist, seq, fault, &reference);
                (fault, sig)
            })
            .collect();
        FaultDictionary {
            entries,
            frames: seq.len(),
        }
    }

    /// Number of faults in the dictionary.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frames covered.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The signature of a fault, if present.
    pub fn signature(&self, fault: Fault) -> Option<&BTreeSet<Failure>> {
        self.entries
            .iter()
            .find(|(f, _)| *f == fault)
            .map(|(_, s)| s)
    }

    /// Faults whose signature is non-empty (detectable by the sequence
    /// under three-valued logic).
    pub fn detectable(&self) -> impl Iterator<Item = Fault> + '_ {
        self.entries
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(f, _)| *f)
    }

    /// Diagnosis: the candidate faults consistent with the observed
    /// failures.
    ///
    /// A fault is a candidate iff its (conservative) signature is a subset
    /// of the observed failures — the fault would necessarily have produced
    /// each signature failure, and further observed failures may stem from
    /// initial-state effects the three-valued dictionary could not predict.
    /// Faults with empty signatures are excluded unless `observed` is empty.
    pub fn diagnose(&self, observed: &BTreeSet<Failure>) -> Vec<Fault> {
        self.entries
            .iter()
            .filter(|(_, sig)| {
                if observed.is_empty() {
                    sig.is_empty()
                } else {
                    !sig.is_empty() && sig.is_subset(observed)
                }
            })
            .map(|(f, _)| *f)
            .collect()
    }

    /// Groups faults with identical signatures (indistinguishable by this
    /// sequence); returns the groups with more than one member, largest
    /// first — the resolution limit of the test set.
    pub fn equivalence_classes(&self) -> Vec<Vec<Fault>> {
        use std::collections::HashMap;
        let mut by_sig: HashMap<&BTreeSet<Failure>, Vec<Fault>> = HashMap::new();
        for (f, sig) in &self.entries {
            by_sig.entry(sig).or_default().push(*f);
        }
        let mut classes: Vec<Vec<Fault>> = by_sig.into_values().filter(|c| c.len() > 1).collect();
        classes.sort_by_key(|c| std::cmp::Reverse(c.len()));
        classes
    }
}

/// The full failure signature of one fault (no fault dropping).
fn signature(
    netlist: &Netlist,
    seq: &TestSequence,
    fault: Fault,
    reference: &[Vec<V3>],
) -> BTreeSet<Failure> {
    let mut fstate = vec![V3::X; netlist.num_dffs()];
    let mut fvals = Vec::new();
    let mut sig = BTreeSet::new();
    for (t, v) in seq.iter().enumerate() {
        crate::sim3::eval_frame_with_fault(netlist, &fstate, v, fault, &mut fvals);
        for (j, &o) in netlist.outputs().iter().enumerate() {
            let (tv, fv) = (reference[t][j], fvals[o.index()]);
            if tv.is_known() && fv.is_known() && tv != fv {
                sig.insert((t, j));
            }
        }
        crate::sim3::next_state_with_fault(netlist, &fvals, fault, &mut fstate);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::sim3::FaultSim3;

    fn setup() -> (motsim_netlist::Netlist, FaultList, TestSequence) {
        let n = motsim_circuits::s27();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 60, 13);
        (n, faults, seq)
    }

    #[test]
    fn detectable_set_matches_fault_simulator() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        let sim = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let from_dict: BTreeSet<Fault> = dict.detectable().collect();
        let from_sim: BTreeSet<Fault> = sim.detected_faults().collect();
        assert_eq!(from_dict, from_sim);
    }

    #[test]
    fn first_signature_entry_matches_first_detection() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        let sim = FaultSim3::run(&n, &seq, faults.iter().cloned());
        for r in &sim.results {
            if let Some(det) = r.detection {
                let sig = dict.signature(r.fault).unwrap();
                let &(frame, output) = sig.iter().next().unwrap();
                assert_eq!((frame, output), (det.frame, det.output));
            }
        }
    }

    #[test]
    fn diagnosis_recovers_injected_fault() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        for fault in dict.detectable().take(8).collect::<Vec<_>>() {
            // Observed failures = the fault's own signature (the tester saw
            // exactly the guaranteed discrepancies).
            let observed = dict.signature(fault).unwrap().clone();
            let candidates = dict.diagnose(&observed);
            assert!(
                candidates.contains(&fault),
                "diagnosis lost {}",
                fault.display(&n)
            );
        }
    }

    #[test]
    fn empty_observation_yields_undetectable_candidates() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        let passing = dict.diagnose(&BTreeSet::new());
        for f in &passing {
            assert!(dict.signature(*f).unwrap().is_empty());
        }
        assert_eq!(passing.len() + dict.detectable().count(), faults.len());
    }

    #[test]
    fn equivalence_classes_partition_consistently() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        for class in dict.equivalence_classes() {
            assert!(class.len() > 1);
            let sig = dict.signature(class[0]).unwrap();
            for f in &class[1..] {
                assert_eq!(dict.signature(*f).unwrap(), sig);
            }
        }
    }

    #[test]
    fn accessors() {
        let (n, faults, seq) = setup();
        let dict = FaultDictionary::build(&n, &seq, faults.iter().cloned());
        assert_eq!(dict.len(), faults.len());
        assert!(!dict.is_empty());
        assert_eq!(dict.frames(), 60);
        let unknown = Fault::stuck_at_0(motsim_netlist::Lead::stem(
            motsim_netlist::NetId::from_index(0),
        ));
        // Either present or not — must not panic.
        let _ = dict.signature(unknown);
    }
}
