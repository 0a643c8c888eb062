//! Reference-counted external BDD handles.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::error::BddError;
use crate::manager::{BddManager, VarId};

/// A handle to a Boolean function stored in a [`BddManager`].
///
/// Handles are reference-counted roots: while a `Bdd` is alive, garbage
/// collection will not reclaim its nodes. Because the manager is canonical,
/// two handles compare [equal](PartialEq) iff they denote the same Boolean
/// function (and live in the same store).
///
/// The root is a *complement edge*: a node index plus a complement bit, so
/// [`not`](Bdd::not) is an infallible O(1) bit flip and a function shares
/// its entire subgraph with its negation. Operations that may allocate
/// nodes return `Result<Bdd, `[`BddError`]`>`; the only failure mode is
/// hitting the manager's configured live-node limit.
///
/// # Panics
///
/// Combining handles from different managers panics.
pub struct Bdd {
    pub(crate) mgr: BddManager,
    pub(crate) root: u32,
}

impl Bdd {
    /// The manager this function lives in.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    fn check_same(&self, other: &Bdd) {
        assert!(
            self.mgr.same_store(&other.mgr),
            "BDDs belong to different managers"
        );
    }

    /// Logical negation ¬self.
    ///
    /// With complement edges this is a constant-time flip of the root's
    /// complement bit: it never allocates a node and therefore cannot hit
    /// the node limit — hence no `Result`.
    pub fn not(&self) -> Bdd {
        self.mgr.wrap(self.root ^ 1)
    }

    /// Conjunction self ∧ other.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn and(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.check_same(other);
        let r = self.mgr.inner.borrow_mut().and(self.root, other.root)?;
        Ok(self.mgr.wrap(r))
    }

    /// Disjunction self ∨ other.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn or(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.check_same(other);
        let r = self.mgr.inner.borrow_mut().or(self.root, other.root)?;
        Ok(self.mgr.wrap(r))
    }

    /// Exclusive or self ⊕ other.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn xor(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.check_same(other);
        let r = self.mgr.inner.borrow_mut().xor(self.root, other.root)?;
        Ok(self.mgr.wrap(r))
    }

    /// Equivalence self ≡ other (XNOR). This is the `[a ≡ b]` operator the
    /// paper's detection functions are built from.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn equiv(&self, other: &Bdd) -> Result<Bdd, BddError> {
        self.check_same(other);
        let r = self.mgr.inner.borrow_mut().xnor(self.root, other.root)?;
        Ok(self.mgr.wrap(r))
    }

    /// If-then-else: self ? then : otherwise.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn ite(&self, then: &Bdd, otherwise: &Bdd) -> Result<Bdd, BddError> {
        self.check_same(then);
        self.check_same(otherwise);
        let r = self
            .mgr
            .inner
            .borrow_mut()
            .ite(self.root, then.root, otherwise.root)?;
        Ok(self.mgr.wrap(r))
    }

    /// Is this the constant ⊤?
    pub fn is_true(&self) -> bool {
        self.root == crate::manager::TRUE
    }

    /// Is this the constant ⊥?
    pub fn is_false(&self) -> bool {
        self.root == crate::manager::FALSE
    }

    /// Is this a constant function? (The paper's `o(x,t) ∈ {0,1}` test.)
    pub fn is_const(&self) -> bool {
        self.is_true() || self.is_false()
    }

    /// The constant value, if this is a constant.
    pub fn const_value(&self) -> Option<bool> {
        match self.root {
            crate::manager::FALSE => Some(false),
            crate::manager::TRUE => Some(true),
            _ => None,
        }
    }

    /// The topmost (order-least) variable, or `None` for constants.
    pub fn top_var(&self) -> Option<VarId> {
        self.mgr
            .inner
            .borrow()
            .node_triple(self.root)
            .map(|(v, _, _)| VarId(v))
    }

    /// Renames variables according to `map` (pairs `(from, to)`).
    ///
    /// The map, extended with the identity outside its domain, must be
    /// strictly order-preserving (in current *levels*, not ids) on the
    /// support of `self`; this makes the rename a single linear-time
    /// traversal. The MOT substitution `x_i → y_i` satisfies this under the
    /// interleaved variable order, and stays valid under dynamic reordering
    /// because [`BddManager::sift`](crate::BddManager::sift) moves each
    /// `(x_i, y_i)` pair as a rigid group.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    ///
    /// # Panics
    ///
    /// Panics if the extended map is not strictly order-preserving on the
    /// support (the rename would not be a valid reordering-free operation).
    pub fn rename(&self, map: &[(VarId, VarId)]) -> Result<Bdd, BddError> {
        let r = self.mgr.inner.borrow_mut().rename(self.root, map)?;
        Ok(self.mgr.wrap(r))
    }

    /// The set of variables this function depends on, sorted by their
    /// current level (identical to id order until the first
    /// [`BddManager::sift`](crate::BddManager::sift)).
    pub fn support(&self) -> Vec<VarId> {
        self.mgr
            .inner
            .borrow_mut()
            .support(self.root)
            .into_iter()
            .map(VarId)
            .collect()
    }

    /// Number of internal nodes of this function's graph.
    pub fn size(&self) -> usize {
        self.mgr.inner.borrow_mut().size(&[self.root])
    }

    /// Evaluates under a total assignment indexed by variable (`assignment[v]`
    /// is the value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is too short for the support.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.mgr.inner.borrow().eval(self.root, assignment)
    }

    /// Number of satisfying assignments over the variable set `{0 .. nvars}`.
    /// Saturates at `u128::MAX`, so any `nvars` works: a count over more
    /// than 127 free variables saturates whatever its exact value.
    ///
    /// One memoized traversal of the graph does the counting, after one
    /// pass over the manager's levels that ranks them among the counted
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars` does not cover the support; the traversal checks
    /// each node's variable as it reaches it.
    pub fn sat_count(&self, nvars: usize) -> u128 {
        // Clamping is exact: past 2^32 − 1 variables every non-zero count
        // saturates.
        let nvars = u32::try_from(nvars).unwrap_or(u32::MAX);
        self.mgr.inner.borrow_mut().sat_count(self.root, nvars)
    }

    /// A satisfying partial assignment (variables not mentioned are free),
    /// or `None` if the function is ⊥.
    pub fn any_sat(&self) -> Option<Vec<(VarId, bool)>> {
        self.mgr
            .inner
            .borrow()
            .any_sat(self.root)
            .map(|v| v.into_iter().map(|(a, b)| (VarId(a), b)).collect())
    }

    /// The raw packed root edge: node index in the upper bits, complement
    /// bit in bit 0 (so `0` = ⊤ and `1` = ⊥). Stable between garbage
    /// collections while this handle is alive; useful as a hash key for
    /// memoized traversals. `f.raw_root() ^ 1 == f.not().raw_root()`.
    pub fn raw_root(&self) -> u32 {
        self.root
    }

    /// Whether the root edge carries the complement bit. Purely
    /// representational: `f` and `f.not()` point at the same node, one of
    /// them through a complemented edge.
    pub fn is_complemented(&self) -> bool {
        self.root & 1 == 1
    }

    /// The regular (uncomplemented) version of this edge: `self` if the
    /// root is regular, `self.not()` otherwise. Useful for traversals that
    /// want one representative per node.
    pub fn regular(&self) -> Bdd {
        self.mgr.wrap(self.root & !1)
    }

    /// The `(var, low, high)` triple of the root node, or `None` for
    /// constants. Exposed for traversals (e.g. DOT export).
    pub fn root_triple(&self) -> Option<(VarId, Bdd, Bdd)> {
        let triple = self.mgr.inner.borrow().node_triple(self.root);
        triple.map(|(v, lo, hi)| (VarId(v), self.mgr.wrap(lo), self.mgr.wrap(hi)))
    }
}

impl Clone for Bdd {
    fn clone(&self) -> Self {
        self.mgr.wrap(self.root)
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        self.mgr.inner.borrow_mut().dec_ext(self.root);
    }
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root && self.mgr.same_store(&other.mgr)
    }
}

impl Eq for Bdd {}

impl Hash for Bdd {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.root.hash(state);
        (Rc::as_ptr(&self.mgr.inner) as usize).hash(state);
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            write!(f, "Bdd(⊤)")
        } else if self.is_false() {
            write!(f, "Bdd(⊥)")
        } else {
            write!(f, "Bdd(#{} size={})", self.root, self.size())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (BddManager, Bdd, Bdd, Bdd) {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        (m, x, y, z)
    }

    #[test]
    fn boolean_algebra_laws() {
        let (m, x, y, z) = setup3();
        let one = m.one();
        let zero = m.zero();
        assert_eq!(x.and(&one).unwrap(), x);
        assert_eq!(x.and(&zero).unwrap(), zero);
        assert_eq!(x.or(&zero).unwrap(), x);
        assert_eq!(x.or(&x.not()).unwrap(), one);
        assert_eq!(x.and(&x.not()).unwrap(), zero);
        // Distributivity
        let lhs = x.and(&y.or(&z).unwrap()).unwrap();
        let rhs = x.and(&y).unwrap().or(&x.and(&z).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
        // xor/equiv duality
        assert_eq!(x.xor(&y).unwrap().not(), x.equiv(&y).unwrap());
    }

    #[test]
    fn ite_matches_definition() {
        let (_, x, y, z) = setup3();
        let f = x.ite(&y, &z).unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let expect = if a { b } else { c };
                    assert_eq!(f.eval(&[a, b, c]), expect);
                }
            }
        }
    }

    #[test]
    fn rename_monotone() {
        let m = BddManager::with_vars(4);
        let x0 = m.var(VarId(0));
        let x1 = m.var(VarId(2));
        let f = x0.xor(&x1).unwrap();
        // interleaved rename x(even) -> y(odd)
        let g = f
            .rename(&[(VarId(0), VarId(1)), (VarId(2), VarId(3))])
            .unwrap();
        let y0 = m.var(VarId(1));
        let y1 = m.var(VarId(3));
        assert_eq!(g, y0.xor(&y1).unwrap());
        // identity rename
        assert_eq!(f.rename(&[]).unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "order-preserving")]
    fn rename_rejects_non_monotone() {
        let m = BddManager::with_vars(2);
        let x0 = m.var(VarId(0));
        let x1 = m.var(VarId(1));
        let f = x0.and(&x1).unwrap();
        // Swapping is not monotone.
        let _ = f.rename(&[(VarId(0), VarId(1)), (VarId(1), VarId(0))]);
    }

    #[test]
    fn support_and_size() {
        let (_, x, y, z) = setup3();
        let f = x.and(&y).unwrap().or(&z).unwrap();
        assert_eq!(f.support(), vec![VarId(0), VarId(1), VarId(2)]);
        assert!(f.size() >= 3);
        assert_eq!(x.support(), vec![VarId(0)]);
        assert_eq!(x.size(), 1);
        assert_eq!(x.manager().one().size(), 0);
    }

    #[test]
    fn sat_count_small_functions() {
        let (m, x, y, _) = setup3();
        assert_eq!(x.and(&y).unwrap().sat_count(3), 2); // x∧y free z
        assert_eq!(x.or(&y).unwrap().sat_count(3), 6);
        assert_eq!(m.one().sat_count(3), 8);
        assert_eq!(m.zero().sat_count(3), 0);
        assert_eq!(x.xor(&y).unwrap().sat_count(2), 2);
    }

    #[test]
    fn sat_count_saturates_past_u32_variables() {
        let (m, x, _, _) = setup3();
        assert_eq!(m.one().sat_count(1 << 32), u128::MAX);
        assert_eq!(x.sat_count((1 << 32) + 1), u128::MAX);
        assert_eq!(m.zero().sat_count(1 << 32), 0);
    }

    #[test]
    #[should_panic(expected = "nvars below support")]
    fn sat_count_checks_support_below_the_root() {
        let (_, x, _, z) = setup3();
        // The root's x0 is counted; only x2, below it, is not.
        x.and(&z).unwrap().sat_count(2);
    }

    #[test]
    fn any_sat_finds_witness() {
        let (m, x, y, z) = setup3();
        let f = x.not().and(&y).unwrap().and(&z).unwrap();
        let sat = f.any_sat().unwrap();
        // Apply the witness and check.
        let mut assignment = [false; 3];
        for (v, b) in sat {
            assignment[v.index()] = b;
        }
        assert!(f.eval(&assignment));
        assert!(m.zero().any_sat().is_none());
        assert_eq!(m.one().any_sat().unwrap(), vec![]);
    }

    #[test]
    fn const_accessors() {
        let (m, x, _, _) = setup3();
        assert_eq!(m.one().const_value(), Some(true));
        assert_eq!(m.zero().const_value(), Some(false));
        assert_eq!(x.const_value(), None);
        assert_eq!(x.top_var(), Some(VarId(0)));
        assert_eq!(m.one().top_var(), None);
    }

    #[test]
    fn root_triple_decomposes() {
        let (_, x, y, _) = setup3();
        let f = x.and(&y).unwrap();
        let (v, lo, hi) = f.root_triple().unwrap();
        assert_eq!(v, VarId(0));
        assert!(lo.is_false());
        assert_eq!(hi, y);
    }

    #[test]
    #[should_panic(expected = "different managers")]
    fn cross_manager_panics() {
        let m1 = BddManager::new();
        let m2 = BddManager::new();
        let a = m1.new_var();
        let b = m2.new_var();
        let _ = a.and(&b);
    }

    #[test]
    fn clone_and_drop_refcounts() {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = x.and(&y).unwrap();
        let g = f.clone();
        drop(f);
        m.gc();
        // g still protects the node.
        assert!(g.eval(&[true, true]));
        drop(g);
        let live_before = m.live_nodes();
        m.gc();
        assert!(m.live_nodes() < live_before);
    }

    #[test]
    fn debug_formats() {
        let (m, x, _, _) = setup3();
        assert_eq!(format!("{:?}", m.one()), "Bdd(⊤)");
        assert_eq!(format!("{:?}", m.zero()), "Bdd(⊥)");
        assert!(format!("{x:?}").starts_with("Bdd(#"));
    }

    #[test]
    fn complement_bit_accessors() {
        let (m, x, y, _) = setup3();
        let f = x.and(&y).unwrap();
        let g = f.not();
        assert_ne!(f.is_complemented(), g.is_complemented());
        assert_eq!(f.regular(), g.regular());
        assert_eq!(g.raw_root(), f.raw_root() ^ 1);
        // ⊤ is the regular terminal edge, ⊥ the complemented one.
        assert!(!m.one().is_complemented());
        assert!(m.zero().is_complemented());
        assert_eq!(m.zero().regular(), m.one());
    }
}
