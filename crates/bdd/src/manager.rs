//! The BDD manager: arena node storage, open-addressed unique table,
//! complement edges, standard-triple ITE, GC, node limit.
//!
//! ## Node encoding
//!
//! A BDD edge is a packed `u32`: the node *index* in the upper 31 bits and a
//! **complement bit** in bit 0 (`edge = index << 1 | complement`). There is a
//! single terminal node at index 0; the constant ⊤ is the regular edge to it
//! (`0`) and ⊥ is its complemented edge (`1`). Negation is therefore an O(1)
//! bit flip that can never allocate — see [`crate::Bdd::not`].
//!
//! Canonical form: the *then* (high) edge of every stored node is regular.
//! [`Inner::make_node`] enforces this by complementing both children and the
//! returned edge when the high edge would be complemented, so `f` and `¬f`
//! always share one subgraph and `live` counts each such pair once.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::error::BddError;
use crate::handle::Bdd;

/// Identifier of a BDD variable.
///
/// Variables start out ordered by creation order ([`BddManager::new_var`]),
/// but the id is a stable *name*, not a position: dynamic reordering
/// ([`BddManager::sift`]) permutes the variable *levels* while every `VarId`
/// (and every [`Bdd`] handle) keeps denoting the same thing. Use
/// [`BddManager::var_level`] for the current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The dense creation index of the variable (stable under reordering).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `VarId` from a dense index.
    ///
    /// Using an index that has not been allocated by the manager the id is
    /// passed to causes a panic there.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The constant ⊤: regular edge to the terminal node (index 0).
pub(crate) const TRUE: u32 = 0;
/// The constant ⊥: complemented edge to the terminal node.
pub(crate) const FALSE: u32 = 1;
/// Level of the terminal node: below every variable.
const TERM_LEVEL: u32 = u32::MAX;
/// `var` tag for free (swept) slots.
const FREE_SLOT: u32 = u32::MAX - 1;

#[inline]
fn index_of(edge: u32) -> usize {
    (edge >> 1) as usize
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    /// Else edge (may be complemented).
    low: u32,
    /// Then edge (always regular — the canonical-form invariant).
    high: u32,
}

/// Mixes a node triple into a 64-bit hash (unique table and ITE cache).
#[inline]
fn mix(a: u32, b: u32, c: u32) -> u64 {
    let mut h = (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.rotate_left(23) ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h = h.rotate_left(29) ^ (c as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 32;
    h.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Open-addressed unique table: slots hold `node index + 1` (0 = empty),
/// linear probing, power-of-two capacity. Node triples live in the arena,
/// so the table itself is a flat `Vec<u32>`.
struct UniqueTable {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
    lookups: u64,
    probes: u64,
}

impl UniqueTable {
    fn new() -> Self {
        const INITIAL: usize = 1 << 10;
        UniqueTable {
            slots: vec![0; INITIAL],
            mask: INITIAL - 1,
            len: 0,
            lookups: 0,
            probes: 0,
        }
    }

    fn needs_grow(&self) -> bool {
        (self.len + 1) * 4 >= self.slots.len() * 3
    }
}

/// Direct-mapped ITE computed cache: each slot holds one `(f, g, h) → r`
/// entry and is overwritten on collision, so the cache is bounded by
/// construction. Grows (by rehash) up to [`MAX_CACHE_SLOTS`] when half full.
struct IteCache {
    slots: Vec<(u32, u32, u32, u32)>,
    mask: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

/// Sentinel `f` marking an empty cache slot (never a real edge: it would be
/// a complemented edge to an impossible node index).
const CACHE_EMPTY: u32 = u32::MAX;
const MAX_CACHE_SLOTS: usize = 1 << 20;

impl IteCache {
    fn new() -> Self {
        const INITIAL: usize = 1 << 12;
        IteCache {
            slots: vec![(CACHE_EMPTY, 0, 0, 0); INITIAL],
            mask: INITIAL - 1,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, f: u32, g: u32, h: u32) -> Option<u32> {
        let slot = self.slots[mix(f, g, h) as usize & self.mask];
        if slot.0 == f && slot.1 == g && slot.2 == h {
            self.hits += 1;
            Some(slot.3)
        } else {
            self.misses += 1;
            None
        }
    }

    fn put(&mut self, f: u32, g: u32, h: u32, r: u32) {
        if self.len * 2 >= self.slots.len() && self.slots.len() < MAX_CACHE_SLOTS {
            let cap = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, vec![(CACHE_EMPTY, 0, 0, 0); cap]);
            self.mask = self.slots.len() - 1;
            self.len = 0;
            for e in old {
                if e.0 != CACHE_EMPTY {
                    let i = mix(e.0, e.1, e.2) as usize & self.mask;
                    if self.slots[i].0 == CACHE_EMPTY {
                        self.len += 1;
                    }
                    self.slots[i] = e;
                }
            }
        }
        let i = mix(f, g, h) as usize & self.mask;
        if self.slots[i].0 == CACHE_EMPTY {
            self.len += 1;
        }
        self.slots[i] = (f, g, h, r);
    }

    fn clear(&mut self) {
        self.slots.fill((CACHE_EMPTY, 0, 0, 0));
        self.len = 0;
    }
}

/// Scratch table keyed by arena position (a node index or an edge) for one
/// traversal at a time. An entry counts only while its stamp equals the
/// current epoch, so [`begin`](Memo::begin) starts a traversal in O(1) and
/// the arrays are reused across calls. Entries of earlier traversals, also
/// those of slots that GC has since freed and reused, are stale by
/// construction.
#[derive(Default)]
struct Memo<T> {
    stamps: Vec<u32>,
    vals: Vec<T>,
    epoch: u32,
}

impl<T: Copy + Default> Memo<T> {
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // 2^32 traversals later: forget every stamp once.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn contains(&self, key: usize) -> bool {
        self.stamps.get(key) == Some(&self.epoch)
    }

    #[inline]
    fn get(&self, key: usize) -> Option<T> {
        self.contains(key).then(|| self.vals[key])
    }

    #[inline]
    fn insert(&mut self, key: usize, val: T) {
        if key >= self.stamps.len() {
            let len = (key + 1).next_power_of_two();
            self.stamps.resize(len, 0);
            self.vals.resize(len, T::default());
        }
        self.stamps[key] = self.epoch;
        self.vals[key] = val;
    }

    /// Marks `key` visited; `true` on its first visit in this traversal.
    #[inline]
    fn visit(&mut self, key: usize) -> bool {
        let first = !self.contains(key);
        if first {
            self.insert(key, T::default());
        }
        first
    }
}

/// Aggregate statistics of a [`BddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BddStats {
    /// Currently live internal nodes (excluding the terminal). With
    /// complement edges a function and its negation share one subgraph, so
    /// each pair counts once — this is also what the node limit bounds.
    pub live_nodes: usize,
    /// High-water mark of `live_nodes`.
    pub peak_live_nodes: usize,
    /// Number of variables created.
    pub num_vars: usize,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Entries currently in the ITE computed cache.
    pub cache_entries: usize,
    /// ITE computed-cache hits.
    pub cache_hits: u64,
    /// ITE computed-cache misses.
    pub cache_misses: u64,
    /// Unique-table lookups (one per `make_node` that reaches the table).
    pub unique_lookups: u64,
    /// Total unique-table probe steps; `unique_probes / unique_lookups` is
    /// the average probe length of the open-addressed table.
    pub unique_probes: u64,
    /// Sifting passes run ([`BddManager::sift`]).
    pub reorder_runs: u64,
    /// Adjacent-level swaps performed across all sifting passes.
    pub reorder_swaps: u64,
    /// Internal nodes allocated so far, including ones GC later reclaimed:
    /// a monotone measure of work that does not depend on when collections
    /// run.
    pub nodes_created: u64,
}

pub(crate) struct Inner {
    nodes: Vec<Node>,
    unique: UniqueTable,
    cache: IteCache,
    free: Vec<u32>,
    /// External refcount of each node, indexed like `nodes`
    /// (complement-agnostic: a handle to `¬f` protects the same subgraph as
    /// one to `f`). The GC roots are the nonzero entries.
    ext: Vec<u32>,
    /// Visited set of `support`, `size` and the GC mark phase, keyed by
    /// node index.
    seen: Memo<()>,
    /// Results of `rename`, keyed by node index.
    memo: Memo<u32>,
    /// Model counts of `sat_count`, keyed by edge.
    counts: Memo<u128>,
    /// Depth-first stack of the `seen` traversals.
    stack: Vec<u32>,
    nvars: u32,
    /// Level (order position) of each variable, indexed by var id.
    var2level: Vec<u32>,
    /// Variable id at each level — the inverse permutation of `var2level`.
    level2var: Vec<u32>,
    limit: Option<usize>,
    live: usize,
    peak_live: usize,
    /// Conservative "may hold garbage" bit: set by every allocation and by
    /// every external refcount that drops to zero, cleared by `gc`. While
    /// it is clear, every node in the arena is reachable from a handle.
    garbage: bool,
    created: u64,
    gc_runs: u64,
    reorder_runs: u64,
    reorder_swaps: u64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            nodes: vec![Node {
                var: TERM_LEVEL,
                low: TRUE,
                high: TRUE,
            }],
            unique: UniqueTable::new(),
            cache: IteCache::new(),
            free: Vec::new(),
            ext: vec![0],
            seen: Memo::default(),
            memo: Memo::default(),
            counts: Memo::default(),
            stack: Vec::new(),
            nvars: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            limit: None,
            live: 0,
            peak_live: 0,
            garbage: false,
            created: 0,
            gc_runs: 0,
            reorder_runs: 0,
            reorder_swaps: 0,
        }
    }

    /// Current order position of `var`. The sentinels [`TERM_LEVEL`] and
    /// [`FREE_SLOT`] map to themselves, keeping them below every real level.
    #[inline]
    pub(crate) fn var_level(&self, var: u32) -> u32 {
        if var < self.nvars {
            self.var2level[var as usize]
        } else {
            var
        }
    }

    #[inline]
    fn level(&self, edge: u32) -> u32 {
        self.var_level(self.nodes[index_of(edge)].var)
    }

    /// Cofactors of `edge` w.r.t. variable `v`, with the complement bit
    /// pushed down onto the children.
    #[inline]
    fn cofactor(&self, edge: u32, v: u32) -> (u32, u32) {
        let node = self.nodes[index_of(edge)];
        if node.var == v {
            let c = edge & 1;
            (node.low ^ c, node.high ^ c)
        } else {
            (edge, edge)
        }
    }

    /// Orders edges for the standard-triple choice among equivalent ITE
    /// argument forms: by level, then by node index.
    #[inline]
    fn edge_before(&self, a: u32, b: u32) -> bool {
        let (la, lb) = (self.level(a), self.level(b));
        la < lb || (la == lb && index_of(a) < index_of(b))
    }

    /// Rebuilds the unique table at `cap` slots (a power of two) from the
    /// nodes in the arena: to grow it, and after a collection, since
    /// deleting single entries would break linear-probe chains.
    fn rehash(&mut self, cap: usize) {
        self.unique.slots.clear();
        self.unique.slots.resize(cap, 0);
        self.unique.mask = cap - 1;
        self.unique.len = 0;
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if node.var == FREE_SLOT {
                continue;
            }
            let mut slot = mix(node.var, node.low, node.high) as usize & self.unique.mask;
            while self.unique.slots[slot] != 0 {
                slot = (slot + 1) & self.unique.mask;
            }
            self.unique.slots[slot] = i as u32 + 1;
            self.unique.len += 1;
        }
    }

    fn make_node(&mut self, var: u32, low: u32, high: u32) -> Result<u32, BddError> {
        if low == high {
            return Ok(low);
        }
        // Canonical form: complement both children (and the result) so the
        // stored then-edge is regular.
        let c = high & 1;
        let (low, high) = (low ^ c, high ^ c);
        debug_assert!(
            self.level(low) > self.var_level(var) && self.level(high) > self.var_level(var),
            "order violated"
        );
        if self.unique.needs_grow() {
            self.rehash(self.unique.slots.len() * 2);
        }
        self.unique.lookups += 1;
        let mut slot = mix(var, low, high) as usize & self.unique.mask;
        loop {
            self.unique.probes += 1;
            let entry = self.unique.slots[slot];
            if entry == 0 {
                break;
            }
            let idx = (entry - 1) as usize;
            let node = self.nodes[idx];
            if node.var == var && node.low == low && node.high == high {
                return Ok(((idx as u32) << 1) ^ c);
            }
            slot = (slot + 1) & self.unique.mask;
        }
        if let Some(limit) = self.limit {
            if self.live >= limit {
                return Err(BddError::NodeLimit { limit });
            }
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = Node { var, low, high };
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Node { var, low, high });
                self.ext.push(0);
                id
            }
        };
        self.unique.slots[slot] = id + 1;
        self.unique.len += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.created += 1;
        self.garbage = true;
        Ok((id << 1) ^ c)
    }

    /// Allocates a fresh variable and returns its positive literal (never
    /// subject to the node limit: one-node literals are what makes recovery
    /// from a limit hit possible at all).
    fn new_var(&mut self) -> (u32, u32) {
        let var = self.nvars;
        self.nvars += 1;
        // A fresh variable takes the bottom level of the current order.
        self.var2level.push(self.level2var.len() as u32);
        self.level2var.push(var);
        (var, self.var_lit(var, true))
    }

    fn var_lit(&mut self, var: u32, positive: bool) -> u32 {
        assert!(var < self.nvars, "variable v{var} was never created");
        let saved = self.limit.take();
        let lit = self
            .make_node(var, FALSE, TRUE)
            .expect("literal creation is unlimited");
        self.limit = saved;
        // The negative literal is the complement edge — no second node.
        if positive {
            lit
        } else {
            lit ^ 1
        }
    }

    pub(crate) fn ite(&mut self, f: u32, g: u32, h: u32) -> Result<u32, BddError> {
        // Terminal cases.
        if f == TRUE {
            return Ok(g);
        }
        if f == FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }
        if g == FALSE && h == TRUE {
            return Ok(f ^ 1);
        }
        let (mut f, mut g, mut h) = (f, g, h);
        // Collapse arguments equal or complementary to f.
        if g == f {
            g = TRUE;
        } else if g == f ^ 1 {
            g = FALSE;
        }
        if h == f {
            h = FALSE;
        } else if h == f ^ 1 {
            h = TRUE;
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }
        if g == FALSE && h == TRUE {
            return Ok(f ^ 1);
        }
        // Standard-triple normalization: among the equivalent argument
        // forms, put the order-least operand first so equivalent calls
        // collapse onto one cache entry.
        if g == TRUE {
            // ite(f,1,h) = f ∨ h = ite(h,1,f)
            if self.edge_before(h, f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if h == FALSE {
            // ite(f,g,0) = f ∧ g = ite(g,f,0)
            if self.edge_before(g, f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if g == FALSE {
            // ite(f,0,h) = ¬f ∧ h = ite(¬h,0,¬f)
            if self.edge_before(h, f) {
                let t = f;
                f = h ^ 1;
                h = t ^ 1;
            }
        } else if h == TRUE {
            // ite(f,g,1) = ¬f ∨ g = ite(¬g,¬f,1)
            if self.edge_before(g, f) {
                let t = f;
                f = g ^ 1;
                g = t ^ 1;
            }
        } else if g == h ^ 1 {
            // ite(f,g,¬g) = f ≡ g = ite(g,f,¬f)
            if self.edge_before(g, f) {
                std::mem::swap(&mut f, &mut g);
                h = g ^ 1;
            }
        }
        // Complement normalization: a regular first argument
        // (ite(¬f,g,h) = ite(f,h,g)) and a regular second argument
        // (ite(f,¬g,¬h) = ¬ite(f,g,h)), so each equivalence class of
        // triples has one cache key.
        if f & 1 == 1 {
            f ^= 1;
            std::mem::swap(&mut g, &mut h);
        }
        let flip = g & 1;
        g ^= flip;
        h ^= flip;
        if let Some(r) = self.cache.get(f, g, h) {
            return Ok(r ^ flip);
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let top_var = self.level2var[top as usize];
        let (f0, f1) = self.cofactor(f, top_var);
        let (g0, g1) = self.cofactor(g, top_var);
        let (h0, h1) = self.cofactor(h, top_var);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.make_node(top_var, lo, hi)?;
        self.cache.put(f, g, h, r);
        Ok(r ^ flip)
    }

    pub(crate) fn and(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        self.ite(f, g, FALSE)
    }

    pub(crate) fn or(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        self.ite(f, TRUE, g)
    }

    pub(crate) fn xor(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        self.ite(f, g ^ 1, g)
    }

    pub(crate) fn xnor(&mut self, f: u32, g: u32) -> Result<u32, BddError> {
        self.ite(f, g, g ^ 1)
    }

    /// Renames variables according to `map` (pairs `(from, to)`, the
    /// identity elsewhere) in a single linear traversal.
    ///
    /// # Panics
    ///
    /// Panics if the map is not strictly order-preserving on the support of
    /// `f`.
    pub(crate) fn rename(&mut self, f: u32, map: &[(VarId, VarId)]) -> Result<u32, BddError> {
        // Dense var → var table. A variable that was never created cannot
        // be in the support, so its entry is dropped.
        let mut table: Vec<u32> = (0..self.nvars).collect();
        for &(from, to) in map {
            if let Some(t) = table.get_mut(from.index()) {
                *t = to.0;
            }
        }
        let support = self.support(f); // sorted by level
        for w in support.windows(2) {
            assert!(
                self.var_level(table[w[0] as usize]) < self.var_level(table[w[1] as usize]),
                "rename map is not strictly order-preserving on the support"
            );
        }
        // The recursion needs `&mut self` next to the memo, so the memo is
        // taken out of `self` for its duration.
        let mut memo = std::mem::take(&mut self.memo);
        memo.begin();
        let r = self.rename_rec(f, &table, &mut memo);
        self.memo = memo;
        r
    }

    // Renaming commutes with complement, so the recursion strips the
    // complement bit, memoizes on the node index, and re-applies the bit on
    // the way out, sharing work between a function and its negation.
    fn rename_rec(&mut self, f: u32, map: &[u32], memo: &mut Memo<u32>) -> Result<u32, BddError> {
        let c = f & 1;
        let n = f ^ c;
        if n == TRUE {
            return Ok(f);
        }
        if let Some(r) = memo.get(index_of(n)) {
            return Ok(r ^ c);
        }
        let node = self.nodes[index_of(n)];
        let lo = self.rename_rec(node.low, map, memo)?;
        let hi = self.rename_rec(node.high, map, memo)?;
        let var = map[node.var as usize];
        let r = self.make_node(var, lo, hi)?;
        memo.insert(index_of(n), r);
        Ok(r ^ c)
    }

    /// Marks in `seen`, under a fresh epoch, every internal node reachable
    /// from the node indices on `self.stack`, calling `visit` once per node
    /// and leaving the stack empty.
    fn mark_from_stack(&mut self, mut visit: impl FnMut(&Node)) {
        self.seen.begin();
        while let Some(i) = self.stack.pop() {
            let i = i as usize;
            if i == 0 || !self.seen.visit(i) {
                continue;
            }
            let node = self.nodes[i];
            visit(&node);
            self.stack.push(node.low >> 1);
            self.stack.push(node.high >> 1);
        }
    }

    /// Variables `f` depends on, sorted by their current *level* (the order
    /// they appear along any root-to-terminal path).
    pub(crate) fn support(&mut self, f: u32) -> Vec<u32> {
        let mut vars = Vec::new();
        self.stack.push(f >> 1);
        self.mark_from_stack(|node| vars.push(node.var));
        vars.sort_unstable_by_key(|&v| self.var_level(v));
        vars.dedup();
        vars
    }

    /// Distinct internal nodes reachable from `roots`. Complement bits are
    /// ignored: `f` and `¬f` have identical size by construction.
    pub(crate) fn size(&mut self, roots: &[u32]) -> usize {
        let mut count = 0;
        self.stack.extend(roots.iter().map(|&r| r >> 1));
        self.mark_from_stack(|_| count += 1);
        count
    }

    pub(crate) fn eval(&self, f: u32, assignment: &[bool]) -> bool {
        let mut n = f;
        while index_of(n) != 0 {
            let node = self.nodes[index_of(n)];
            let v = node.var as usize;
            assert!(
                v < assignment.len(),
                "assignment too short: needs variable v{v}"
            );
            let child = if assignment[v] { node.high } else { node.low };
            n = child ^ (n & 1);
        }
        n == TRUE
    }

    pub(crate) fn sat_count(&mut self, f: u32, nvars: u32) -> u128 {
        assert!(nvars >= self.min_var_bound(f), "nvars below support of f");
        fn shl_sat(x: u128, s: u32) -> u128 {
            if x == 0 {
                0
            } else if s >= x.leading_zeros() {
                u128::MAX
            } else {
                x << s
            }
        }
        // The complement bit is pushed down onto the children at every
        // step (¬(x ? h : l) = x ? ¬h : ¬l), so the memo is keyed by the
        // full edge and the terminal cases decide the parity.
        //
        // With dynamic reordering the "free variables skipped between a node
        // and its child" is a count of *counted* variables (id < nvars)
        // between their levels. `rank[l]` precomputes how many sit at levels
        // above l; counted variables that were never created have no level
        // and are ranked with the terminal (they are free everywhere, so
        // their position does not matter).
        let mn = self.nvars as usize;
        let mut rank = vec![0u32; mn + 1];
        for l in 0..mn {
            rank[l + 1] = rank[l] + u32::from(self.level2var[l] < nvars);
        }
        fn rank_of(inner: &Inner, edge: u32, nvars: u32, rank: &[u32]) -> u32 {
            let lvl = inner.level(edge) as usize;
            if lvl < rank.len() - 1 {
                rank[lvl]
            } else {
                nvars
            }
        }
        fn rec(inner: &Inner, n: u32, nvars: u32, rank: &[u32], memo: &mut Memo<u128>) -> u128 {
            if n == FALSE {
                return 0;
            }
            if n == TRUE {
                return 1;
            }
            if let Some(c) = memo.get(n as usize) {
                return c;
            }
            let node = inner.nodes[index_of(n)];
            let (low, high) = (node.low ^ (n & 1), node.high ^ (n & 1));
            let here = rank[inner.var2level[node.var as usize] as usize];
            let cl = rec(inner, low, nvars, rank, memo);
            let ch = rec(inner, high, nvars, rank, memo);
            let c = shl_sat(cl, rank_of(inner, low, nvars, rank) - here - 1)
                .saturating_add(shl_sat(ch, rank_of(inner, high, nvars, rank) - here - 1));
            memo.insert(n as usize, c);
            c
        }
        let mut counts = std::mem::take(&mut self.counts);
        counts.begin();
        let top = rank_of(self, f, nvars, &rank);
        let count = shl_sat(rec(self, f, nvars, &rank, &mut counts), top);
        self.counts = counts;
        count
    }

    fn min_var_bound(&mut self, f: u32) -> u32 {
        self.support(f).iter().map(|&v| v + 1).max().unwrap_or(0)
    }

    pub(crate) fn any_sat(&self, f: u32) -> Option<Vec<(u32, bool)>> {
        if f == FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut n = f;
        while index_of(n) != 0 {
            let c = n & 1;
            let node = self.nodes[index_of(n)];
            let high = node.high ^ c;
            if high != FALSE {
                path.push((node.var, true));
                n = high;
            } else {
                path.push((node.var, false));
                n = node.low ^ c;
            }
        }
        debug_assert_eq!(n, TRUE);
        Some(path)
    }

    // Handles to the constants count on the terminal's slot, which GC
    // never frees; that keeps both paths branch-free. A `u32` count cannot
    // overflow in practice: a handle takes 16 bytes on a 64-bit target, so
    // 2^32 handles to one node would take 64 GiB.
    #[inline]
    pub(crate) fn inc_ext(&mut self, edge: u32) {
        self.ext[index_of(edge)] += 1;
    }

    #[inline]
    pub(crate) fn dec_ext(&mut self, edge: u32) {
        let c = &mut self.ext[index_of(edge)];
        debug_assert!(*c > 0, "unbalanced ext deref");
        *c -= 1;
        self.garbage |= *c == 0;
    }

    fn gc(&mut self) -> usize {
        let roots = self.ext.iter().enumerate().filter(|&(_, &c)| c > 0);
        self.stack.extend(roots.map(|(i, _)| i as u32));
        self.mark_from_stack(|_| {});
        let mut freed = 0;
        for i in 1..self.nodes.len() {
            if !self.seen.contains(i) && self.nodes[i].var != FREE_SLOT {
                self.nodes[i].var = FREE_SLOT;
                self.free.push(i as u32);
                freed += 1;
            }
        }
        self.live -= freed;
        self.rehash(self.unique.slots.len());
        self.cache.clear();
        self.garbage = false;
        self.gc_runs += 1;
        freed
    }

    /// `(var, low, high)` of the root with the complement bit pushed onto
    /// the children, so the triple denotes the same function as `edge`.
    pub(crate) fn node_triple(&self, edge: u32) -> Option<(u32, u32, u32)> {
        if index_of(edge) == 0 {
            None
        } else {
            let c = edge & 1;
            let node = self.nodes[index_of(edge)];
            Some((node.var, node.low ^ c, node.high ^ c))
        }
    }

    /// Counts canonical-form violations in the arena (diagnostic; see
    /// [`BddManager::canonical_violations`]).
    fn canonical_violations(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| n.var != FREE_SLOT)
            .filter(|(_, n)| {
                n.high & 1 == 1 // complemented then-edge
                    || n.low == n.high // redundant node
                    || self.level(n.low) <= self.var_level(n.var) // order violation
                    || self.level(n.high) <= self.var_level(n.var)
            })
            .count()
    }

    /// Swaps the variables at adjacent levels `l` and `l + 1` in place
    /// (Rudell's swap). Only nodes labelled with the upper variable that
    /// actually depend on the lower one are rewritten, and they are rewritten
    /// *at their arena index*, so every external edge — handles, other nodes'
    /// children, cached results — keeps denoting the same function.
    ///
    /// Canonicity is preserved without fixups: a rewritten node's new
    /// then-cofactor is reached through then-edges only, which are regular by
    /// the canonical form, so the rewritten then-edge is regular too.
    fn swap_adjacent(&mut self, l: usize) {
        let u = self.level2var[l];
        let v = self.level2var[l + 1];
        // Collect the nodes that change shape *before* touching the level
        // maps: nodes labelled `u` with a `v`-topped child. Everything else
        // is already in canonical form under the new order.
        let affected: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, n)| {
                n.var == u
                    && (self.nodes[index_of(n.low)].var == v
                        || self.nodes[index_of(n.high)].var == v)
            })
            .map(|(i, _)| i)
            .collect();
        self.var2level.swap(u as usize, v as usize);
        self.level2var.swap(l, l + 1);
        self.reorder_swaps += 1;
        if affected.is_empty() {
            return;
        }
        // The rewrite allocates transient nodes and must never fail, so the
        // node limit is lifted for its duration (same idiom as literals).
        let saved = self.limit.take();
        for i in affected {
            let n = self.nodes[i];
            // Cofactor matrix of the function at `i` w.r.t. (u, v). The
            // stored then-edge is regular; a complement bit on the else-edge
            // is pushed down onto *its* children.
            let (f00, f01) = self.cofactor(n.low, v);
            let (f10, f11) = self.cofactor(n.high, v);
            let new_low = self
                .make_node(u, f00, f10)
                .expect("swap rewrite is unlimited");
            let new_high = self
                .make_node(u, f01, f11)
                .expect("swap rewrite is unlimited");
            debug_assert_eq!(new_high & 1, 0, "then-edge must stay regular");
            debug_assert_ne!(new_low, new_high, "rewritten node cannot be redundant");
            self.nodes[i] = Node {
                var: v,
                low: new_low,
                high: new_high,
            };
        }
        self.limit = saved;
        // The in-place rewrite leaves stale unique-table entries (the old
        // triples of the rewritten nodes) and may orphan their old children;
        // one collection rebuilds the table, reclaims the dead nodes and
        // restores an exact `live` count. It also clears the computed cache
        // (whose entries are still *semantically* valid, but cheap to refill
        // compared to auditing them).
        self.gc();
    }

    /// Swaps the block of `t` levels starting at `s` with the block of `u`
    /// levels directly below it, preserving the internal order of both.
    fn swap_blocks(&mut self, s: usize, t: usize, u: usize) {
        for i in (0..t).rev() {
            for k in 0..u {
                self.swap_adjacent(s + i + k);
            }
        }
    }

    /// One sifting pass (Rudell). Each block of variables is moved through
    /// every position in the order — down to the bottom, up to the top — and
    /// parked where the manager was smallest; ties keep the earlier position.
    ///
    /// `groups` lists variables that must move as one rigid block, e.g. MOT's
    /// interleaved `(x, y)` rename pairs, whose relative order Lemma 1's
    /// rename `o^f(x,t) → o^f(y,t)` depends on: each group must occupy
    /// contiguous levels on entry and keeps both its contiguity and internal
    /// order at every candidate position. Variables in no group sift as
    /// singletons. A direction is abandoned when the manager grows past
    /// `max_growth` × its size at the start of that block's sift.
    ///
    /// Returns the number of live nodes shed by the pass.
    ///
    /// # Panics
    ///
    /// Panics if a group names an unknown or duplicate variable or is not
    /// contiguous in the current order.
    fn sift(&mut self, groups: &[Vec<u32>], max_growth: f64) -> usize {
        let nvars = self.nvars as usize;
        self.reorder_runs += 1;
        // Exact baseline: drop dead nodes so `live` measures real pressure.
        self.gc();
        let start_live = self.live;
        if nvars < 2 {
            return 0;
        }
        // Block id per variable: caller groups first, singletons after.
        let mut block_of: Vec<u32> = vec![u32::MAX; nvars];
        for (gi, g) in groups.iter().enumerate() {
            let mut lvls: Vec<u32> = Vec::with_capacity(g.len());
            for &var in g {
                assert!(
                    (var as usize) < nvars,
                    "sift group names unknown variable v{var}"
                );
                assert_eq!(
                    block_of[var as usize],
                    u32::MAX,
                    "variable v{var} appears in two sift groups"
                );
                block_of[var as usize] = gi as u32;
                lvls.push(self.var2level[var as usize]);
            }
            lvls.sort_unstable();
            assert!(
                lvls.windows(2).all(|w| w[1] == w[0] + 1),
                "sift group must occupy contiguous levels \
                 (e.g. an interleaved MOT (x, y) pair)"
            );
        }
        let mut next_block = groups.len() as u32;
        for b in block_of.iter_mut() {
            if *b == u32::MAX {
                *b = next_block;
                next_block += 1;
            }
        }
        // Current layout: block ids in level order, with their widths.
        let mut layout: Vec<u32> = Vec::new();
        for l in 0..nvars {
            let b = block_of[self.level2var[l] as usize];
            if layout.last() != Some(&b) {
                layout.push(b);
            }
        }
        let width = |id: u32| block_of.iter().filter(|&&b| b == id).count();
        debug_assert_eq!(layout.iter().map(|&b| width(b)).sum::<usize>(), nvars);
        // Process blocks by descending node population (their level's pull on
        // the graph), tie-broken by smallest member variable for determinism.
        let mut population: Vec<usize> = vec![0; next_block as usize];
        for n in self.nodes.iter().skip(1) {
            if n.var != FREE_SLOT {
                population[block_of[n.var as usize] as usize] += 1;
            }
        }
        let min_var = |id: u32| {
            block_of
                .iter()
                .position(|&b| b == id)
                .expect("block has a member")
        };
        let mut order: Vec<u32> = layout.clone();
        order.sort_by_key(|&b| (std::cmp::Reverse(population[b as usize]), min_var(b)));

        for moved in order {
            let bound = (self.live as f64 * max_growth).ceil() as usize + 16;
            let start_level =
                |layout: &[u32], p: usize| -> usize { layout[..p].iter().map(|&b| width(b)).sum() };
            let home = layout.iter().position(|&b| b == moved).expect("in layout");
            let mut p = home;
            // Strict `<` below keeps the earliest position on ties, and
            // `home` is recorded first — an equal-sized move never wins.
            let mut best = (self.live, home);
            // Down to the bottom, abandoning on growth past the bound.
            while p + 1 < layout.len() {
                let s = start_level(&layout, p);
                self.swap_blocks(s, width(layout[p]), width(layout[p + 1]));
                layout.swap(p, p + 1);
                p += 1;
                if self.live < best.0 {
                    best = (self.live, p);
                }
                if self.live > bound {
                    break;
                }
            }
            // Back up through home to the top. Positions at or below `home`
            // were already visited (revisiting a layout reproduces its exact
            // size), so the growth bound only cuts off the unexplored part
            // above home.
            while p > 0 {
                let s = start_level(&layout, p - 1);
                self.swap_blocks(s, width(layout[p - 1]), width(layout[p]));
                layout.swap(p - 1, p);
                p -= 1;
                if self.live < best.0 {
                    best = (self.live, p);
                }
                if p < home && self.live > bound {
                    break;
                }
            }
            // Park at the best recorded position (either side of p).
            while p < best.1 {
                let s = start_level(&layout, p);
                self.swap_blocks(s, width(layout[p]), width(layout[p + 1]));
                layout.swap(p, p + 1);
                p += 1;
            }
            while p > best.1 {
                let s = start_level(&layout, p - 1);
                self.swap_blocks(s, width(layout[p - 1]), width(layout[p]));
                layout.swap(p - 1, p);
                p -= 1;
            }
        }
        start_live.saturating_sub(self.live)
    }
}

/// A shared, single-threaded BDD node store.
///
/// Cloning a `BddManager` is cheap and yields another handle to the *same*
/// store (managers are reference-counted internally). All [`Bdd`]s created
/// through a manager (or its clones) live in that store; combining BDDs from
/// different stores panics.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Clone)]
pub struct BddManager {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        f.debug_struct("BddManager")
            .field("vars", &st.num_vars)
            .field("live_nodes", &st.live_nodes)
            .finish()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables and no node limit.
    pub fn new() -> Self {
        BddManager {
            inner: Rc::new(RefCell::new(Inner::new())),
        }
    }

    /// Creates a manager with `n` variables pre-allocated.
    pub fn with_vars(n: usize) -> Self {
        let m = Self::new();
        for _ in 0..n {
            m.new_var();
        }
        m
    }

    pub(crate) fn wrap(&self, root: u32) -> Bdd {
        self.inner.borrow_mut().inc_ext(root);
        Bdd {
            mgr: self.clone(),
            root,
        }
    }

    /// The constant ⊥ (the complemented terminal edge).
    pub fn zero(&self) -> Bdd {
        self.wrap(FALSE)
    }

    /// The constant ⊤ (the regular terminal edge).
    pub fn one(&self) -> Bdd {
        self.wrap(TRUE)
    }

    /// The constant for `b`.
    pub fn constant(&self, b: bool) -> Bdd {
        if b {
            self.one()
        } else {
            self.zero()
        }
    }

    /// Allocates a fresh variable (ordered after all existing ones) and
    /// returns its positive literal.
    pub fn new_var(&self) -> Bdd {
        let (_, lit) = self.inner.borrow_mut().new_var();
        self.wrap(lit)
    }

    /// The positive literal of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never created by this manager.
    pub fn var(&self, v: VarId) -> Bdd {
        let lit = self.inner.borrow_mut().var_lit(v.0, true);
        self.wrap(lit)
    }

    /// The negative literal of an existing variable (the complement edge of
    /// the positive literal — no extra node).
    ///
    /// # Panics
    ///
    /// Panics if `v` was never created by this manager.
    pub fn nvar(&self, v: VarId) -> Bdd {
        let lit = self.inner.borrow_mut().var_lit(v.0, false);
        self.wrap(lit)
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.inner.borrow().nvars as usize
    }

    /// Sets (or clears) the live-node limit. Operations that would allocate
    /// past the limit fail with [`BddError::NodeLimit`]; literal creation is
    /// exempt. The paper's experiments use a limit of 30,000 nodes. Note
    /// that with complement edges a function/negation pair occupies a
    /// *single* subgraph, so a given limit stretches roughly twice as far
    /// as it would in a package without them.
    pub fn set_node_limit(&self, limit: Option<usize>) {
        self.inner.borrow_mut().limit = limit;
    }

    /// The configured live-node limit, if any.
    pub fn node_limit(&self) -> Option<usize> {
        self.inner.borrow().limit
    }

    /// Currently live internal nodes.
    pub fn live_nodes(&self) -> usize {
        self.inner.borrow().live
    }

    /// Runs a mark-sweep garbage collection from the externally referenced
    /// roots; returns the number of nodes reclaimed. The computed cache is
    /// cleared and the unique table rebuilt.
    pub fn gc(&self) -> usize {
        self.inner.borrow_mut().gc()
    }

    /// Whether the arena may hold unreachable nodes, i.e. whether a
    /// [`gc`](Self::gc) could free anything. Conservative: `true` after any
    /// allocation or any handle drop that released a node's last external
    /// reference since the last collection, even if every such node is
    /// still reachable. `false` means the arena is exactly the set of nodes
    /// the live handles reach, as right after a collection.
    pub fn has_garbage(&self) -> bool {
        self.inner.borrow().garbage
    }

    /// Runs `op`; if it hits the node limit, runs [`gc`](Self::gc) and
    /// retries `op` once, returning the second attempt's result.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the retry hits the limit too.
    pub fn retry_after_gc<T>(
        &self,
        mut op: impl FnMut() -> Result<T, BddError>,
    ) -> Result<T, BddError> {
        match op() {
            Err(BddError::NodeLimit { .. }) => {
                self.gc();
                op()
            }
            done => done,
        }
    }

    /// Number of distinct internal nodes reachable from any of `roots`
    /// (shared size of a function vector; Table IV's "BDD size").
    ///
    /// # Panics
    ///
    /// Panics if any root belongs to a different manager.
    pub fn shared_size(&self, roots: &[&Bdd]) -> usize {
        let ids: Vec<u32> = roots
            .iter()
            .map(|b| {
                assert!(self.same_store(&b.mgr), "BDD from a different manager");
                b.root
            })
            .collect();
        self.inner.borrow_mut().size(&ids)
    }

    /// Manager statistics snapshot.
    pub fn stats(&self) -> BddStats {
        let inner = self.inner.borrow();
        BddStats {
            live_nodes: inner.live,
            peak_live_nodes: inner.peak_live,
            num_vars: inner.nvars as usize,
            gc_runs: inner.gc_runs,
            cache_entries: inner.cache.len,
            cache_hits: inner.cache.hits,
            cache_misses: inner.cache.misses,
            unique_lookups: inner.unique.lookups,
            unique_probes: inner.unique.probes,
            reorder_runs: inner.reorder_runs,
            reorder_swaps: inner.reorder_swaps,
            nodes_created: inner.created,
        }
    }

    /// Current order position of `v` (level 0 is outermost). Starts equal to
    /// [`VarId::index`] and diverges once [`sift`](Self::sift) runs.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never created by this manager.
    pub fn var_level(&self, v: VarId) -> usize {
        let inner = self.inner.borrow();
        assert!(v.0 < inner.nvars, "variable v{} was never created", v.0);
        inner.var2level[v.0 as usize] as usize
    }

    /// The current variable order, outermost (level 0) first.
    pub fn current_order(&self) -> Vec<VarId> {
        self.inner
            .borrow()
            .level2var
            .iter()
            .map(|&v| VarId(v))
            .collect()
    }

    /// Runs one sifting pass of dynamic variable reordering (Rudell): each
    /// variable — or rigid *group* of variables — is trial-moved through
    /// every level and parked where the manager held the fewest live nodes.
    /// All outstanding [`Bdd`] handles keep denoting the same functions; only
    /// the shape of the shared graph changes.
    ///
    /// `groups` lists variables that must keep their relative order and
    /// adjacency, e.g. the interleaved `(x, y)` state-variable pairs whose
    /// order the MOT rename `o^f(x,t) → o^f(y,t)` (Lemma 1) relies on. Each
    /// group must occupy contiguous levels when the pass starts; ungrouped
    /// variables sift independently. `max_growth` bounds how far the graph
    /// may transiently grow (relative to its size when the enclosing block's
    /// sift began) before a search direction is abandoned; `1.2` is a
    /// conventional choice.
    ///
    /// The computed cache is invalidated and dead nodes are collected as a
    /// side effect, so the pass never fails: the node limit (if any) does not
    /// apply to the transient nodes a swap allocates. Returns the number of
    /// live nodes shed by the pass.
    ///
    /// # Panics
    ///
    /// Panics if a group names an unknown or duplicate variable, or is not
    /// contiguous in the current order.
    pub fn sift(&self, groups: &[Vec<VarId>], max_growth: f64) -> usize {
        let raw: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|v| v.0).collect())
            .collect();
        self.inner.borrow_mut().sift(&raw, max_growth)
    }

    /// Like [`sift`](Self::sift), additionally reporting the pass to `sink`
    /// as one [`motsim_trace::TraceEvent::SiftPass`] carrying the
    /// adjacent-level swaps the
    /// pass performed and the live nodes it shed.
    pub fn sift_traced(
        &self,
        groups: &[Vec<VarId>],
        max_growth: f64,
        sink: &mut dyn motsim_trace::TraceSink,
    ) -> usize {
        let swaps_before = self.inner.borrow().reorder_swaps;
        let shed = self.sift(groups, max_growth);
        if sink.enabled() {
            sink.event(&motsim_trace::TraceEvent::SiftPass {
                swaps: self.inner.borrow().reorder_swaps - swaps_before,
                shed,
            });
        }
        shed
    }

    /// Counts stored nodes that violate the complement-edge canonical form
    /// (complemented then-edge, redundant node, or order violation). Always
    /// 0 for a correct implementation; exposed so integration and property
    /// tests can assert the invariant from outside the crate.
    pub fn canonical_violations(&self) -> usize {
        self.inner.borrow().canonical_violations()
    }

    pub(crate) fn same_store(&self, other: &BddManager) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_distinct_constants() {
        let m = BddManager::new();
        assert!(m.one().is_true());
        assert!(m.zero().is_false());
        assert_ne!(m.one(), m.zero());
        assert_eq!(m.constant(true), m.one());
        // One terminal node: ⊥ is the complement edge of ⊤.
        assert_eq!(m.one().not(), m.zero());
        assert_eq!(m.live_nodes(), 0);
    }

    #[test]
    fn canonical_hash_consing() {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f1 = x.and(&y).unwrap();
        let f2 = y.and(&x).unwrap();
        assert_eq!(f1, f2);
        let g = x.or(&y).unwrap().not();
        let h = x.not().and(&y.not()).unwrap();
        assert_eq!(g, h); // De Morgan, canonically
        assert_eq!(m.canonical_violations(), 0);
    }

    #[test]
    fn negation_is_free() {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = x.xor(&y).unwrap();
        let live = m.live_nodes();
        let nf = f.not();
        assert_eq!(m.live_nodes(), live, "not() must not allocate");
        assert_eq!(nf.not(), f, "¬¬f is pointer-identical to f");
        assert_eq!(nf.raw_root(), f.raw_root() ^ 1);
        // A function and its complement share one subgraph.
        assert_eq!(f.size(), nf.size());
        assert_eq!(m.shared_size(&[&f, &nf]), f.size());
    }

    #[test]
    fn node_limit_enforced_and_recoverable() {
        let m = BddManager::new();
        let vars: Vec<Bdd> = (0..16).map(|_| m.new_var()).collect();
        m.set_node_limit(Some(8));
        // Parity of 16 vars needs ~15 nodes even with complement edges:
        // must fail.
        let mut acc = m.zero();
        let mut failed = false;
        for v in &vars {
            match acc.xor(v) {
                Ok(n) => acc = n,
                Err(BddError::NodeLimit { limit }) => {
                    assert_eq!(limit, 8);
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed);
        // Raising the limit lets the same computation finish.
        m.set_node_limit(Some(100_000));
        let mut acc = m.zero();
        for v in &vars {
            acc = acc.xor(v).unwrap();
        }
        assert!(!acc.is_const());
    }

    #[test]
    fn retry_after_gc_collects_once_at_the_limit() {
        let m = BddManager::new();
        let vars: Vec<Bdd> = (0..6).map(|_| m.new_var()).collect();
        // Garbage: a dropped conjunction of every variable.
        drop(vars.iter().try_fold(m.one(), |acc, v| acc.and(v)).unwrap());
        m.set_node_limit(Some(m.live_nodes()));
        let gc_runs = || m.stats().gc_runs;
        let (before, mut calls) = (gc_runs(), 0);
        let x = m.retry_after_gc(|| {
            calls += 1;
            vars[0].xor(&vars[1])
        });
        assert!(x.is_ok());
        assert_eq!((calls, gc_runs() - before), (2, 1));
        // An operation that fits runs once, without a collection.
        let mut calls = 0;
        let y = m.retry_after_gc(|| {
            calls += 1;
            Ok(vars[2].not())
        });
        assert!(y.is_ok());
        assert_eq!((calls, gc_runs() - before), (1, 1));
        // One that cannot fit even after collecting fails after one retry.
        m.set_node_limit(Some(m.live_nodes()));
        let mut calls = 0;
        let z = m.retry_after_gc(|| {
            calls += 1;
            vars.iter().try_fold(m.zero(), |acc, v| acc.xor(v))
        });
        assert!(matches!(z, Err(BddError::NodeLimit { .. })));
        assert_eq!((calls, gc_runs() - before), (2, 2));
    }

    #[test]
    fn garbage_bit_and_creation_counter() {
        let m = BddManager::new();
        let (x, y) = (m.new_var(), m.new_var());
        assert!(m.has_garbage(), "an allocation may leave garbage");
        m.gc();
        assert!(!m.has_garbage());
        // Handles to existing nodes neither allocate nor release anything.
        let (x2, nx) = (x.clone(), x.not());
        drop((x2, nx));
        assert!(!m.has_garbage());
        let created = m.stats().nodes_created;
        let f = x.and(&y).unwrap();
        assert!(m.has_garbage());
        assert_eq!(m.stats().nodes_created, created + 1);
        m.gc();
        assert!(!m.has_garbage(), "f is still held");
        // A recomputation finds the node and allocates nothing.
        drop(x.and(&y).unwrap());
        assert!(!m.has_garbage());
        drop(f);
        assert!(m.has_garbage(), "the last handle to x∧y is gone");
        assert_eq!(m.gc(), 1);
        assert_eq!(m.stats().nodes_created, created + 1, "gc never uncounts");
    }

    #[test]
    fn gc_reclaims_dead_nodes() {
        let m = BddManager::new();
        let vars: Vec<Bdd> = (0..10).map(|_| m.new_var()).collect();
        let before;
        {
            let mut acc = m.one();
            for v in &vars {
                acc = acc.and(v).unwrap();
            }
            before = m.live_nodes();
            assert!(before >= 10);
            // acc dropped here
        }
        let freed = m.gc();
        assert!(freed > 0);
        assert!(m.live_nodes() < before);
        // Literals are still externally referenced via `vars`.
        assert!(m.live_nodes() >= 10);
    }

    #[test]
    fn gc_preserves_live_functions() {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = x.xor(&y).unwrap();
        let junk = x.and(&y).unwrap().or(&x).unwrap();
        drop(junk);
        m.gc();
        // f still evaluates correctly after GC.
        assert!(f.eval(&[true, false]));
        assert!(!f.eval(&[true, true]));
        // And new operations still find canonical forms.
        let g = y.xor(&x).unwrap();
        assert_eq!(f, g);
        assert_eq!(m.canonical_violations(), 0);
    }

    #[test]
    fn unique_table_survives_growth() {
        // Push well past the initial table capacity and re-derive a few
        // canonical forms: growth must not lose or duplicate nodes.
        let m = BddManager::new();
        let vars: Vec<Bdd> = (0..20).map(|_| m.new_var()).collect();
        let mut acc = m.zero();
        for v in &vars {
            acc = acc.xor(v).unwrap();
        }
        let mut acc2 = m.zero();
        for v in vars.iter().rev() {
            acc2 = acc2.xor(v).unwrap();
        }
        assert_eq!(acc, acc2);
        assert_eq!(m.canonical_violations(), 0);
        let st = m.stats();
        assert!(st.unique_lookups > 0);
        assert!(st.unique_probes >= st.unique_lookups);
    }

    #[test]
    fn stats_track_peak_gc_and_cache() {
        let m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let f = x.and(&y).unwrap();
        let _g = x.and(&y).unwrap().or(&f).unwrap();
        let st = m.stats();
        assert_eq!(st.num_vars, 2);
        assert!(st.live_nodes >= 3);
        assert!(st.peak_live_nodes >= st.live_nodes);
        assert!(
            st.cache_hits + st.cache_misses > 0,
            "ite must consult the cache"
        );
        assert!(st.unique_lookups > 0);
        assert!(st.unique_probes >= st.unique_lookups);
        m.gc();
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().cache_entries, 0, "gc clears the computed cache");
    }

    #[test]
    fn empty_stats_count_no_lookups() {
        let st = BddManager::new().stats();
        assert_eq!((st.cache_hits, st.cache_misses), (0, 0));
        assert_eq!((st.unique_lookups, st.unique_probes), (0, 0));
    }

    #[test]
    fn clone_shares_store() {
        let m = BddManager::new();
        let m2 = m.clone();
        let x = m.new_var();
        let y = m2.new_var();
        let f = x.and(&y).unwrap(); // cross-clone op works
        assert_eq!(f.manager().num_vars(), 2);
    }

    #[test]
    #[should_panic(expected = "never created")]
    fn unknown_var_panics() {
        let m = BddManager::new();
        m.var(VarId(3));
    }

    #[test]
    fn debug_is_nonempty() {
        let m = BddManager::new();
        assert!(!format!("{m:?}").is_empty());
        assert!(!format!("{}", VarId(2)).is_empty());
    }

    /// The classic sifting win: Σ aᵢ∧bᵢ under the order a0 a1 a2 b0 b1 b2 is
    /// quadratic; pairing the levels makes it linear. One pass must find the
    /// paired order, keep every handle denoting the same function, and leave
    /// the arena canonical.
    #[test]
    fn sift_shrinks_disjoint_cover_and_preserves_semantics() {
        let m = BddManager::new();
        let a: Vec<Bdd> = (0..3).map(|_| m.new_var()).collect();
        let b: Vec<Bdd> = (0..3).map(|_| m.new_var()).collect();
        let mut f = m.zero();
        for i in 0..3 {
            f = f.or(&a[i].and(&b[i]).unwrap()).unwrap();
        }
        m.gc();
        let before = f.size();
        let count_before = f.sat_count(6);
        let freed = m.sift(&[], 1.2);
        assert!(freed > 0, "sifting must shed nodes on the bad order");
        assert!(!m.has_garbage(), "a sifting pass ends on a collected arena");
        assert!(f.size() < before, "{} !< {before}", f.size());
        assert_eq!(m.canonical_violations(), 0);
        // `eval` indexes by stable var id, so the truth table is an
        // order-independent oracle.
        for bits in 0u32..64 {
            let asg: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            let expect = (0..3).any(|i| asg[i] && asg[i + 3]);
            assert_eq!(f.eval(&asg), expect, "assignment {bits:06b}");
        }
        assert_eq!(f.sat_count(6), count_before);
        let st = m.stats();
        assert_eq!(st.reorder_runs, 1);
        assert!(st.reorder_swaps > 0);
        // var2level/level2var stay inverse permutations.
        let order = m.current_order();
        assert_eq!(order.len(), 6);
        for (lvl, v) in order.iter().enumerate() {
            assert_eq!(m.var_level(*v), lvl);
        }
        // New variables still go to the bottom of the *current* order.
        let z = m.new_var();
        assert_eq!(m.var_level(z.top_var().unwrap()), 6);
    }

    #[test]
    fn sift_moves_groups_as_rigid_blocks() {
        // Interleaved (x, y) pairs in creation order; functions chosen so an
        // ungrouped sifter would want to tear the pairs apart.
        let m = BddManager::new();
        let vars: Vec<Bdd> = (0..8).map(|_| m.new_var()).collect();
        let pairs: Vec<Vec<VarId>> = (0..4)
            .map(|i| {
                vec![
                    vars[2 * i].top_var().unwrap(),
                    vars[2 * i + 1].top_var().unwrap(),
                ]
            })
            .collect();
        // Link x of pair i with y of pair 3-i to create reorder pressure.
        let mut f = m.zero();
        for i in 0..4 {
            f = f
                .or(&vars[2 * i].and(&vars[2 * (3 - i) + 1]).unwrap())
                .unwrap();
        }
        m.sift(&pairs, 1.5);
        assert_eq!(m.canonical_violations(), 0);
        for p in &pairs {
            assert_eq!(
                m.var_level(p[1]),
                m.var_level(p[0]) + 1,
                "pair {p:?} no longer interleaved"
            );
        }
        for bits in 0u32..256 {
            let asg: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            let expect = (0..4).any(|i| asg[2 * i] && asg[2 * (3 - i) + 1]);
            assert_eq!(f.eval(&asg), expect);
        }
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn sift_rejects_non_contiguous_group() {
        let m = BddManager::with_vars(4);
        let order = m.current_order();
        m.sift(&[vec![order[0], order[2]]], 1.2);
    }

    #[test]
    #[should_panic(expected = "two sift groups")]
    fn sift_rejects_duplicate_group_member() {
        let m = BddManager::with_vars(2);
        let order = m.current_order();
        m.sift(&[vec![order[0]], vec![order[0]]], 1.2);
    }

    #[test]
    fn sift_is_deterministic() {
        let build = || {
            let m = BddManager::new();
            let vars: Vec<Bdd> = (0..6).map(|_| m.new_var()).collect();
            let mut f = m.zero();
            for i in 0..3 {
                f = f.or(&vars[i].and(&vars[i + 3]).unwrap()).unwrap();
            }
            m.sift(&[], 1.2);
            (m.current_order(), f.size())
        };
        assert_eq!(build(), build());
    }
}
