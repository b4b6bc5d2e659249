//! Canonical forms and isomorphism-invariant keys for template dependencies.
//!
//! Two TDs ask the *same* implication question when they differ only by a
//! per-column renaming of variables and a permutation of antecedent rows —
//! the paper never distinguishes such copies ("only the pattern of equality
//! among attribute values … \[is\] important"). This module assigns every
//! TD a [`CanonKey`] — a stable 128-bit digest of a canonical labelling —
//! such that **two TDs get the same key iff they are isomorphic** (equal up
//! to variable renaming and row permutation; column order stays
//! significant, because the typing restriction makes columns
//! distinguishable sorts). Σ-sessions key their goals by it, and
//! [`system_key`] lifts it to a whole reduced system `D ⊨ D₀`.
//!
//! The decision cache of word-problem instances does **not** key on
//! reduced systems: the question is fixed by the presentation, so the
//! `td-reduction` engine keys it there, before reducing, with
//! [`digest_key`] over an exact encoding of the presentation (names,
//! equation order, side order and repeats ignored; symbol indices kept).
//!
//! # Algorithm
//!
//! Canonicalization follows standard graph-canonicalization practice
//! (individualization–refinement, as in `nauty`-style tools) on the
//! **row–variable incidence structure**:
//!
//! * nodes are the antecedent rows and the (column-scoped) variables;
//! * *color refinement* iteratively splits color classes — a row's signature
//!   is the column-ordered vector of its variables' colors (columns are
//!   fixed, so the vector is ordered, not a multiset), a variable's
//!   signature is the multiset of colors of the antecedent rows it occurs
//!   in; the conclusion row is a fixed anchor, so variables that appear in
//!   the conclusion start in their own color;
//! * when refinement stalls with a non-discrete row partition, the search
//!   branches on the **smallest** remaining row class (smallest-orbit
//!   branching): each member is individualized in turn, refinement resumes,
//!   and the lexicographically smallest leaf encoding wins;
//! * one cheap **automorphism pruning** rule keeps the ubiquitous
//!   symmetric tableaux linear: class members that agree on every shared
//!   variable and differ only in variables *private* to their row are
//!   interchangeable (the row transposition swapping the private variables
//!   is an automorphism), so only one of them is branched on. A `k`-row
//!   star tableau — rows sharing a hub variable plus fresh privates —
//!   would otherwise branch `k!`-fold.
//!
//! At a discrete leaf the row order is forced; renaming variables per column
//! in first-occurrence order (exactly [`Td::normalized`]) then yields the
//! canonical form, and the key is a 128-bit FNV-1a digest of its encoding.
//! The encoding is a complete invariant — keys can only collide if the
//! digest does, which at 128 bits is negligible for any realistic corpus.
//!
//! The brute-force [`isomorphic`] check (all row permutations) is kept as
//! the property-test oracle; it is factorial and must only be used on small
//! dependencies.

use crate::ids::{AttrId, Var};
use crate::td::{Td, TdRow};

/// Version of the keying scheme: the key-derivation algorithms, their
/// encodings, and the digest. **Bump this constant whenever a change can
/// alter the [`CanonKey`] assigned to any TD or to any word-problem
/// instance** — refinement signatures, branching order, the leaf
/// encoding, the digest function, the [`system_key`] composition, or the
/// presentation key the `td-reduction` engine caches `wp` verdicts under
/// (`Engine::canonical_key`, built on [`digest_key`]). Persisted artifacts
/// keyed by these keys (the decision-cache snapshots in `td-reduction`)
/// embed this version and refuse to marry keys minted under a different
/// scheme: a stale snapshot must be discarded, never silently
/// reinterpreted as if its keys still named the same classes.
pub const CANON_SCHEME_VERSION: u32 = 2;

/// An isomorphism-invariant 128-bit key: equal for two TDs exactly when
/// they coincide up to per-column variable renaming and antecedent-row
/// permutation (up to digest collision, which is negligible at 128 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey(u128);

impl CanonKey {
    /// The raw 128-bit digest.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Rebuilds a key from a digest previously obtained via
    /// [`CanonKey::raw`] — the deserialization half of snapshot formats.
    /// The digest is only meaningful under the [`CANON_SCHEME_VERSION`]
    /// that minted it; callers persisting raw keys must persist (and check)
    /// that version alongside them.
    pub const fn from_raw(raw: u128) -> Self {
        CanonKey(raw)
    }

    /// A well-distributed 64-bit fold of the key, for shard selection.
    pub const fn fold64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }
}

impl std::fmt::Display for CanonKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 128-bit FNV-1a over a `u32` stream (little-endian bytes). Deterministic
/// and dependency-free; the canonical encoding it digests is itself a
/// complete isomorphism invariant.
#[derive(Debug, Clone, Copy)]
struct Digest(u128);

impl Digest {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Self {
        Digest(Self::OFFSET)
    }

    fn push_u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn push_u128(&mut self, v: u128) {
        self.push_u32(v as u32);
        self.push_u32((v >> 32) as u32);
        self.push_u32((v >> 64) as u32);
        self.push_u32((v >> 96) as u32);
    }

    fn finish(self) -> CanonKey {
        CanonKey(self.0)
    }
}

/// The refinement state: one color per antecedent row and one per distinct
/// (column, variable) node. Colors are dense ranks of invariant signatures,
/// so the whole state is isomorphism-invariant. Everything is interned into
/// dense *flat* vectors up front — the refinement loop does no hashing and
/// no per-node allocation (batch canonicalization keys thousands of small
/// TDs, so per-key constant costs dominate; see [`Scratch`]).
struct Refiner<'a> {
    td: &'a Td,
    arity: usize,
    n_rows: usize,
    /// Per antecedent row, the column-ordered variable node ids (flattened
    /// `n_rows × arity`).
    row_var_ids: Vec<usize>,
    /// CSR adjacency: for variable node `id`, the antecedent rows it occurs
    /// in are `var_row_data[var_row_start[id]..var_row_start[id + 1]]`, in
    /// ascending row order (a variable lives in exactly one column, so each
    /// row appears at most once per node).
    var_row_start: Vec<usize>,
    /// The flattened occurrence rows behind [`Refiner::var_row_start`].
    var_row_data: Vec<usize>,
    /// Initial (invariant) variable colors: column index, split by whether
    /// the variable is the conclusion's variable for that column.
    var_init: Vec<u64>,
    /// Per antecedent row, the column-ordered *public signature*, flattened
    /// `n_rows × arity`: the variable node id if it occurs anywhere else
    /// (another antecedent row or the conclusion), `usize::MAX` for
    /// variables private to this row. Two rows of one color class with
    /// equal public signatures are interchangeable by an automorphism (the
    /// transposition swapping their private variables), so the branching
    /// search explores only one of them.
    row_public: Vec<usize>,
}

/// Reusable buffers for [`Refiner::refine`]: signature arenas, the ranking
/// index, and the double-buffered colorings. One `Scratch` serves every
/// refine call of a canonical search (the buffers hold no state between
/// calls), so a whole [`canon_key`] costs a bounded handful of allocations
/// instead of a fresh signature `Vec` per node per iteration.
#[derive(Default)]
struct Scratch {
    /// Variable colors at the current iteration.
    var_colors: Vec<u64>,
    /// Next variable colors (dense ranks), double-buffered.
    new_var: Vec<u64>,
    /// Next row colors (dense ranks), double-buffered.
    new_row: Vec<u64>,
    /// Variable signature arena, laid out like
    /// [`Refiner::var_row_data`]: per variable, the sorted colors of its
    /// occurrence rows.
    var_sig_data: Vec<u64>,
    /// Row signature arena (`n_rows × arity`): per row, the column-ordered
    /// colors of its variables.
    row_sig_data: Vec<u64>,
    /// Sort index for dense ranking.
    idx: Vec<usize>,
    /// Per-color member counts for the branching search's class grouping.
    counts: Vec<u32>,
}

/// Sorts `idx` as `0..n` under `cmp` and writes dense ranks into `out`:
/// equal keys get equal ranks, ranks follow key order. The comparator is
/// over invariant signatures, hence so are the ranks.
fn dense_ranks_with(
    n: usize,
    idx: &mut Vec<usize>,
    out: &mut Vec<u64>,
    mut cmp: impl FnMut(usize, usize) -> std::cmp::Ordering,
) {
    idx.clear();
    idx.extend(0..n);
    idx.sort_unstable_by(|&a, &b| cmp(a, b));
    out.clear();
    out.resize(n, 0);
    let mut rank = 0u64;
    for w in 0..n {
        if w > 0 && cmp(idx[w], idx[w - 1]) != std::cmp::Ordering::Equal {
            rank += 1;
        }
        out[idx[w]] = rank;
    }
}

impl<'a> Refiner<'a> {
    fn new(td: &'a Td) -> Self {
        let arity = td.arity();
        let n_rows = td.antecedent_count();
        // Per-column interning tables indexed by raw variable id (variable
        // ids are dense per column in practice, so a direct-index table
        // beats hashing on the canonicalization hot path). One flat table
        // with per-column offsets keeps this to a single allocation.
        let col_base: Vec<usize> = {
            let mut base = Vec::with_capacity(arity + 1);
            let mut acc = 0usize;
            base.push(0);
            for m in td.max_var_per_column() {
                acc += m.map_or(0, |v| v.index() + 1);
                base.push(acc);
            }
            base
        };
        let mut intern_tbl: Vec<usize> = vec![usize::MAX; col_base[arity]];
        // Occurrence counts per node (antecedent rows only, to start): used
        // both for the CSR prefix sums and the privacy test below.
        let mut occurrences: Vec<usize> = Vec::new();
        let mut var_init: Vec<u64> = Vec::new();
        let mut intern =
            |col: AttrId, v: Var, occurrences: &mut Vec<usize>, var_init: &mut Vec<u64>| {
                let slot = &mut intern_tbl[col_base[col.index()] + v.index()];
                if *slot == usize::MAX {
                    *slot = occurrences.len();
                    occurrences.push(0);
                    // The column fixes the sort; the conclusion pass below
                    // individually distinguishes the conclusion's variables
                    // (the conclusion row is not permutable).
                    var_init.push((col.index() as u64) * 2);
                }
                *slot
            };
        let mut row_var_ids: Vec<usize> = Vec::with_capacity(n_rows * arity);
        for row in td.antecedents() {
            for (col, v) in row.components() {
                let id = intern(col, v, &mut occurrences, &mut var_init);
                occurrences[id] += 1;
                row_var_ids.push(id);
            }
        }
        for (col, v) in td.conclusion().components() {
            let id = intern(col, v, &mut occurrences, &mut var_init);
            var_init[id] = (col.index() as u64) * 2 + 1;
            occurrences[id] += 1;
        }
        let n_vars = occurrences.len();
        // CSR fill: prefix sums over the antecedent-only occurrence counts
        // (a node introduced by the conclusion alone has no occurrence
        // rows), then one pass over the rows in ascending order.
        let mut concl_extra = vec![0usize; n_vars];
        for (col, v) in td.conclusion().components() {
            concl_extra[intern_tbl[col_base[col.index()] + v.index()]] = 1;
        }
        let mut var_row_start: Vec<usize> = Vec::with_capacity(n_vars + 1);
        let mut acc = 0usize;
        var_row_start.push(0);
        for id in 0..n_vars {
            acc += occurrences[id] - concl_extra[id];
            var_row_start.push(acc);
        }
        let mut cursor: Vec<usize> = var_row_start[..n_vars].to_vec();
        let mut var_row_data: Vec<usize> = vec![0; acc];
        for r in 0..n_rows {
            for &id in &row_var_ids[r * arity..(r + 1) * arity] {
                var_row_data[cursor[id]] = r;
                cursor[id] += 1;
            }
        }
        // A variable with a single total occurrence (rows + conclusion) is
        // private to its row; public nodes keep their id, private slots get
        // the `usize::MAX` sentinel (never a real node id).
        let row_public: Vec<usize> = row_var_ids
            .iter()
            .map(|&id| if occurrences[id] > 1 { id } else { usize::MAX })
            .collect();
        Refiner {
            td,
            arity,
            n_rows,
            row_var_ids,
            var_row_start,
            var_row_data,
            var_init,
            row_public,
        }
    }

    /// Runs color refinement to a fixpoint from the given row coloring
    /// (variables restart from their invariant initial colors each time,
    /// which reaches the same fixpoint and keeps the code simple). Returns
    /// the stable row coloring, as dense ranks. All signature and ranking
    /// buffers live in the caller's [`Scratch`] and ranking is sort-based
    /// ([`dense_ranks_with`]) — this sits on the batch pipeline's
    /// canonicalization hot path, where per-call allocation dominates.
    fn refine(&self, row_colors: &mut Vec<u64>, s: &mut Scratch) {
        let n_vars = self.var_init.len();
        let Scratch {
            var_colors,
            new_var,
            new_row,
            var_sig_data,
            row_sig_data,
            idx,
            ..
        } = s;
        var_colors.clear();
        var_colors.extend_from_slice(&self.var_init);
        loop {
            // Variables: signature = (own color, sorted multiset of
            // occurrence-row colors), laid out in the CSR arena.
            var_sig_data.clear();
            var_sig_data.extend(self.var_row_data.iter().map(|&r| row_colors[r]));
            for id in 0..n_vars {
                var_sig_data[self.var_row_start[id]..self.var_row_start[id + 1]].sort_unstable();
            }
            dense_ranks_with(n_vars, idx, new_var, |a, b| {
                let sig = |id: usize| {
                    (
                        var_colors[id],
                        &var_sig_data[self.var_row_start[id]..self.var_row_start[id + 1]],
                    )
                };
                sig(a).cmp(&sig(b))
            });

            // Rows: signature = (own color, column-ordered variable colors).
            row_sig_data.clear();
            row_sig_data.extend(self.row_var_ids.iter().map(|&id| new_var[id]));
            dense_ranks_with(self.n_rows, idx, new_row, |a, b| {
                let sig = |r: usize| {
                    (
                        row_colors[r],
                        &row_sig_data[r * self.arity..(r + 1) * self.arity],
                    )
                };
                sig(a).cmp(&sig(b))
            });

            let stable = new_row == row_colors && new_var == var_colors;
            std::mem::swap(row_colors, new_row);
            std::mem::swap(var_colors, new_var);
            if stable {
                return;
            }
        }
    }

    /// The canonical search: refine, then branch on the smallest ambiguous
    /// row class, keeping the lexicographically smallest leaf encoding.
    fn canonize(&self, row_colors: Vec<u64>, best: &mut Option<Vec<u32>>, s: &mut Scratch) {
        let mut colors = row_colors;
        self.refine(&mut colors, s);

        // Group rows by color — refinement returns dense ranks, so a
        // counting pass suffices — and find the smallest class with >= 2
        // members (ties towards the smallest color, for determinism: the
        // ascending scan takes the first color achieving the minimum size).
        s.counts.clear();
        s.counts.resize(self.n_rows, 0);
        for &c in &colors {
            s.counts[c as usize] += 1;
        }
        let target = s
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n >= 2)
            .min_by_key(|&(_, &n)| n)
            .map(|(c, _)| c as u64);

        match target {
            None => {
                // Discrete: the coloring orders the rows totally.
                let mut order: Vec<usize> = (0..self.n_rows).collect();
                order.sort_by_key(|&r| colors[r]);
                let enc = self.encode(&order);
                if best.as_ref().is_none_or(|b| enc < *b) {
                    *best = Some(enc);
                }
            }
            Some(class) => {
                let members: Vec<usize> =
                    (0..self.n_rows).filter(|&r| colors[r] == class).collect();
                // Automorphism pruning for the common symmetric case: two
                // class members that agree on every shared variable (and
                // differ only in variables private to the row) map to each
                // other under a row transposition that fixes the rest of
                // the dependency, so their branches yield identical
                // minima. Without this, a tableau of k rows that differ
                // only in fresh variables branches k!-fold.
                let public = |r: usize| &self.row_public[r * self.arity..(r + 1) * self.arity];
                let mut branched: Vec<&[usize]> = Vec::new();
                for r in members {
                    if branched.contains(&public(r)) {
                        continue;
                    }
                    branched.push(public(r));
                    // Individualize r: give it a fresh color below its
                    // class (2c keeps relative order of all other classes).
                    let mut next: Vec<u64> = colors.iter().map(|&c| 2 * c + 1).collect();
                    next[r] = 2 * class;
                    self.canonize(next, best, s);
                }
            }
        }
    }

    /// Encodes the TD with its antecedent rows in `order`, renaming
    /// variables per column in first-occurrence order. A complete invariant
    /// of the isomorphism class once `order` is canonical. The rename
    /// tables are dense direct-index vectors (variable ids are dense per
    /// column, same as the interner in [`Refiner::new`]) — this runs once
    /// per leaf of the branching search, so it stays hash-free like the
    /// refinement loop.
    fn encode(&self, order: &[usize]) -> Vec<u32> {
        const UNNAMED: u32 = u32::MAX;
        let mut rename: Vec<Vec<u32>> = self
            .td
            .max_var_per_column()
            .iter()
            .map(|m| vec![UNNAMED; m.map_or(0, |v| v.index() + 1)])
            .collect();
        let mut next: Vec<u32> = vec![0; self.arity];
        let mut out: Vec<u32> = Vec::with_capacity(2 + (self.n_rows + 1) * self.arity);
        out.push(self.arity as u32);
        out.push(self.n_rows as u32);
        let mut push_row = |row: &TdRow, out: &mut Vec<u32>| {
            for (col, v) in row.components() {
                let slot = &mut rename[col.index()][v.index()];
                if *slot == UNNAMED {
                    *slot = next[col.index()];
                    next[col.index()] += 1;
                }
                out.push(*slot);
            }
        };
        for &r in order {
            push_row(&self.td.antecedents()[r], &mut out);
        }
        push_row(self.td.conclusion(), &mut out);
        out
    }
}

/// The canonical encoding behind [`canon_key`]: a complete invariant of the
/// TD's isomorphism class, as a flat `u32` sequence
/// `[arity, n_antecedents, rows…, conclusion]` with canonically ordered
/// rows and canonically renamed variables.
fn canon_encoding(td: &Td) -> Vec<u32> {
    let refiner = Refiner::new(td);
    let mut best: Option<Vec<u32>> = None;
    let mut scratch = Scratch::default();
    refiner.canonize(vec![0; td.antecedent_count()], &mut best, &mut scratch);
    best.expect("at least one leaf: every TD has >= 1 antecedent")
}

/// A copy of `td` with antecedent rows in canonical order and variables
/// canonically renamed: two TDs are isomorphic iff their canonical forms
/// have identical rows. The name is preserved (it carries no structure).
pub fn canon_form(td: &Td) -> Td {
    let refiner = Refiner::new(td);
    let mut best: Option<Vec<u32>> = None;
    let mut scratch = Scratch::default();
    refiner.canonize(vec![0; td.antecedent_count()], &mut best, &mut scratch);
    let enc = best.expect("at least one leaf");
    let arity = td.arity();
    let rows: Vec<TdRow> = enc[2..]
        .chunks(arity)
        .map(|chunk| TdRow::from_raw(chunk.iter().copied()))
        .collect();
    let (concl, antes) = rows.split_last().expect("conclusion present");
    Td::new(
        td.schema().clone(),
        antes.to_vec(),
        concl.clone(),
        td.name(),
    )
    .expect("canonical rows keep the original arities")
}

/// The isomorphism-invariant key of one TD. Equal keys ⇔ isomorphic TDs
/// (renamed variables and/or permuted antecedent rows), up to 128-bit
/// digest collision.
pub fn canon_key(td: &Td) -> CanonKey {
    digest_key(canon_encoding(td))
}

/// The 128-bit FNV-1a digest [`canon_key`] applies to its encoding, over
/// any `u32` stream (little-endian bytes). Deterministic across builds and
/// Rust releases — unlike std's `DefaultHasher` — so keys minted from it
/// can be persisted under [`CANON_SCHEME_VERSION`]. The stream must be an
/// injective encoding of whatever the key is meant to identify (e.g.
/// length-prefixed sequences); the digest adds no structure of its own.
pub fn digest_key(stream: impl IntoIterator<Item = u32>) -> CanonKey {
    let mut d = Digest::new();
    for v in stream {
        d.push_u32(v);
    }
    d.finish()
}

/// The key of a whole implication instance `D ⊨ D₀`: the multiset of the
/// premises' keys (order-independent — `D` is a set) combined with the
/// goal's key. Two instances get the same key iff their premise multisets
/// match pairwise up to isomorphism and so do their goals; the verdict of
/// the implication question is invariant under exactly these changes.
///
/// This is an invariant of a *reduced* system, not the key the
/// `td-reduction` engine caches word-problem verdicts under: that key is
/// taken from the presentation before anything is reduced (see
/// `Engine::canonical_key`).
pub fn system_key(deps: &[Td], d0: &Td) -> CanonKey {
    let mut dep_keys: Vec<CanonKey> = deps.iter().map(canon_key).collect();
    dep_keys.sort_unstable();
    let mut d = Digest::new();
    d.push_u32(d0.arity() as u32);
    d.push_u32(deps.len() as u32);
    for k in dep_keys {
        d.push_u128(k.raw());
    }
    d.push_u128(canon_key(d0).raw());
    d.finish()
}

/// Brute-force isomorphism test: tries every permutation of `a`'s
/// antecedent rows against `b` (row-permuted copies compare equal after
/// [`Td::normalized`]). **Factorial in the antecedent count** — this is the
/// property-test oracle for [`canon_key`], not a production check.
pub fn isomorphic(a: &Td, b: &Td) -> bool {
    if a.arity() != b.arity() || a.antecedent_count() != b.antecedent_count() {
        return false;
    }
    let nb = b.normalized();
    let k = a.antecedent_count();
    let mut perm: Vec<usize> = (0..k).collect();
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; k];
    let check = |perm: &[usize]| {
        let antes: Vec<TdRow> = perm.iter().map(|&i| a.antecedents()[i].clone()).collect();
        let td = Td::new(a.schema().clone(), antes, a.conclusion().clone(), a.name())
            .expect("same rows, same arities")
            .normalized();
        td.antecedents() == nb.antecedents() && td.conclusion() == nb.conclusion()
    };
    if check(&perm) {
        return true;
    }
    let mut i = 1;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            if check(&perm) {
                return true;
            }
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::td::TdBuilder;

    fn schema3() -> Schema {
        Schema::new("R", ["A", "B", "C"]).unwrap()
    }

    fn schema2() -> Schema {
        Schema::new("R", ["A", "B"]).unwrap()
    }

    fn fig1() -> Td {
        TdBuilder::new(schema3())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap()
    }

    #[test]
    fn key_invariant_under_renaming() {
        let td1 = fig1();
        let td2 = TdBuilder::new(schema3())
            .antecedent(["s", "t", "u"])
            .unwrap()
            .antecedent(["s", "t2", "u2"])
            .unwrap()
            .conclusion(["*", "t", "u2"])
            .unwrap()
            .build("renamed")
            .unwrap();
        assert_eq!(canon_key(&td1), canon_key(&td2));
    }

    #[test]
    fn key_invariant_under_row_permutation() {
        let td1 = fig1();
        // Rows swapped; the conclusion references the same structure.
        let td2 = TdBuilder::new(schema3())
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .antecedent(["a", "b", "c"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("swapped")
            .unwrap();
        assert!(isomorphic(&td1, &td2));
        assert_eq!(canon_key(&td1), canon_key(&td2));
    }

    #[test]
    fn distinct_structures_get_distinct_keys() {
        let td1 = fig1();
        // A no longer shared between the rows.
        let td3 = TdBuilder::new(schema3())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a2", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("unshared")
            .unwrap();
        assert!(!isomorphic(&td1, &td3));
        assert_ne!(canon_key(&td1), canon_key(&td3));
    }

    #[test]
    fn conclusion_pattern_matters() {
        let full = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("full")
            .unwrap();
        let other = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a'", "b"])
            .unwrap()
            .build("mirror")
            .unwrap();
        // These ARE isomorphic: swapping the two antecedent rows maps one
        // conclusion pattern onto the other.
        assert!(isomorphic(&full, &other));
        assert_eq!(canon_key(&full), canon_key(&other));
        // But an existential conclusion is genuinely different.
        let emb = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["*", "b'"])
            .unwrap()
            .build("emb")
            .unwrap();
        assert!(!isomorphic(&full, &emb));
        assert_ne!(canon_key(&full), canon_key(&emb));
    }

    /// Bipartite cycle fixtures over 2 columns: rows are edges, variables
    /// nodes. Every variable has degree 2, so color refinement alone is
    /// stuck at the uniform coloring — only individualization branching can
    /// tell one big cycle from two small ones.
    fn cycle_td(cycles: &[usize], name: &str) -> Td {
        let mut antecedents = Vec::new();
        let (mut a_base, mut b_base) = (0u32, 0u32);
        for &len in cycles {
            assert!(len >= 2 && len % 2 == 0, "bipartite cycles are even");
            let half = (len / 2) as u32;
            for i in 0..half {
                // Edges (a_i, b_i) and (a_{i+1}, b_i) close a 2·half cycle.
                antecedents.push(TdRow::from_raw([a_base + i, b_base + i]));
                antecedents.push(TdRow::from_raw([a_base + (i + 1) % half, b_base + i]));
            }
            a_base += half;
            b_base += half;
        }
        // Fresh existential conclusion: contributes no distinguishing
        // structure.
        let concl = TdRow::from_raw([a_base + 100, b_base + 100]);
        Td::new(schema2(), antecedents, concl, name).unwrap()
    }

    #[test]
    fn near_isomorphic_cycles_distinguished() {
        // 8 rows either as one 8-cycle or as two 4-cycles: identical color
        // refinement signatures, non-isomorphic structures.
        let one = cycle_td(&[8], "one-8-cycle");
        let two = cycle_td(&[4, 4], "two-4-cycles");
        assert_eq!(one.antecedent_count(), two.antecedent_count());
        assert!(!isomorphic(&one, &two));
        assert_ne!(canon_key(&one), canon_key(&two));
        // And a shuffled copy of the 8-cycle still matches it.
        let mut rows = one.antecedents().to_vec();
        rows.rotate_left(3);
        rows.swap(0, 5);
        let shuffled = Td::new(schema2(), rows, one.conclusion().clone(), "shuffled").unwrap();
        assert_eq!(canon_key(&one), canon_key(&shuffled));
    }

    #[test]
    fn canon_form_is_a_fixpoint_and_isomorphic() {
        for td in [fig1(), cycle_td(&[4, 4], "c"), cycle_td(&[6], "c6")] {
            let cf = canon_form(&td);
            assert!(isomorphic(&td, &cf));
            let cf2 = canon_form(&cf);
            assert_eq!(cf.antecedents(), cf2.antecedents());
            assert_eq!(cf.conclusion(), cf2.conclusion());
            assert_eq!(canon_key(&td), canon_key(&cf));
        }
    }

    #[test]
    fn system_key_is_order_independent_and_goal_sensitive() {
        let d1 = fig1();
        let d2 = TdBuilder::new(schema3())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("join")
            .unwrap();
        let k1 = system_key(&[d1.clone(), d2.clone()], &d1);
        let k2 = system_key(&[d2.clone(), d1.clone()], &d1);
        assert_eq!(k1, k2, "premise order must not matter");
        let k3 = system_key(&[d1.clone(), d2.clone()], &d2);
        assert_ne!(k1, k3, "the goal must matter");
        // A premise swapped for an isomorphic copy keeps the key.
        let d1r = TdBuilder::new(schema3())
            .antecedent(["x", "y", "z"])
            .unwrap()
            .antecedent(["x", "y2", "z2"])
            .unwrap()
            .conclusion(["*", "y", "z2"])
            .unwrap()
            .build("fig1-copy")
            .unwrap();
        assert_eq!(system_key(&[d1r, d2.clone()], &d1), k1);
    }

    #[test]
    fn duplicate_rows_are_handled() {
        // Duplicate antecedent rows: permutations that swap them are
        // automorphisms; the key is still well-defined and invariant.
        let td = Td::new(
            schema2(),
            vec![
                TdRow::from_raw([0, 0]),
                TdRow::from_raw([0, 0]),
                TdRow::from_raw([0, 1]),
            ],
            TdRow::from_raw([0, 1]),
            "dups",
        )
        .unwrap();
        let td_perm = Td::new(
            schema2(),
            vec![
                TdRow::from_raw([5, 1]),
                TdRow::from_raw([5, 5]),
                TdRow::from_raw([5, 5]),
            ],
            TdRow::from_raw([5, 1]),
            "dups-renamed",
        )
        .unwrap();
        assert!(isomorphic(&td, &td_perm));
        assert_eq!(canon_key(&td), canon_key(&td_perm));
    }

    #[test]
    fn symmetric_star_tableaux_stay_tractable() {
        // 64 rows sharing the column-0 hub, each with a private column-1
        // variable: a 63!-sized automorphism group. The pruning rule must
        // keep this linear; key equality under row permutation and
        // renaming still holds.
        // Offsets start at 1: column-1 variable 0 is the conclusion's, and
        // a row carrying it would not be private-symmetric with the rest.
        let star = |offset: u32, rot: usize| {
            let mut rows: Vec<TdRow> = (0..64).map(|i| TdRow::from_raw([0, offset + i])).collect();
            rows.rotate_left(rot);
            Td::new(schema2(), rows, TdRow::from_raw([1, 0]), "star").unwrap()
        };
        let k1 = canon_key(&star(1, 0));
        let k2 = canon_key(&star(1000, 17));
        assert_eq!(k1, k2);
        // One extra duplicated hub row breaks the symmetry class apart but
        // must stay tractable and distinct.
        let mut rows: Vec<TdRow> = (1..=64).map(|i| TdRow::from_raw([0, i])).collect();
        rows.push(TdRow::from_raw([1, 0]));
        let other = Td::new(schema2(), rows, TdRow::from_raw([1, 0]), "star+").unwrap();
        assert_ne!(canon_key(&other), k1);
    }

    #[test]
    fn display_is_hex() {
        let k = canon_key(&fig1());
        let s = k.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
