//! Seeded known-answer request generator.
//!
//! Every label follows from how an instance is built, never from the
//! system under test:
//!
//! * **implied** — the instance contains a derivable core (a relabel
//!   chain `A0 = X1 = … = Xk = 0`, a product chain `X·Y1 = A0, X·Yi+1 = Yi,
//!   X·Yk = 0`, or the alias `A0 = 0`). Derivability is monotone in the
//!   equation set, so the extra "mark" equations added for variety keep
//!   the label;
//! * **refuted** — either no side of any equation is the lone word `A0`
//!   (the null semigroup `A0 ↦ a`, every other symbol `↦ 0` satisfies
//!   every equation and keeps `A0 ≠ 0`), or the instance holds in a cyclic
//!   nilpotent semigroup `{a, …, a^(N-1), 0}` under an interpretation
//!   with `A0 ↦ a^(N-1)`, which [`Inst::witness_holds`] re-checks when
//!   the instance is built;
//! * **sessions** — under the TD `pt: (a, b) (a2, b) (a2, b2) -> (a, b2)`
//!   the chase of a connected bipartite tableau closes it into the
//!   complete bipartite relation. The guarded zig-zag goal of length `k`
//!   therefore refutes with exactly `(k+1)^2 + 1` rows, and the unguarded
//!   one is implied;
//! * **deps** — in the join family `join-c` (two rows sharing column `c`
//!   conclude the row mixing the first row's columns `..=c` with the
//!   second's `c+1..`), `join-0` and `join-(n-1)` are trivial, hence
//!   redundant. Every middle one is essential: two rows agreeing only on
//!   column `c` satisfy every other member and violate `join-c`.
//!
//! Disguises (fresh symbol names, rotated equation order) keep the
//! symbol order, which the reduction's attribute scheme depends on.

use std::collections::HashSet;

/// SplitMix64: a small, fast, seedable generator (no registry crates).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream `salt` (the request stream or the
    /// self-test).
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Symbol index of `A0` in every [`Inst`].
pub const A0: u8 = 0;
/// Symbol index of the zero symbol in every [`Inst`].
pub const ZERO: u8 = 1;

/// The known answer of an implication question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Implied,
    Refuted,
}

/// How an instance was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Relabel chain plus marks (implied, solved by the portfolio).
    Relabel,
    /// Product chain plus marks (implied, solved by the portfolio).
    Product,
    /// `A0 = 0` plus junk (implied, fast-path eligible).
    Alias,
    /// No lone-`A0` side (refuted, fast-path eligible).
    Probe,
    /// Nilpotent witness (refuted, solved by the model search).
    Nil,
    /// One of the four `duplicate_heavy_corpus` bases.
    DupBase(u8),
}

/// A word-problem instance over symbols `0..n_syms`: `A0` is 0, the zero
/// symbol is 1, the rest are regular. Equations are pairs of words.
#[derive(Debug, Clone)]
pub struct Inst {
    pub family: Family,
    pub label: Label,
    pub n_syms: u8,
    pub eqs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Symbols whose renamings the generator's own canonical form folds
    /// together (see [`Inst::canon`]).
    free: Vec<u8>,
}

impl Inst {
    fn new(family: Family, label: Label, n_syms: u8, free: Vec<u8>) -> Self {
        Self {
            family,
            label,
            n_syms,
            eqs: Vec::new(),
            free,
        }
    }

    fn eq(&mut self, lhs: &[u8], rhs: &[u8]) {
        self.eqs.push((lhs.to_vec(), rhs.to_vec()));
    }

    /// The generator's own isomorphism-class key: the sorted, oriented
    /// equation list, minimised over every permutation of the `free`
    /// symbols (the other symbols are pinned by the construction).
    pub fn canon(&self) -> Vec<u8> {
        let mut best: Option<Vec<u8>> = None;
        let mut images = self.free.clone();
        permutations(&mut images, 0, &mut |images| {
            let mut map: Vec<u8> = (0..self.n_syms).collect();
            for (&from, &to) in self.free.iter().zip(images.iter()) {
                map[from as usize] = to;
            }
            let enc = encode(self.n_syms, &self.eqs, &map);
            if best.as_ref().is_none_or(|b| enc < *b) {
                best = Some(enc);
            }
        });
        best.unwrap_or_default()
    }

    /// `true` when no side of any equation is the lone word `A0`: the
    /// null-semigroup refutation applies.
    pub fn null_witness(&self) -> bool {
        self.eqs.iter().all(|(l, r)| l != &[A0] && r != &[A0])
    }

    /// Checks the cyclic nilpotent witness: symbol `s` is interpreted as
    /// `a^exp[s]` in `{a, …, a^(order-1), 0}` (the zero symbol as 0), and
    /// `A0 ↦ a^(order-1)` must stay non-zero while every equation holds.
    pub fn witness_holds(&self, exp: &[u32], order: u32) -> bool {
        let eval = |w: &[u8]| -> u32 {
            let mut sum = 0u32;
            for &s in w {
                if s == ZERO {
                    return order;
                }
                sum += exp[s as usize];
            }
            sum.min(order)
        };
        exp[A0 as usize] == order - 1 && self.eqs.iter().all(|(l, r)| eval(l) == eval(r))
    }

    /// Renders the instance fields of a request object (`alphabet`, `a0`,
    /// `zero`, `eqs`) under a disguise: fresh symbol names and a rotated
    /// equation order. Symbol order is kept: `A0` first, zero last.
    pub fn render(&self, rng: &mut Rng) -> String {
        let mut names: Vec<String> = Vec::with_capacity(self.n_syms as usize);
        while names.len() < self.n_syms as usize {
            let name = format!("s{:x}", rng.next_u64() & 0xF_FFFF);
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let mut order: Vec<u8> = vec![A0];
        order.extend(2..self.n_syms);
        order.push(ZERO);
        let alphabet: Vec<String> = order
            .iter()
            .map(|&s| format!("\"{}\"", names[s as usize]))
            .collect();
        let word = |w: &[u8]| {
            w.iter()
                .map(|&s| names[s as usize].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut eqs: Vec<String> = self
            .eqs
            .iter()
            .map(|(l, r)| format!("\"{} = {}\"", word(l), word(r)))
            .collect();
        if !eqs.is_empty() {
            let rot = rng.below(eqs.len());
            eqs.rotate_left(rot);
        }
        format!(
            "\"alphabet\":[{}],\"a0\":\"{}\",\"zero\":\"{}\",\"eqs\":[{}]",
            alphabet.join(","),
            names[A0 as usize],
            names[ZERO as usize],
            eqs.join(",")
        )
    }
}

fn encode(n_syms: u8, eqs: &[(Vec<u8>, Vec<u8>)], map: &[u8]) -> Vec<u8> {
    let mut parts: Vec<Vec<u8>> = eqs
        .iter()
        .map(|(l, r)| {
            let l: Vec<u8> = l.iter().map(|&s| map[s as usize]).collect();
            let r: Vec<u8> = r.iter().map(|&s| map[s as usize]).collect();
            let (a, b) = if l <= r { (l, r) } else { (r, l) };
            let mut out = a;
            out.push(0xFF);
            out.extend(b);
            out.push(0xFE);
            out
        })
        .collect();
    parts.sort();
    parts.dedup();
    let mut out = vec![n_syms];
    for p in parts {
        out.extend(p);
    }
    out
}

fn permutations(v: &mut Vec<u8>, k: usize, f: &mut impl FnMut(&[u8])) {
    if k >= v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permutations(v, k + 1, f);
        v.swap(k, i);
    }
}

/// Marks `[i j] = 0` on ordered pairs of `syms`, each with probability
/// `num/den`.
fn zero_marks(inst: &mut Inst, rng: &mut Rng, syms: &[u8], num: u64, den: u64) {
    for &i in syms {
        for &j in syms {
            if rng.chance(num, den) {
                inst.eq(&[i, j], &[ZERO]);
            }
        }
    }
}

/// Junk over the symbols `bs`: each ordered pair gets nothing (1/2),
/// `[i j] = 0` (1/4) or `[i j] = [k]` (1/4).
fn junk_marks(inst: &mut Inst, rng: &mut Rng, bs: &[u8]) {
    for &i in bs {
        for &j in bs {
            match rng.below(4) {
                2 => inst.eq(&[i, j], &[ZERO]),
                3 => {
                    let k = bs[rng.below(bs.len())];
                    inst.eq(&[i, j], &[k]);
                }
                _ => {}
            }
        }
    }
}

/// `A0 = X1 = … = Xk = 0` (symbols `2..k+2`), derivable in `k+1` steps.
fn relabel_core(k: u8) -> Inst {
    let mut inst = Inst::new(Family::Relabel, Label::Implied, k + 2, Vec::new());
    inst.eq(&[A0], &[2]);
    for i in 2..k + 1 {
        inst.eq(&[i], &[i + 1]);
    }
    inst.eq(&[k + 1], &[ZERO]);
    inst
}

/// `X·Y1 = A0, X·Yi+1 = Yi, X·Yk = 0` (`X` = 2, `Yi` = `2+i`), derivable
/// in `2k` steps.
fn product_core(family: Family, k: u8) -> Inst {
    let mut inst = Inst::new(family, Label::Implied, k + 3, Vec::new());
    let x = 2;
    inst.eq(&[x, 3], &[A0]);
    for i in 1..k {
        inst.eq(&[x, 3 + i], &[2 + i]);
    }
    inst.eq(&[x, 2 + k], &[ZERO]);
    inst
}

/// One fresh instance of `family` (not a `DupBase`).
pub fn cold_instance(family: Family, rng: &mut Rng) -> Inst {
    match family {
        Family::Relabel => {
            let k = 2 + rng.below(3) as u8;
            let mut inst = relabel_core(k);
            let xs: Vec<u8> = (2..k + 2).collect();
            zero_marks(&mut inst, rng, &xs, 1, 4);
            inst
        }
        Family::Product => {
            let k = 2 + rng.below(3) as u8;
            let mut inst = product_core(Family::Product, k);
            let ys: Vec<u8> = (3..k + 3).collect();
            zero_marks(&mut inst, rng, &ys, 1, 5);
            for &y in &ys {
                if rng.chance(1, 5) {
                    inst.eq(&[y, 2], &[ZERO]);
                }
            }
            inst
        }
        Family::Alias => {
            let bs = [2, 3, 4];
            let mut inst = Inst::new(Family::Alias, Label::Implied, 5, bs.to_vec());
            inst.eq(&[A0], &[ZERO]);
            junk_marks(&mut inst, rng, &bs);
            inst
        }
        Family::Probe => {
            let bs = [2, 3, 4];
            let mut inst = Inst::new(Family::Probe, Label::Refuted, 5, bs.to_vec());
            match rng.below(3) {
                0 => inst.eq(&[A0, A0], &[2]),
                1 => inst.eq(&[A0, 2], &[3]),
                _ => inst.eq(&[2, A0], &[3, 3]),
            }
            junk_marks(&mut inst, rng, &bs);
            assert!(inst.null_witness(), "null-semigroup witness");
            inst
        }
        Family::Nil => nil_instance(rng),
        Family::DupBase(b) => dup_base(b),
    }
}

/// A refuted instance with a lone-`A0` side, witnessed by a cyclic
/// nilpotent semigroup. Core symbols are `2..`, followed by three junk
/// symbols interpreted as `a^(order-1)` so that any product touching them
/// is 0.
fn nil_instance(rng: &mut Rng) -> Inst {
    // (core equations over A0 = 0 and core symbols 2.., core symbol
    // exponents, semigroup order)
    type Core = (
        &'static [(&'static [u8], &'static [u8])],
        &'static [u32],
        u32,
    );
    const CORES: [Core; 4] = [
        (&[(&[2, 2], &[A0])], &[1], 3),
        (&[(&[2, 3], &[A0])], &[1, 1], 3),
        (&[(&[2, 3], &[A0]), (&[3, 2], &[A0])], &[1, 1], 3),
        (&[(&[2, 2, 2], &[A0])], &[1], 4),
    ];
    let (eqs, core_exp, order) = CORES[rng.below(CORES.len())];
    let n_core = core_exp.len() as u8;
    let junk = [2 + n_core, 3 + n_core, 4 + n_core];
    let n_syms = 5 + n_core;
    let mut free: Vec<u8> = junk.to_vec();
    if n_core == 2 && eqs.len() == 2 {
        free.extend([2, 3]); // the symmetric core: its two symbols swap
    }
    let mut inst = Inst::new(Family::Nil, Label::Refuted, n_syms, free);
    for (l, r) in eqs {
        inst.eq(l, r);
    }
    let core: Vec<u8> = (2..2 + n_core).collect();
    for &j in &junk {
        for &s in core.iter().chain(junk.iter()) {
            if rng.chance(1, 4) {
                inst.eq(&[j, s], &[ZERO]);
            }
        }
        for &s in &core {
            if rng.chance(1, 4) {
                inst.eq(&[s, j], &[ZERO]);
            }
        }
    }
    let mut exp = vec![order - 1, 0];
    exp.extend_from_slice(core_exp);
    exp.extend([order - 1; 3]);
    assert!(inst.witness_holds(&exp, order), "nilpotent witness");
    inst
}

/// The four `duplicate_heavy_corpus` bases: `product_chain(6)`,
/// `product_chain(5)`, the zero-only instance over `{A0, A1, 0}`, and the
/// running example `A1·A1 = A0, A1·A1 = 0`.
pub fn dup_base(b: u8) -> Inst {
    match b {
        0 => product_core(Family::DupBase(0), 6),
        1 => product_core(Family::DupBase(1), 5),
        2 => Inst::new(Family::DupBase(2), Label::Refuted, 3, Vec::new()),
        _ => {
            let mut inst = Inst::new(Family::DupBase(3), Label::Implied, 3, Vec::new());
            inst.eq(&[2, 2], &[A0]);
            inst.eq(&[2, 2], &[ZERO]);
            inst
        }
    }
}

/// The cold mix, one cycle of 20 slots: 5 relabel, 4 product, 3 alias,
/// 5 probe, 3 nil — fast-path eligible (alias, probe) 8/20, portfolio
/// 12/20.
const MIX: [(Family, usize); 5] = [
    (Family::Relabel, 5),
    (Family::Product, 4),
    (Family::Alias, 3),
    (Family::Probe, 5),
    (Family::Nil, 3),
];

/// Draws cold instances in the fixed [`MIX`] proportions, rejecting any
/// whose class (by [`Inst::canon`]) was already drawn, so every question
/// is new to the server. When a family runs out of fresh classes after
/// many tries the repeat is kept, flagged, and counted in
/// [`ColdSource::repeats`].
#[derive(Debug)]
pub struct ColdSource {
    cycle: Vec<Family>,
    pos: usize,
    seen: HashSet<Vec<u8>>,
    /// Drawn instances whose class had been drawn before.
    pub repeats: u64,
}

impl ColdSource {
    pub fn new() -> Self {
        let mut cycle = Vec::new();
        for (f, n) in MIX {
            cycle.extend(std::iter::repeat_n(f, n));
        }
        Self {
            pos: cycle.len(),
            cycle,
            seen: HashSet::new(),
            repeats: 0,
        }
    }

    /// The next instance and whether its class is new.
    pub fn next(&mut self, rng: &mut Rng) -> (Inst, bool) {
        if self.pos == self.cycle.len() {
            rng.shuffle(&mut self.cycle);
            self.pos = 0;
        }
        let family = self.cycle[self.pos];
        self.pos += 1;
        for _ in 0..64 {
            let inst = cold_instance(family, rng);
            if self.seen.insert(inst.canon()) {
                return (inst, true);
            }
        }
        self.repeats += 1;
        (cold_instance(family, rng), false)
    }
}

/// Renders a TD with renamed variables: `rows` are antecedent rows of
/// per-column variable ids, `concl` the conclusion row.
fn td_text(name: &str, rows: &[Vec<u32>], concl: &[u32], tag: u64) -> String {
    let var = |col: usize, v: u32| format!("{}{v}t{tag:x}", (b'a' + col as u8) as char);
    let row = |r: &[u32]| {
        let cells: Vec<String> = r.iter().enumerate().map(|(c, &v)| var(c, v)).collect();
        format!("({})", cells.join(", "))
    };
    let ants: Vec<String> = rows.iter().map(|r| row(r)).collect();
    format!("td {name}: {} -> {}\\n", ants.join(" "), row(concl))
}

/// The session schema line (JSON-escaped newline).
pub const SESSION_SCHEMA: &str = "schema R(A, B)\\n";

/// `pt: (a, b) (a2, b) (a2, b2) -> (a, b2)` under `name`, variables
/// renamed by `tag` (every clone is isomorphic).
pub fn pt_text(name: &str, tag: u64) -> String {
    td_text(name, &[vec![0, 0], vec![1, 0], vec![1, 1]], &[0, 1], tag)
}

/// The zig-zag goal of length `k`: rows `(i, i)`, `(i+1, i)` for `i < k`
/// and `(k, k)`. Guarded (`refuted`, `(k+1)^2 + 1` rows) it adds a
/// disconnected row `(g, h)` and concludes `(g, b0)`; unguarded
/// (`implied`) it concludes `(a0, bk)`.
pub fn chain_goal_text(name: &str, k: u32, guarded: bool, tag: u64) -> String {
    let mut rows = Vec::new();
    for i in 0..k {
        rows.push(vec![i, i]);
        rows.push(vec![i + 1, i]);
    }
    rows.push(vec![k, k]);
    let concl = if guarded {
        rows.push(vec![1000, 1000]);
        vec![1000, 0]
    } else {
        vec![0, k]
    };
    td_text(name, &rows, &concl, tag)
}

/// Closed-form countermodel size of the guarded zig-zag goal under `pt`.
pub fn chain_goal_rows(k: u32) -> usize {
    ((k + 1) * (k + 1) + 1) as usize
}

/// The join family over `n` columns as a dependency file, in a shuffled
/// order, with the expected redundancy word per TD in file order.
pub fn join_family_text(n: u32, rng: &mut Rng) -> (String, Vec<&'static str>) {
    let tag = rng.next_u64() & 0xFFFF;
    let cols: Vec<String> = (0..n).map(|c| format!("C{c}")).collect();
    let mut order: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut text = format!("schema R({})\\n", cols.join(", "));
    let mut words = Vec::new();
    for &c in &order {
        // Variable ids: 0 for the first row, 1 for the second, per column.
        let r1: Vec<u32> = vec![0; n as usize];
        let r2: Vec<u32> = (0..n).map(|i| u32::from(i != c)).collect();
        let concl: Vec<u32> = (0..n).map(|i| u32::from(i > c)).collect();
        text.push_str(&td_text(&format!("join-{c}"), &[r1, r2], &concl, tag));
        words.push(if c == 0 || c == n - 1 {
            "redundant"
        } else {
            "essential"
        });
    }
    (text, words)
}
