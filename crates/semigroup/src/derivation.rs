//! Replacement derivations and their search.
//!
//! The proof of part (A) rests on: "there is a sequence of m+1 ≥ 1 strings
//! u₀, u₁, …, u_m, where u₀ is A₀, u_m is 0, and for i = 0, …, m−1, u_{i+1}
//! results from u_i by replacement of a single occurrence of some xᵢ by yᵢ
//! or vice versa." A [`Derivation`] is exactly such a sequence, stored as
//! replayable steps; [`search_derivation`] finds one by breadth-first search
//! over the word graph (bounded by word length and state count, since the
//! problem is undecidable).
//!
//! # Visit order and spend
//!
//! The search is deterministic, and its spend is part of the engine's
//! reports, so its order is a contract:
//!
//! * words are expanded in the order they were first registered (plain
//!   BFS), starting from the start word;
//! * a word's successors are tried equation by equation in list order,
//!   each equation lhs→rhs before rhs→lhs (skipped when both sides are
//!   equal), and each direction at its occurrences left to right;
//! * a successor longer than `max_word_len`, or already registered, costs
//!   nothing; every newly registered word, the start word included, costs
//!   one [`Ticker`] unit, and the search stops at the first refused unit
//!   or as soon as the target is registered;
//! * the cancellation token is observed at every registration and once
//!   per dequeued word.
//!
//! So [`TrackedSearch::states`] is the number of distinct words
//! registered, the same on every run of the same question, and a found
//! derivation is the first shortest one in this order.
//!
//! `max_states` also bounds memory. Each registered word is stored once,
//! as one integer key: symbol `i` in bits `i·b .. (i+1)·b` as its index
//! plus one, where `b = ⌈log₂(|alphabet| + 1)⌉`, so the first zero field
//! ends the word. The key is a `u64` (8 bytes) when `b · max(max_word_len,
//! |start|)` is at most 64 bits, a `u128` (16 bytes) when at most 128, and
//! otherwise a vector of 64-bit limbs (24 bytes plus 8 per limb). Besides
//! its key a word costs a 4-byte parent id and 2–4 slots of a 4-byte hash
//! index: 20–28 bytes per state with `u64` keys, 28–36 with `u128` keys,
//! before vector growth slack. The step that reached a word is not
//! stored: a found derivation's steps are recovered along its parent
//! chain, each as the first candidate in the order above that rewrites
//! the parent into the child, which is the candidate that registered it.
//!
//! Successors cost no copying. For each dequeued word the search builds
//! one position bitmask per symbol it contains; a side's occurrences are
//! the AND of its symbols' masks, each shifted by its offset in the side,
//! and walking the set bits upward visits them left to right. A
//! successor's key is spliced from its parent's with shifts and masks,
//! and its hash is one multiply of the key.

use td_core::budget::{Cancellation, Ticker};

use crate::error::{Result, SgError};
use crate::presentation::Presentation;
use crate::symbol::Sym;
use crate::word::Word;

/// One replacement step: at `pos`, replace an occurrence of one side of
/// equation `eq_index` by the other side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivStep {
    /// Index into the presentation's equation list.
    pub eq_index: usize,
    /// Position of the replaced occurrence.
    pub pos: usize,
    /// `true`: replace `lhs` by `rhs`; `false`: replace `rhs` by `lhs`.
    pub forward: bool,
}

/// A replayable derivation `start ⇒ … ⇒ end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The initial word `u₀`.
    pub start: Word,
    /// The replacement steps.
    pub steps: Vec<DerivStep>,
}

impl Derivation {
    /// The trivial derivation (zero steps).
    pub fn trivial(start: Word) -> Self {
        Self {
            start,
            steps: Vec::new(),
        }
    }

    /// Number of steps (`m`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the derivation has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replays the derivation against `p`, returning the full word sequence
    /// `u₀, …, u_m`. Fails if any step does not apply.
    pub fn replay(&self, p: &Presentation) -> Result<Vec<Word>> {
        let mut words = Vec::with_capacity(self.steps.len() + 1);
        words.push(self.start.clone());
        for (i, step) in self.steps.iter().enumerate() {
            let eq = p.equations().get(step.eq_index).ok_or_else(|| {
                SgError::DerivationReplay(format!(
                    "step {i}: equation index {} out of range",
                    step.eq_index
                ))
            })?;
            let (from, to) = if step.forward {
                (&eq.lhs, &eq.rhs)
            } else {
                (&eq.rhs, &eq.lhs)
            };
            let cur = words.last().expect("nonempty");
            if !cur.occurs_at(from, step.pos) {
                return Err(SgError::DerivationReplay(format!(
                    "step {i}: `{from}` does not occur at position {} of `{cur}`",
                    step.pos
                )));
            }
            words.push(cur.replace_range(step.pos, from.len(), to)?);
        }
        Ok(words)
    }

    /// The final word `u_m`.
    ///
    /// # Errors
    ///
    /// Fails when replaying the derivation fails (an out-of-range rule
    /// index, a rule that does not match at its claimed position, …).
    pub fn end(&self, p: &Presentation) -> Result<Word> {
        Ok(self
            .replay(p)?
            .pop()
            .expect("replay returns at least start"))
    }

    /// Checks that the derivation goes from `start` to `target` under `p`.
    ///
    /// # Errors
    ///
    /// Fails with [`SgError::DerivationReplay`] when the derivation does
    /// not start at `start`, does not replay cleanly under `p`, or ends
    /// somewhere other than `target`.
    pub fn verify(&self, p: &Presentation, start: &Word, target: &Word) -> Result<()> {
        if &self.start != start {
            return Err(SgError::DerivationReplay(format!(
                "derivation starts at `{}`, expected `{start}`",
                self.start
            )));
        }
        let end = self.end(p)?;
        if &end != target {
            return Err(SgError::DerivationReplay(format!(
                "derivation ends at `{end}`, expected `{target}`"
            )));
        }
        Ok(())
    }
}

/// Bounds for the breadth-first derivation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Discard words longer than this (expansions can grow words without
    /// bound; some derivations genuinely need longer intermediate words, so
    /// exhausting this bound does **not** refute derivability).
    pub max_word_len: usize,
    /// Maximum number of distinct words to visit. A search visits at most
    /// 2²⁴ − 1 words.
    pub max_states: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            max_word_len: 12,
            max_states: 200_000,
        }
    }
}

/// Outcome of [`search_derivation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// A derivation was found (shortest in number of steps).
    Found(Derivation),
    /// The reachable set within `max_word_len` was exhausted: `target` is
    /// unreachable *using intermediate words within the length bound*.
    ExhaustedWithinBound {
        /// Number of distinct words visited.
        states: usize,
    },
    /// `max_states` was hit first; nothing can be concluded.
    BudgetExhausted {
        /// Number of distinct words visited.
        states: usize,
    },
}

impl SearchResult {
    /// The derivation, if found.
    pub fn derivation(&self) -> Option<&Derivation> {
        match self {
            SearchResult::Found(d) => Some(d),
            _ => None,
        }
    }
}

/// Breadth-first search for a derivation `start ⇒* target` under the
/// equations of `p` (used in both directions). Deterministic: equations are
/// tried in order, positions left to right.
pub fn search_derivation(
    p: &Presentation,
    start: &Word,
    target: &Word,
    budget: &SearchBudget,
) -> SearchResult {
    let never = Cancellation::new();
    search_derivation_tracked(p, start, target, budget, &never).result
}

/// A search outcome together with exact spend accounting, for the racing
/// pipeline's deterministic budget reports ([`search_derivation_tracked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackedSearch {
    /// The classical three-valued result.
    pub result: SearchResult,
    /// Distinct words visited — exact even for [`SearchResult::Found`],
    /// which does not carry a count of its own.
    pub states: usize,
    /// `true` when the run stopped because the cancellation token was
    /// observed at a poll point (per dequeued word and per registered
    /// state, via the shared [`td_core::budget::Ticker`]) — as opposed to
    /// finding the target or exhausting its own budget. A cancelled run's
    /// `states` is a lower bound of what the same search would visit
    /// uncancelled.
    pub cancelled: bool,
}

/// [`search_derivation`] with a cooperative [`Cancellation`] token and
/// exact spend accounting, for racing against the finite-model search:
/// the token is polled once per dequeued word and per registered state,
/// and the returned [`TrackedSearch`] carries the states visited (even on
/// success) and whether the run was cut short by the cancellation flag
/// rather than by its own budget. A cancelled run reports
/// [`SearchResult::BudgetExhausted`] with the states visited so far.
///
/// The search follows the visit-order contract in the module docs. Each
/// registered word is one packed integer key: the narrowest of `u64`,
/// `u128` and an unbounded limb vector that holds the longest word the
/// search can register.
pub fn search_derivation_tracked(
    p: &Presentation,
    start: &Word,
    target: &Word,
    budget: &SearchBudget,
    cancel: &Cancellation,
) -> TrackedSearch {
    if start == target {
        return TrackedSearch {
            result: SearchResult::Found(Derivation::trivial(start.clone())),
            states: 1,
            cancelled: false,
        };
    }
    // Codes run from 1 to the largest symbol index + 1 (0 ends a word);
    // the presentation's symbols are within its alphabet, and the end
    // words are counted in case they are not.
    let codes = start
        .syms()
        .iter()
        .chain(target.syms())
        .map(|s| s.index() + 1)
        .fold(p.alphabet().len(), usize::max);
    let bits = usize::BITS - codes.leading_zeros();
    // The start word and successors of at most `max_word_len` symbols
    // are all a search registers.
    let width = start.len().max(budget.max_word_len);
    let width_bits = width.saturating_mul(bits as usize);
    if width_bits <= 64 {
        packed_search::<u64>(p, start, target, budget, cancel, codes, bits)
    } else if width_bits <= 128 {
        packed_search::<u128>(p, start, target, budget, cancel, codes, bits)
    } else {
        packed_search::<Wide>(p, start, target, budget, cancel, codes, bits)
    }
}

/// The search body, over keys of type `K` holding symbols of `bits` bits
/// with codes `1..=codes`. The caller picks a `K` that holds every word
/// the search can register.
fn packed_search<K: Packed>(
    p: &Presentation,
    start: &Word,
    target: &Word,
    budget: &SearchBudget,
    cancel: &Cancellation,
    codes: usize,
    bits: u32,
) -> TrackedSearch {
    // One ticker unit per *registered* word (the start word included), so
    // `spent` is exactly the distinct-state count the reports need; mask 0
    // additionally observes the cancellation token at every registration.
    let limit = budget.max_states.min(MAX_WORDS);
    let mut ticker = Ticker::new(cancel, limit as u64, 0);
    let rules = rules::<K>(p, bits);
    let mut words = WordSet::new(pack::<K>(start.syms(), bits));
    // A target too long for `K` is longer than every registered word.
    let target = (target.len() as u64 * u64::from(bits) <= u64::from(K::BITS))
        .then(|| pack::<K>(target.syms(), bits));
    let mut found = None;
    // The dequeued word, and for each code the set of positions
    // where the dequeued word has it (empty for codes it lacks).
    let mut word: Vec<Sym> = Vec::new();
    let mut positions = vec![K::zero(); codes + 1];

    if ticker.tick() {
        // Words are dequeued in registration order, so the queue is a
        // cursor over word ids.
        let mut head = 0;
        'bfs: while head < words.len() {
            if !ticker.poll() {
                break 'bfs;
            }
            let key = words.keys[head].clone();
            let parent = head;
            head += 1;
            unpack(&key, bits, &mut word);
            for (i, s) in word.iter().enumerate() {
                let c = s.index() + 1;
                positions[c] = positions[c].clone().or(&K::small(1).shl(i as u32));
            }
            for rule in &rules {
                // Every replacement of `from` by `to` has the same length,
                // so one check covers all positions.
                if rule.from_len > word.len()
                    || word.len() - rule.from_len + rule.to_len > budget.max_word_len
                {
                    continue;
                }
                // `from` occurs at `pos` iff its `j`-th symbol is at
                // `pos + j` for every `j`.
                let mut occurrences = positions[rule.from.field(0, bits)].clone();
                for j in 1..rule.from_len as u32 {
                    let c = rule.from.field(j * bits, bits);
                    occurrences = occurrences.and(&positions[c].clone().shr(j));
                }
                // Ascending positions: left to right, as the contract says.
                while !occurrences.is_zero() {
                    let at = occurrences.trailing_zeros() * bits;
                    occurrences.clear_lowest();
                    let next = key
                        .clone()
                        .low(at)
                        .or(&rule.to.clone().shl(at))
                        .or(&key.clone().shr(at + rule.from_bits).shl(at + rule.to_bits));
                    let Err(vacancy) = words.find(&next) else {
                        continue;
                    };
                    if !ticker.tick() {
                        break 'bfs;
                    }
                    let is_target = target.as_ref() == Some(&next);
                    let id = words.insert(vacancy, next, parent);
                    if is_target {
                        found = Some(id);
                        break 'bfs;
                    }
                }
            }
            for s in &word {
                positions[s.index() + 1] = K::zero();
            }
        }
    }
    let visited = ticker.spent() as usize;

    let Some(mut id) = found else {
        let result = if ticker.stopped() {
            SearchResult::BudgetExhausted { states: visited }
        } else {
            SearchResult::ExhaustedWithinBound { states: visited }
        };
        return TrackedSearch {
            result,
            states: visited,
            cancelled: ticker.cancelled(),
        };
    };

    // The word set keeps only parent ids, so walk the parent chain back
    // from the target and recover each hop's step from its two words.
    let mut steps = Vec::new();
    let (mut child, mut parent) = (Vec::new(), Vec::new());
    unpack(&words.keys[id], bits, &mut child);
    // td-lint: allow(budget-poll) parent-chain walk over the BFS tree already built above:
    // each hop moves to a strictly earlier-registered word, so it is bounded by `visited`
    // (which the ticker already charged during the search).
    while id != 0 {
        id = words.parents[id] as usize;
        unpack(&words.keys[id], bits, &mut parent);
        steps.push(
            registering_step(p, &parent, &child)
                .expect("a registered word is a one-step rewrite of its parent"),
        );
        std::mem::swap(&mut parent, &mut child);
    }
    steps.reverse();
    TrackedSearch {
        result: SearchResult::Found(Derivation {
            start: start.clone(),
            steps,
        }),
        states: visited,
        cancelled: false,
    }
}

/// The step by which the search registered `child` while expanding
/// `parent`: the first (equation, direction, position) in the visit
/// order that rewrites `parent` into `child`. An earlier candidate
/// yielding `child` would have registered it first, so this is exactly
/// the candidate that did. `None` when no single step rewrites `parent`
/// into `child`.
fn registering_step(p: &Presentation, parent: &[Sym], child: &[Sym]) -> Option<DerivStep> {
    // td-lint: allow(budget-poll) one bounded sweep of the equations over two words of at
    // most `max_word_len` symbols, once per hop of a found derivation.
    for (eq_index, eq) in p.equations().iter().enumerate() {
        for (from, to, forward) in [
            (eq.lhs.syms(), eq.rhs.syms(), true),
            (eq.rhs.syms(), eq.lhs.syms(), false),
        ] {
            if from.len() > parent.len() || parent.len() - from.len() + to.len() != child.len() {
                continue;
            }
            // A rewrite at `pos` keeps the symbols around the occurrence.
            let rewrites_at = |pos: usize| {
                parent[pos..pos + from.len()] == *from
                    && child[pos..pos + to.len()] == *to
                    && parent[..pos] == child[..pos]
                    && parent[pos + from.len()..] == child[pos + to.len()..]
            };
            if let Some(pos) = (0..=parent.len() - from.len()).find(|&pos| rewrites_at(pos)) {
                return Some(DerivStep {
                    eq_index,
                    pos,
                    forward,
                });
            }
        }
    }
    None
}

/// One direction of one equation, as the search applies it: replace an
/// occurrence of `from` by `to`.
struct Rule<K> {
    /// The replaced side, packed.
    from: K,
    /// Length of the replaced side.
    from_len: usize,
    /// The replacing side, packed.
    to: K,
    /// Length of the replacing side.
    to_len: usize,
    /// Bits of the replaced and the replacing side.
    from_bits: u32,
    to_bits: u32,
}

/// The rules in visit order: equation by equation, lhs→rhs before
/// rhs→lhs, no rule for an equation whose sides are equal.
fn rules<K: Packed>(p: &Presentation, bits: u32) -> Vec<Rule<K>> {
    let rule = |from: &Word, to: &Word| Rule {
        from: pack(from.syms(), bits),
        from_len: from.len(),
        to: pack(to.syms(), bits),
        to_len: to.len(),
        from_bits: from.len() as u32 * bits,
        to_bits: to.len() as u32 * bits,
    };
    let mut rules = Vec::with_capacity(2 * p.equations().len());
    for eq in p.equations().iter().filter(|eq| eq.lhs != eq.rhs) {
        rules.push(rule(&eq.lhs, &eq.rhs));
        rules.push(rule(&eq.rhs, &eq.lhs));
    }
    rules
}

/// `w` packed into a key: symbol `i` in bits `i·bits..(i+1)·bits`, as its
/// index + 1, so the first all-zero field ends the word.
fn pack<K: Packed>(w: &[Sym], bits: u32) -> K {
    w.iter().rev().fold(K::zero(), |k, s| {
        k.shl(bits).or(&K::small(s.index() as u64 + 1))
    })
}

/// The symbols of the word packed in `key`, into `out`.
fn unpack<K: Packed>(key: &K, bits: u32, out: &mut Vec<Sym>) {
    out.clear();
    // td-lint: allow(budget-poll) one pass over the symbols of a registered word, which
    // the ticker charged; it is at most as long as the start word or `max_word_len`.
    loop {
        let code = key.field(out.len() as u32 * bits, bits);
        if code == 0 {
            return;
        }
        out.push(Sym::from(code - 1));
    }
}

/// A packed word, or a set of positions in one (bit `i` for position
/// `i`): an unsigned integer of [`Packed::BITS`] bits. The search only
/// forms values that fit, so no operation needs to report overflow.
trait Packed: Clone + Eq {
    /// Bits a value holds ([`u32::MAX`] for the unbounded [`Wide`]).
    const BITS: u32;
    /// The value 0.
    fn zero() -> Self;
    /// The value `v`.
    fn small(v: u64) -> Self;
    /// Bitwise or.
    fn or(self, other: &Self) -> Self;
    /// Bitwise and.
    fn and(self, other: &Self) -> Self;
    /// Shifted left by `n` bits; bits past [`Packed::BITS`] are dropped.
    fn shl(self, n: u32) -> Self;
    /// Shifted right by `n` bits.
    fn shr(self, n: u32) -> Self;
    /// The low `n` bits.
    fn low(self, n: u32) -> Self;
    /// `true` for 0.
    fn is_zero(&self) -> bool;
    /// The lowest set bit's index (the value is not 0).
    fn trailing_zeros(&self) -> u32;
    /// Clears the lowest set bit.
    fn clear_lowest(&mut self);
    /// The `bits`-bit field at bit `at` (`bits` < 32).
    fn field(&self, at: u32, bits: u32) -> usize;
    /// The [`WordSet`] hash.
    fn hash(&self) -> Hash;
}

macro_rules! packed_uint {
    ($t:ty, $mul:expr) => {
        impl Packed for $t {
            const BITS: u32 = <$t>::BITS;

            fn zero() -> Self {
                0
            }

            fn small(v: u64) -> Self {
                v.into()
            }

            fn or(self, other: &Self) -> Self {
                self | other
            }

            fn and(self, other: &Self) -> Self {
                self & other
            }

            fn shl(self, n: u32) -> Self {
                self.checked_shl(n).unwrap_or(0)
            }

            fn shr(self, n: u32) -> Self {
                self.checked_shr(n).unwrap_or(0)
            }

            fn low(self, n: u32) -> Self {
                self ^ self.shr(n).shl(n)
            }

            fn is_zero(&self) -> bool {
                *self == 0
            }

            fn trailing_zeros(&self) -> u32 {
                <$t>::trailing_zeros(*self)
            }

            fn clear_lowest(&mut self) {
                *self &= *self - 1;
            }

            fn field(&self, at: u32, bits: u32) -> usize {
                (self.shr(at) & ((1 << bits) - 1)) as usize
            }

            /// One multiply (Fibonacci hashing): the product's top 32 bits.
            fn hash(&self) -> Hash {
                (self.wrapping_mul($mul) >> (<$t>::BITS - 32)) as Hash
            }
        }
    };
}

packed_uint!(u64, 0x9e37_79b9_7f4a_7c15);
packed_uint!(u128, 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);

/// An unbounded [`Packed`] value, for words wider than 128 bits: 64-bit
/// limbs, least significant first, with no zero limb on top (so equal
/// values have equal limbs).
#[derive(Clone, PartialEq, Eq)]
struct Wide(Vec<u64>);

impl Wide {
    /// Drops the zero limbs on top.
    fn trim(&mut self) {
        // td-lint: allow(budget-poll) pops at most the value's own limbs.
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn trimmed(mut self) -> Self {
        self.trim();
        self
    }
}

impl Packed for Wide {
    const BITS: u32 = u32::MAX;

    fn zero() -> Self {
        Wide(Vec::new())
    }

    fn small(v: u64) -> Self {
        Wide(vec![v]).trimmed()
    }

    fn or(mut self, other: &Self) -> Self {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
        self
    }

    fn and(mut self, other: &Self) -> Self {
        self.0.truncate(other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
        self.trimmed()
    }

    fn shl(self, n: u32) -> Self {
        if self.is_zero() {
            return self;
        }
        let (limbs, r) = ((n / 64) as usize, n % 64);
        let mut out = vec![0; limbs];
        let mut carry = 0;
        for x in self.0 {
            out.push(x << r | carry);
            carry = if r == 0 { 0 } else { x >> (64 - r) };
        }
        out.push(carry);
        Wide(out).trimmed()
    }

    fn shr(self, n: u32) -> Self {
        let (limbs, r) = ((n / 64) as usize, n % 64);
        let high = self.0.get(limbs..).unwrap_or_default();
        let out = (0..high.len())
            .map(|i| {
                let above = high.get(i + 1).copied().unwrap_or(0);
                high[i] >> r | if r == 0 { 0 } else { above << (64 - r) }
            })
            .collect();
        Wide(out).trimmed()
    }

    fn low(mut self, n: u32) -> Self {
        let (limbs, r) = ((n / 64) as usize, n % 64);
        if limbs < self.0.len() {
            self.0.truncate(limbs + 1);
            self.0[limbs] &= (1 << r) - 1;
        }
        self.trimmed()
    }

    fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    fn trailing_zeros(&self) -> u32 {
        let limb = self.0.iter().position(|&x| x != 0).unwrap_or(0);
        limb as u32 * 64 + self.0.get(limb).map_or(0, |x| x.trailing_zeros())
    }

    fn clear_lowest(&mut self) {
        if let Some(x) = self.0.iter_mut().find(|x| **x != 0) {
            *x &= *x - 1;
        }
        self.trim();
    }

    fn field(&self, at: u32, bits: u32) -> usize {
        let (limb, r) = ((at / 64) as usize, at % 64);
        let get = |i: usize| self.0.get(i).copied().unwrap_or(0);
        let v = get(limb) >> r | if r == 0 { 0 } else { get(limb + 1) << (64 - r) };
        (v & ((1 << bits) - 1)) as usize
    }

    /// The Fx multiply-rotate scheme over the limbs.
    fn hash(&self) -> Hash {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let h = self
            .0
            .iter()
            .fold(0u64, |h, &x| (h.rotate_left(5) ^ x).wrapping_mul(K));
        (h >> 32) as Hash
    }
}

/// The most words one search can register: an index slot holds a 24-bit
/// id, and the all-ones id marks an empty slot. A larger `max_states` is
/// clamped to this (the engine's default of 200,000 is far below it).
const MAX_WORDS: usize = (1 << 24) - 1;

/// A [`WordSet`] word's parent id.
type Parent = u32;
/// A key's [`Packed::hash`].
type Hash = u32;
/// A [`WordSet`] index slot: a word id under an 8-bit tag.
type Slot = u32;

// The memory bound in the module docs counts 4 bytes for each per-word
// record besides the key; these keep it from growing back unnoticed.
const _: () = assert!(size_of::<Parent>() == 4);
const _: () = assert!(size_of::<Slot>() == 4);

/// A used [`Slot`] holds its word's id in the low `ID_BITS` bits and its
/// tag, the low 8 bits of the word's [`Hash`], in the top 8.
const ID_BITS: u32 = 24;
const ID_MASK: Slot = (1 << ID_BITS) - 1;

/// An empty [`WordSet`] index slot (its id bits are all ones, which no
/// registered word has).
const EMPTY: Slot = Slot::MAX;

/// Index slots a search starts with: small, because the typical search
/// registers a few hundred words and must stay cheap to set up.
const INITIAL_SLOTS: usize = 16;

/// The search's visited set: every registered word's key, in
/// registration order.
///
/// `keys[id]` is word `id` packed ([`pack`]; the start word is id 0), and
/// `parents[id]` the id it was reached from (the start word is its own
/// parent); the step taken is not stored but recovered from the two words
/// ([`registering_step`]). `slots` is an open-addressing index under
/// linear probing: each used slot packs an id with the low 8 bits of its
/// key's hash (the tag), so a probe rarely compares a key that does not
/// match, and a rehash re-slots by rehashing the keys. The index doubles
/// whenever it would pass half full, so a probe always ends at an empty
/// slot within a few steps.
struct WordSet<K> {
    keys: Vec<K>,
    parents: Vec<Parent>,
    slots: Vec<Slot>,
}

/// Where [`WordSet::find`] stopped for an unregistered key: the empty
/// slot it belongs in, and its hash.
struct Vacancy {
    slot: usize,
    hash: Hash,
}

impl<K: Packed> WordSet<K> {
    /// A set holding just `start`, as id 0.
    fn new(start: K) -> Self {
        let mut set = Self {
            keys: Vec::new(),
            parents: Vec::new(),
            slots: vec![EMPTY; INITIAL_SLOTS],
        };
        let hash = start.hash();
        let vacancy = Vacancy {
            slot: home(hash, INITIAL_SLOTS),
            hash,
        };
        set.insert(vacancy, start, 0);
        set
    }

    /// Number of registered words.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// `Ok(id)` when `key` is registered, else where [`WordSet::insert`]
    /// must put it.
    fn find(&self, key: &K) -> Result<usize, Vacancy> {
        let mask = self.slots.len() - 1;
        let hash = key.hash();
        let tag = tag_bits(hash);
        let mut slot = home(hash, self.slots.len());
        // td-lint: allow(budget-poll) the index is at most half full, so every probe
        // ends at an empty slot; it charges no state of its own.
        loop {
            let used = self.slots[slot];
            if used == EMPTY {
                return Err(Vacancy { slot, hash });
            }
            let id = (used & ID_MASK) as usize;
            if used & !ID_MASK == tag && self.keys[id] == *key {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Registers `key` at the [`Vacancy`] that [`WordSet::find`] returned,
    /// reached from `parent`, and returns its id.
    fn insert(&mut self, at: Vacancy, key: K, parent: usize) -> usize {
        let id = self.len();
        self.keys.push(key);
        self.parents.push(parent as Parent);
        self.slots[at.slot] = tag_bits(at.hash) | id as Slot;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the index and re-slots every word by its key's hash.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 2 * self.slots.len()];
        for (id, key) in self.keys.iter().enumerate() {
            let hash = key.hash();
            let slot = vacant_slot(&slots, hash);
            slots[slot] = tag_bits(hash) | id as Slot;
        }
        self.slots = slots;
    }
}

/// The first empty slot from `hash`'s home on, for re-slotting a word
/// already known to be absent.
fn vacant_slot(slots: &[Slot], hash: Hash) -> usize {
    let mut slot = home(hash, slots.len());
    // td-lint: allow(budget-poll) a rehash re-slots only words the ticker already
    // charged, and the doubled index is at most a quarter full, so each probe ends.
    while slots[slot] != EMPTY {
        slot = (slot + 1) & (slots.len() - 1);
    }
    slot
}

/// The home slot of `hash` in an index of `n` slots (a power of two, at
/// most 2³²): the hash's top bits, which the multiplicative hash mixes
/// best.
fn home(hash: Hash, n: usize) -> usize {
    (u64::from(hash) >> (32 - n.trailing_zeros())) as usize
}

/// The tag of a word with hash `hash`, in place in a [`Slot`]: the hash's
/// low 8 bits, disjoint from the home bits of any index of at most 2²⁴
/// slots.
fn tag_bits(hash: Hash) -> Slot {
    hash << ID_BITS
}

/// Convenience: search for the paper's goal derivation `A₀ ⇒* 0`.
pub fn search_goal_derivation(p: &Presentation, budget: &SearchBudget) -> SearchResult {
    let goal = p.goal();
    search_derivation(p, &goal.lhs, &goal.rhs, budget)
}

/// [`search_goal_derivation`] with a cooperative cancellation token and
/// exact spend accounting (see [`search_derivation_tracked`]).
pub fn search_goal_derivation_tracked(
    p: &Presentation,
    budget: &SearchBudget,
    cancel: &Cancellation,
) -> TrackedSearch {
    let goal = p.goal();
    search_derivation_tracked(p, &goal.lhs, &goal.rhs, budget, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::{example_derivable, example_refutable};

    #[test]
    fn derivable_goal_found_and_verified() {
        let p = example_derivable();
        let result = search_goal_derivation(&p, &SearchBudget::default());
        let d = result.derivation().expect("A0 => A1 A1 => 0");
        assert_eq!(d.len(), 2);
        let goal = p.goal();
        d.verify(&p, &goal.lhs, &goal.rhs).unwrap();
        let words = d.replay(&p).unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0].render(p.alphabet()), "A0");
        assert_eq!(words[1].render(p.alphabet()), "A1 A1");
        assert_eq!(words[2].render(p.alphabet()), "0");
    }

    #[test]
    fn refutable_goal_not_reachable() {
        let p = example_refutable();
        let result = search_goal_derivation(
            &p,
            &SearchBudget {
                max_word_len: 8,
                max_states: 100_000,
            },
        );
        // Only zero equations: from the single word "A0" the only moves
        // produce words containing 0, which collapse back to 0-words; "A0"
        // alone can never reach "0".
        assert!(
            matches!(result, SearchResult::ExhaustedWithinBound { .. }),
            "{result:?}"
        );
    }

    #[test]
    fn trivial_derivation() {
        let p = example_refutable();
        let w = Word::single(p.alphabet().a0());
        let r = search_derivation(&p, &w, &w, &SearchBudget::default());
        let d = r.derivation().unwrap();
        assert!(d.is_empty());
        d.verify(&p, &w, &w).unwrap();
    }

    #[test]
    fn bfs_finds_shortest() {
        // Two routes to 0: direct (1 step) and via A1 A1 (2+ steps).
        let alphabet = crate::alphabet::Alphabet::standard(2);
        let direct = crate::equation::Equation::parse("A0 A0 = 0", &alphabet).unwrap();
        let via = crate::equation::Equation::parse("A0 A0 = A1", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![direct, via]).unwrap();
        let start = Word::parse("A0 A0", p.alphabet()).unwrap();
        let target = Word::single(p.alphabet().zero());
        let r = search_derivation(&p, &start, &target, &SearchBudget::default());
        assert_eq!(r.derivation().unwrap().len(), 1);
    }

    #[test]
    fn replay_rejects_corrupt_steps() {
        let p = example_derivable();
        let goal = p.goal();
        let mut d = search_goal_derivation(&p, &SearchBudget::default())
            .derivation()
            .unwrap()
            .clone();
        // Corrupt the position of the second step.
        d.steps[1].pos = 7;
        assert!(matches!(d.replay(&p), Err(SgError::DerivationReplay(_))));
        // Corrupt the equation index.
        let mut d2 = search_goal_derivation(&p, &SearchBudget::default())
            .derivation()
            .unwrap()
            .clone();
        d2.steps[0].eq_index = 99;
        assert!(d2.replay(&p).is_err());
        // Wrong endpoints.
        let d3 = Derivation::trivial(goal.lhs.clone());
        assert!(d3.verify(&p, &goal.lhs, &goal.rhs).is_err());
        assert!(d3.verify(&p, &goal.rhs, &goal.rhs).is_err());
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A presentation with growth: A0 = A0 A0 lets words blow up; a tiny
        // state budget must be reported as exhausted.
        let alphabet = crate::alphabet::Alphabet::standard(1);
        let grow = crate::equation::Equation::parse("A0 A0 = A0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![grow]).unwrap();
        let start = Word::single(p.alphabet().a0());
        let target = Word::single(p.alphabet().zero());
        let r = search_derivation(
            &p,
            &start,
            &target,
            &SearchBudget {
                max_word_len: 30,
                max_states: 5,
            },
        );
        assert!(matches!(r, SearchResult::BudgetExhausted { .. }), "{r:?}");
    }

    #[test]
    fn tracked_search_reports_exact_states_and_cancellation() {
        let p = example_derivable();
        let never = Cancellation::new();
        let t = search_goal_derivation_tracked(&p, &SearchBudget::default(), &never);
        assert!(matches!(t.result, SearchResult::Found(_)));
        assert!(t.states >= 3, "start, A1 A1, 0 all visited: {}", t.states);
        assert!(!t.cancelled);

        // A pre-cancelled token stops at the first poll and is reported as
        // cancelled — distinct from genuine budget exhaustion.
        let always = Cancellation::new();
        always.cancel();
        let t = search_goal_derivation_tracked(&p, &SearchBudget::default(), &always);
        assert!(matches!(t.result, SearchResult::BudgetExhausted { .. }));
        assert!(t.cancelled);
        assert_eq!(t.states, 1, "only the start word was registered");

        // Genuine exhaustion is not cancellation.
        let p = example_refutable();
        let t = search_goal_derivation_tracked(&p, &SearchBudget::default(), &never);
        assert!(matches!(
            t.result,
            SearchResult::ExhaustedWithinBound { states } if states == t.states
        ));
        assert!(!t.cancelled);
    }

    #[test]
    fn word_length_bound_respected() {
        // Derivation requires passing through length 2, but bound is 1.
        let p = example_derivable();
        let r = search_goal_derivation(
            &p,
            &SearchBudget {
                max_word_len: 1,
                max_states: 1000,
            },
        );
        assert!(matches!(r, SearchResult::ExhaustedWithinBound { .. }));
    }
}
