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
//! in a flat arena: its symbols (2 bytes each, so at most
//! `2 · max_word_len` bytes), a 4-byte end offset, a 4-byte parent id, a
//! 4-byte hash and 2–4 slots of a 4-byte hash index, so at most
//! `2 · max_word_len + 28` bytes per state before vector growth slack.
//! The step that reached a word is not stored: a found derivation's steps
//! are recovered along its parent chain, each as the first candidate in
//! the order above that rewrites the parent into the child, which is the
//! candidate that registered it. Candidates are built in one reusable
//! buffer; nothing is allocated per candidate.

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
    /// 2²⁴ − 1 words, and at most as many as fit 2³² symbols at
    /// `max_word_len` each.
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
/// The search follows the visit-order contract in the module docs. The
/// visited set is a flat word arena, so each registered word costs one
/// copy of its symbols plus fixed per-state bookkeeping.
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
    // One ticker unit per *registered* word (the start word included), so
    // `spent` is exactly the distinct-state count the reports need; mask 0
    // additionally observes the cancellation token at every registration.
    let limit = state_limit(budget, start.len());
    let mut ticker = Ticker::new(cancel, limit as u64, 0);
    let mut arena = WordArena::new(start.syms());
    let target = target.syms();
    let mut found = None;
    // The dequeued word and the candidate successor, reused across the
    // whole search: a candidate reaches the arena only when it is new.
    let mut word: Vec<Sym> = Vec::new();
    let mut next: Vec<Sym> = Vec::new();

    if ticker.tick() {
        // Words are dequeued in registration order, so the queue is a
        // cursor over arena ids.
        let mut head = 0;
        'bfs: while head < arena.len() {
            if !ticker.poll() {
                break 'bfs;
            }
            word.clear();
            word.extend_from_slice(arena.word(head));
            let parent = head;
            head += 1;
            let present = symbol_mask(&word);
            for eq in p.equations() {
                for (from, to) in [
                    (eq.lhs.syms(), eq.rhs.syms()),
                    (eq.rhs.syms(), eq.lhs.syms()),
                ] {
                    // Every replacement of `from` by `to` has the same
                    // length, so one check covers all positions.
                    if from == to
                        || symbol_mask(from) & !present != 0
                        || from.len() > word.len()
                        || word.len() - from.len() + to.len() > budget.max_word_len
                    {
                        continue;
                    }
                    for pos in 0..=word.len() - from.len() {
                        if word[pos..pos + from.len()] != *from {
                            continue;
                        }
                        next.clear();
                        next.extend_from_slice(&word[..pos]);
                        next.extend_from_slice(to);
                        next.extend_from_slice(&word[pos + from.len()..]);
                        let Err(vacancy) = arena.find(&next) else {
                            continue;
                        };
                        if !ticker.tick() {
                            break 'bfs;
                        }
                        let id = arena.insert(vacancy, &next, parent);
                        if next == target {
                            found = Some(id);
                            break 'bfs;
                        }
                    }
                }
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

    // The arena keeps only parent ids, so walk the parent chain back from
    // the target and recover each hop's step from its two words.
    let mut steps = Vec::new();
    // td-lint: allow(budget-poll) parent-chain walk over the BFS tree already built above:
    // each hop moves to a strictly earlier-registered word, so it is bounded by `visited`
    // (which the ticker already charged during the search).
    while id != 0 {
        let parent = arena.parents[id] as usize;
        steps.push(
            registering_step(p, arena.word(parent), arena.word(id))
                .expect("a registered word is a one-step rewrite of its parent"),
        );
        id = parent;
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

/// A 64-bit summary of the symbols in `w` (bit `sym mod 64`): a side
/// whose mask is not within a word's mask cannot occur in it.
fn symbol_mask(w: &[Sym]) -> u64 {
    w.iter().fold(0, |m, s| m | 1 << (s.index() % 64))
}

/// The most words one search can register: an index slot holds a 24-bit
/// id, and the all-ones id marks an empty slot. A larger `max_states` is
/// clamped to this (the engine's default of 200,000 is far below it); see
/// [`state_limit`] for the other clamp.
const MAX_WORDS: usize = (1 << 24) - 1;

/// The state limit of one search from a start word of `start_len`
/// symbols: `max_states`, clamped to [`MAX_WORDS`] and so that the
/// arena's symbols (the start word plus at most `max_word_len` per further
/// word) stay addressable by its `u32` end offsets.
fn state_limit(budget: &SearchBudget, start_len: usize) -> usize {
    let room = (u32::MAX as usize).saturating_sub(start_len);
    let words = 1 + room / budget.max_word_len.max(1);
    budget.max_states.min(MAX_WORDS).min(words)
}

/// A [`WordArena`] word's end offset into its symbols.
type End = u32;
/// A [`WordArena`] word's parent id.
type Parent = u32;
/// A [`WordArena`] word's stored [`word_hash`].
type Hash = u32;
/// A [`WordArena`] index slot: a word id under an 8-bit tag.
type Slot = u32;

// The memory bound in the module docs counts 4 bytes for each per-word
// record; these keep it from growing back unnoticed.
const _: () = assert!(size_of::<End>() == 4);
const _: () = assert!(size_of::<Parent>() == 4);
const _: () = assert!(size_of::<Hash>() == 4);
const _: () = assert!(size_of::<Slot>() == 4);

/// A used [`Slot`] holds its word's id in the low `ID_BITS` bits and its
/// tag, the low 8 bits of the word's [`Hash`], in the top 8.
const ID_BITS: u32 = 24;
const ID_MASK: Slot = (1 << ID_BITS) - 1;

/// An empty [`WordArena`] index slot (its id bits are all ones, which no
/// registered word has).
const EMPTY: Slot = Slot::MAX;

/// Index slots a search starts with: small, because the typical search
/// registers a few hundred words and must stay cheap to set up.
const INITIAL_SLOTS: usize = 16;

/// The search's visited set: every registered word, stored once, in
/// registration order.
///
/// Word `id` occupies `syms[ends[id - 1]..ends[id]]` (`syms[..ends[0]]`
/// for the start word, id 0). `parents[id]` is the id it was reached
/// from (the start word is its own parent); the step taken is not stored
/// but recovered from the two words ([`registering_step`]). `hashes[id]`
/// is the word's [`word_hash`]. `slots` is an open-addressing index under
/// linear probing: each used slot packs an id with the low 8 bits of its
/// word's hash (the tag), so a probe rarely touches a word that does not
/// match, and a rehash re-slots from `hashes` without touching the words.
/// The index doubles whenever it would pass half full, so a probe always
/// ends at an empty slot within a few steps.
struct WordArena {
    syms: Vec<Sym>,
    ends: Vec<End>,
    parents: Vec<Parent>,
    hashes: Vec<Hash>,
    slots: Vec<Slot>,
}

/// Where [`WordArena::find`] stopped for an unregistered word: the empty
/// slot it belongs in, and its hash.
struct Vacancy {
    slot: usize,
    hash: Hash,
}

impl WordArena {
    /// An arena holding just `start`, as id 0.
    fn new(start: &[Sym]) -> Self {
        let mut arena = Self {
            syms: Vec::new(),
            ends: Vec::new(),
            parents: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; INITIAL_SLOTS],
        };
        let hash = word_hash(start);
        let vacancy = Vacancy {
            slot: home(hash, INITIAL_SLOTS),
            hash,
        };
        arena.insert(vacancy, start, 0);
        arena
    }

    /// Number of registered words.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The symbols of word `id`.
    fn word(&self, id: usize) -> &[Sym] {
        let from = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.syms[from as usize..self.ends[id] as usize]
    }

    /// `Ok(id)` when `w` is registered, else where
    /// [`WordArena::insert`] must put it.
    fn find(&self, w: &[Sym]) -> Result<usize, Vacancy> {
        let mask = self.slots.len() - 1;
        let hash = word_hash(w);
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
            if used & !ID_MASK == tag && self.word(id) == w {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Registers `w` at the [`Vacancy`] that [`WordArena::find`] returned,
    /// reached from `parent`, and returns its id.
    fn insert(&mut self, at: Vacancy, w: &[Sym], parent: usize) -> usize {
        let id = self.len();
        self.syms.extend_from_slice(w);
        self.ends.push(
            End::try_from(self.syms.len()).expect("state_limit keeps the symbols within u32"),
        );
        self.parents.push(parent as Parent);
        self.hashes.push(at.hash);
        self.slots[at.slot] = tag_bits(at.hash) | id as Slot;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the index and re-slots every word by its stored hash.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 2 * self.slots.len()];
        for (id, &hash) in self.hashes.iter().enumerate() {
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

/// The top 32 bits of [`slice_hash`]: a word's stored hash.
fn word_hash(w: &[Sym]) -> Hash {
    (slice_hash(w) >> 32) as Hash
}

/// A fast non-cryptographic hash of a word (the Fx multiply-rotate
/// scheme, over four symbols per round): the search hashes every
/// candidate it generates. The keys are words the search derives itself,
/// not raw request bytes.
fn slice_hash(w: &[Sym]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let round = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    let pack = |c: &[Sym]| c.iter().fold(0u64, |x, s| x << 16 | u64::from(s.raw()));
    let chunks = w.chunks_exact(4);
    let tail = chunks.remainder();
    let h = chunks.fold(w.len() as u64, |h, c| round(h, pack(c)));
    if tail.is_empty() {
        h
    } else {
        round(h, pack(tail))
    }
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
