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
//! `2 · max_word_len` bytes), an 8-byte end offset, a 32-byte parent link
//! (id and [`DerivStep`]) and 2–4 slots of an 8-byte hash index, so about
//! `2 · max_word_len + 72` bytes per state before vector growth slack.
//! Candidates are built in one reusable buffer; nothing is allocated per
//! candidate.

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
    /// Maximum number of distinct words to visit.
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
    search_derivation_cancellable(p, start, target, budget, &never)
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

/// [`search_derivation`] with a cooperative [`Cancellation`] token, for
/// racing against the finite-model search: the token is polled once per
/// dequeued word and per registered state, and a cancelled run reports
/// [`SearchResult::BudgetExhausted`] with the states visited so far (the
/// caller that cancelled has its own certificate and discards this side's
/// result). Use [`search_derivation_tracked`] when the caller must
/// distinguish cancellation from genuine budget exhaustion.
pub fn search_derivation_cancellable(
    p: &Presentation,
    start: &Word,
    target: &Word,
    budget: &SearchBudget,
    cancel: &Cancellation,
) -> SearchResult {
    search_derivation_tracked(p, start, target, budget, cancel).result
}

/// [`search_derivation_cancellable`] with exact spend accounting: the
/// returned [`TrackedSearch`] carries the states visited (even on success)
/// and whether the run was cut short by the cancellation flag rather than
/// by its own budget.
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
    let limit = budget.max_states.min(MAX_WORDS);
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
            for (eq_index, eq) in p.equations().iter().enumerate() {
                for (from, to, forward) in [
                    (eq.lhs.syms(), eq.rhs.syms(), true),
                    (eq.rhs.syms(), eq.lhs.syms(), false),
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
                        let step = DerivStep {
                            eq_index,
                            pos,
                            forward,
                        };
                        let id = arena.insert(vacancy, &next, parent, step);
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

    // Reconstruct the step sequence backwards from target.
    let mut steps_rev = Vec::new();
    // td-lint: allow(budget-poll) parent-chain walk over the BFS tree already built above:
    // each hop moves to a strictly earlier-registered word, so it is bounded by `visited`
    // (which the ticker already charged during the search).
    while id != 0 {
        let (prev, step) = arena.links[id];
        steps_rev.push(step);
        id = prev as usize;
    }
    steps_rev.reverse();
    TrackedSearch {
        result: SearchResult::Found(Derivation {
            start: start.clone(),
            steps: steps_rev,
        }),
        states: visited,
        cancelled: false,
    }
}

/// A 64-bit summary of the symbols in `w` (bit `sym mod 64`): a side
/// whose mask is not within a word's mask cannot occur in it.
fn symbol_mask(w: &[Sym]) -> u64 {
    w.iter().fold(0, |m, s| m | 1 << (s.index() % 64))
}

/// The most words one search can register: arena ids are `u32` and the
/// index, at most half full, must stay within 2³² slots so a slot's
/// 32-bit tag still determines its home. A larger `max_states` is clamped
/// to this (the symbols alone would not fit in memory long before).
const MAX_WORDS: usize = 1 << 31;

/// An empty [`WordArena`] index slot's id.
const EMPTY: u32 = u32::MAX;

/// Index slots a search starts with: small, because the typical search
/// registers a few hundred words and must stay cheap to set up.
const INITIAL_SLOTS: usize = 16;

/// The derivation search's visited set: every registered word, stored
/// once, in registration order.
///
/// Word `id` occupies `syms[ends[id - 1]..ends[id]]` (`syms[..ends[0]]`
/// for the start word, id 0). `links[id]` is the id it was reached from
/// and the step taken (the start word links to itself with a dummy step).
/// `slots` is an open-addressing index under linear probing: each used
/// slot holds an id and the top 32 bits of its word's [`slice_hash`] (the
/// tag), so a probe rarely touches a word that does not match and a
/// rehash never touches the words at all. The index doubles whenever it
/// would pass half full, so a probe always ends at an empty slot within a
/// few steps.
struct WordArena {
    syms: Vec<Sym>,
    ends: Vec<usize>,
    links: Vec<(u32, DerivStep)>,
    slots: Vec<(u32, u32)>,
}

/// Where [`WordArena::find`] stopped for an unregistered word: the empty
/// slot it belongs in, and its tag.
struct Vacancy {
    slot: usize,
    tag: u32,
}

impl WordArena {
    /// An arena holding just `start`, as id 0.
    fn new(start: &[Sym]) -> Self {
        let mut arena = Self {
            syms: Vec::new(),
            ends: Vec::new(),
            links: Vec::new(),
            slots: vec![(EMPTY, 0); INITIAL_SLOTS],
        };
        let tag = hash_tag(start);
        let vacancy = Vacancy {
            slot: home(tag, INITIAL_SLOTS),
            tag,
        };
        let step = DerivStep {
            eq_index: 0,
            pos: 0,
            forward: true,
        };
        arena.insert(vacancy, start, 0, step);
        arena
    }

    /// Number of registered words.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The symbols of word `id`.
    fn word(&self, id: usize) -> &[Sym] {
        let from = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.syms[from..self.ends[id]]
    }

    /// `Ok(id)` when `w` is registered, else where
    /// [`WordArena::insert`] must put it.
    fn find(&self, w: &[Sym]) -> Result<usize, Vacancy> {
        let mask = self.slots.len() - 1;
        let tag = hash_tag(w);
        let mut slot = home(tag, self.slots.len());
        // td-lint: allow(budget-poll) the index is at most half full, so every probe
        // ends at an empty slot; it charges no state of its own.
        loop {
            let (id, t) = self.slots[slot];
            if id == EMPTY {
                return Err(Vacancy { slot, tag });
            }
            if t == tag && self.word(id as usize) == w {
                return Ok(id as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Registers `w` at the [`Vacancy`] that [`WordArena::find`] returned,
    /// reached from `parent` by `step`, and returns its id.
    fn insert(&mut self, at: Vacancy, w: &[Sym], parent: usize, step: DerivStep) -> usize {
        let id = self.len();
        self.syms.extend_from_slice(w);
        self.ends.push(self.syms.len());
        self.links.push((parent as u32, step));
        self.slots[at.slot] = (id as u32, at.tag);
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the index and re-slots every used slot by its tag.
    fn grow(&mut self) {
        let mut slots = vec![(EMPTY, 0); 2 * self.slots.len()];
        for &(id, tag) in self.slots.iter().filter(|&&(id, _)| id != EMPTY) {
            let slot = vacant_slot(&slots, tag);
            slots[slot] = (id, tag);
        }
        self.slots = slots;
    }
}

/// The first empty slot from `tag`'s home on, for re-slotting a word
/// already known to be absent.
fn vacant_slot(slots: &[(u32, u32)], tag: u32) -> usize {
    let mut slot = home(tag, slots.len());
    // td-lint: allow(budget-poll) a rehash re-slots only words the ticker already
    // charged, and the doubled index is at most a quarter full, so each probe ends.
    while slots[slot].0 != EMPTY {
        slot = (slot + 1) & (slots.len() - 1);
    }
    slot
}

/// The home slot of `tag` in an index of `n` slots (a power of two, at
/// most 2³²): the tag's top bits, which the multiplicative hash mixes
/// best.
fn home(tag: u32, n: usize) -> usize {
    (u64::from(tag) >> (32 - n.trailing_zeros())) as usize
}

/// The top 32 bits of [`slice_hash`]: a word's index tag.
fn hash_tag(w: &[Sym]) -> u32 {
    (slice_hash(w) >> 32) as u32
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

/// [`search_goal_derivation`] with a cooperative cancellation flag (see
/// [`search_derivation_cancellable`]).
pub fn search_goal_derivation_cancellable(
    p: &Presentation,
    budget: &SearchBudget,
    cancel: &Cancellation,
) -> SearchResult {
    let goal = p.goal();
    search_derivation_cancellable(p, &goal.lhs, &goal.rhs, budget, cancel)
}

/// [`search_goal_derivation_cancellable`] with exact spend accounting (see
/// [`search_derivation_tracked`]).
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
