//! The long-lived solving service: one [`Engine`] owns the decision
//! cache, the budget policy, and the cumulative accounting that every
//! entry point shares.
//!
//! The `Engine` is the one way to solve: a thread-safe, long-lived object
//! that requests flow *through*, whether one-shot (`tdq wp`) or served
//! (`tdq serve`):
//!
//! * a bounded, sharded [`DecisionCache`] keyed by
//!   [`Engine::canonical_key`] — an exact key of the presentation, blind
//!   to symbol names, equation order, side order and repeated equations —
//!   so verdicts survive across requests and a duplicate-heavy request
//!   stream settles each question once per process, not once per call;
//! * a [`BudgetPolicy`] that mints a per-request [`Ticket`] — the budgets
//!   for the two certificate searches (request overrides clamped to the
//!   policy's caps) plus a fresh [`Cancellation`] token registered with
//!   the engine so [`Engine::shutdown`] can wind down every in-flight
//!   request cooperatively;
//! * **single-flight** deduplication for [`Engine::decide`]: concurrent
//!   requests for the same canonical key block on the one solver run
//!   instead of racing it, which makes the cache-hit accounting
//!   deterministic (equal to a sequential replay of the same requests);
//! * cumulative [`EngineStats`] counted on [`td_core::budget::Meter`]s —
//!   requests, hits, solver runs, evictions, and total search spend.
//!
//! Its three solving entry points — [`Engine::run_full`],
//! [`Engine::decide_with`] and [`Engine::solve_batch`] — hand each
//! instance to the pipeline's single executor. The two cached ones key
//! the presentation first and normalize and reduce it only inside the
//! single-flight solve of a miss, so a hit does neither; the single-flight
//! gate is the only place a solve's verdict is written to the cache.

// The engine is the shared request path of every serve worker: a panic
// here poisons cross-request state (caches, the session registry). The
// td-lint panic-path pass enforces panic-freedom lexically; the clippy
// pair keeps `cargo clippy` aligned with it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Instant;

use td_core::budget::{Cancellation, Meter};
use td_core::canon::{canon_key, digest_key, CanonKey, CANON_SCHEME_VERSION};
use td_core::chase::{ChaseBudget, ChaseEngine, ChaseOutcome, ChasePolicy, ChaseState, Goal};
use td_core::inference::{self, freeze, InferenceVerdict};
use td_core::schema::Schema;
use td_core::td::Td;
use td_semigroup::presentation::Presentation;
use td_semigroup::word::Word;

use crate::batch::{compress, from_cached, solver_pool_width, BatchRun, BatchStats, BatchVerdict};
use crate::cache::{CachedOutcome, CachedVerdict, DecisionCache};
use crate::error::{RedError, Result};
use crate::pipeline::{
    prepare, solve_prepared, Budgets, PhaseTimings, PipelineRun, Prepared, SolveOptions,
    SpendReport,
};

/// Construction-time knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Default budgets for the two certificate searches; also the caps a
    /// per-request override is clamped to (see [`BudgetPolicy::mint`]).
    pub budgets: Budgets,
    /// Scheduling mode and homomorphism strategy used for every solve.
    pub opts: SolveOptions,
    /// Worker threads for [`Engine::solve_batch`] (clamped to at least 1).
    pub jobs: usize,
    /// Shard count of the decision cache.
    pub cache_shards: usize,
    /// Per-shard entry capacity of the decision cache (see
    /// [`crate::cache::DEFAULT_SHARD_CAPACITY`]).
    pub cache_cap: usize,
    /// Maximum number of concurrently open [`Session`]s; opening one past
    /// the bound evicts the least-recently-used session (clamped to at
    /// least 1).
    pub max_sessions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            budgets: Budgets::default(),
            opts: SolveOptions::default(),
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_shards: 16,
            cache_cap: crate::cache::DEFAULT_SHARD_CAPACITY,
            max_sessions: 64,
        }
    }
}

/// Per-request budget overrides, as carried by the NDJSON protocol. Each
/// field replaces the corresponding cap in the policy's base budgets —
/// clamped so a request can *shrink* its budgets but never exceed the
/// policy's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Cap on distinct words the derivation search may visit.
    pub derivation_states: Option<usize>,
    /// Cap on nodes the finite-model search may visit.
    pub model_nodes: Option<u64>,
}

/// The engine's budget authority: owns the base [`Budgets`] every request
/// gets by default and mints per-request [`Ticket`]s, clamping any
/// request-supplied overrides to the base caps.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPolicy {
    base: Budgets,
}

impl BudgetPolicy {
    /// A policy handing out `base` to every request.
    pub fn new(base: Budgets) -> Self {
        Self { base }
    }

    /// The default budgets (and the caps overrides are clamped to).
    pub fn base(&self) -> &Budgets {
        &self.base
    }

    /// Mints the effective budgets for one request: the base, with any
    /// override applied but clamped to the base value — a request may ask
    /// for *less* search than the policy allows, never more.
    pub fn mint(&self, req: Option<RequestBudget>) -> Budgets {
        let mut budgets = self.base;
        if let Some(req) = req {
            if let Some(states) = req.derivation_states {
                budgets.derivation.max_states = states.min(self.base.derivation.max_states);
            }
            if let Some(nodes) = req.model_nodes {
                budgets.model.max_nodes = nodes.min(self.base.model.max_nodes);
            }
        }
        budgets
    }
}

/// What one request runs under: its effective budgets and its
/// cooperative-cancellation token. Tokens are minted per request and
/// registered with the engine, so [`Engine::shutdown`] reaches every
/// in-flight search.
#[derive(Debug)]
pub struct Ticket {
    /// Effective budgets for this request.
    pub budgets: Budgets,
    cancel: Arc<Cancellation>,
}

impl Ticket {
    /// The request's cancellation token.
    pub fn cancellation(&self) -> &Cancellation {
        &self.cancel
    }
}

/// Cumulative accounting across an engine's lifetime. All counters are
/// monotone except [`EngineStats::keys_cached`], which evictions can
/// shrink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Implication questions received: one per [`Engine::decide`] call
    /// that returns `Ok`, one per [`Engine::run_full`] call, one per item
    /// of a batch that returns `Ok`, one per redundancy analysis.
    pub requests: u64,
    /// Requests answered from the decision cache (cross-request warmth
    /// plus within-batch dedup).
    pub cache_hits: u64,
    /// Racing-solver runs actually executed.
    pub solved: u64,
    /// Verdicts currently resident in the decision cache.
    pub keys_cached: usize,
    /// Entries evicted from the cache to bound residency.
    pub evictions: u64,
    /// Total distinct words visited by derivation searches (winners exact,
    /// losers truncated — a lower bound, see
    /// [`crate::pipeline::SpendReport`]).
    pub derivation_states: u64,
    /// Total nodes visited by finite-model searches (same caveat).
    pub model_nodes: u64,
    /// Solver runs whose countermodel failed its part (B) verification
    /// and were answered `Unknown` instead of `Refuted` (see
    /// [`PipelineRun::model_rejected`]). Always 0 unless the model search
    /// or the construction has a defect; no reply prints it.
    pub models_rejected: u64,
}

/// The outcome of [`Engine::load_snapshot`]: how much warmth was actually
/// imported. `keys_skipped_version == 0` on a same-scheme load;
/// `keys_loaded == 0` when the snapshot was written under a different
/// canon-scheme version and was therefore rejected wholesale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Entries merged into the decision cache.
    pub keys_loaded: usize,
    /// Entries skipped because the snapshot's canon-scheme version differs
    /// from this build's — their keys are not comparable to ours.
    pub keys_skipped_version: usize,
}

/// The engine's internal meters ([`EngineStats`] is their snapshot).
#[derive(Debug, Default)]
struct Counters {
    requests: Meter,
    cache_hits: Meter,
    solved: Meter,
    derivation_states: Meter,
    model_nodes: Meter,
    models_rejected: Meter,
}

/// One settled answer from [`Engine::decide`]: the verdict plus its
/// provenance (cache key, spend, whether the cache answered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The cache key of the instance ([`Engine::canonical_key`]).
    pub key: CanonKey,
    /// The verdict.
    pub verdict: BatchVerdict,
    /// Spend accounting: the run that settled the verdict (for a cache
    /// hit, the *original* run's spend).
    pub spend: SpendReport,
    /// `true` when the decision cache answered without running the solver.
    pub cached: bool,
    /// Wall-clock phase timings of the request. A cache hit neither
    /// normalizes nor reduces, so every phase but its `total` is zero.
    pub timings: PhaseTimings,
}

/// The verdict of one [`Engine::session_ask`]: like a batch verdict, but
/// produced by the session's *incremental* chase — the counters are
/// cumulative across every resume the stored [`ChaseState`] went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionVerdict {
    /// Σ ⊨ τ: the chase of τ's frozen tableau reached the goal row.
    Implied {
        /// Triggers fired to reach the goal (cumulative across resumes).
        chase_steps: usize,
    },
    /// Σ ⊭ τ: the chase terminated without the goal — its final state is a
    /// finite countermodel.
    NotImplied {
        /// Rows in the countermodel.
        model_rows: usize,
    },
    /// The per-ask chase budget ran out before either certificate. Asking
    /// again grants a fresh increment and resumes where this ask stopped.
    Unknown {
        /// Triggers fired so far (cumulative across resumes).
        chase_steps: usize,
        /// Rows in the suspended state.
        state_rows: usize,
    },
}

/// A suspended per-goal chase: the resumable fixpoint computation plus the
/// goal pattern it is driving toward.
#[derive(Debug)]
struct GoalChase {
    state: ChaseState,
    goal: Goal,
}

/// The mutable contents of a [`Session`]: the dependency set Σ and the
/// per-goal incremental machinery.
#[derive(Debug, Default)]
struct SessionInner {
    /// The session's schema, fixed by the first dependency or ask.
    schema: Option<Schema>,
    /// Σ, in insertion order, keyed by the (unique) dependency name. Order
    /// matters: it is the resume prefix of every stored [`ChaseState`].
    deps: Vec<(String, Td)>,
    /// Suspended chases keyed by the goal's [`canon_key`] — isomorphic
    /// goals share one resumable fixpoint.
    chases: HashMap<CanonKey, GoalChase>,
    /// Settled verdicts for the *current* Σ, invalidated monotonically on
    /// dependency changes (`Unknown` is never cached).
    verdicts: HashMap<CanonKey, SessionVerdict>,
}

/// A named incremental Σ-session owned by an [`Engine`]: a dependency set
/// that evolves across requests, with per-goal [`ChaseState`]s that are
/// *resumed* — not recomputed — when Σ grows.
///
/// All session state sits behind one internal mutex, so concurrent
/// operations on the same session serialize: every ask observes a
/// consistent Σ, and interleaved add/ask streams behave like some serial
/// order of the same operations.
///
/// Verdict-cache invalidation exploits that implication is monotone in Σ:
///
/// * **adding** a dependency preserves every `Implied` verdict (the old
///   proof still stands) but drops `NotImplied` ones (the countermodel may
///   violate the new premise); suspended chases are *kept* — the appended
///   TD joins them through the resume protocol;
/// * **removing** a dependency preserves `NotImplied` verdicts (the
///   countermodel still satisfies the smaller Σ) but drops `Implied` ones,
///   and discards every suspended chase — derived rows cannot be
///   retracted, so the next ask re-chases from scratch.
#[derive(Debug)]
pub struct Session {
    id: String,
    inner: Mutex<SessionInner>,
}

impl Session {
    /// The session's registry id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// The id-keyed session registry: bounded, LRU-evicting.
#[derive(Debug)]
struct SessionRegistry {
    map: HashMap<String, Arc<Session>>,
    /// LRU order, front = least recently used. Touched by every session
    /// operation.
    order: VecDeque<String>,
    max: usize,
    opened: u64,
    evictions: u64,
}

/// A snapshot of the session registry's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently open.
    pub open: usize,
    /// Sessions opened over the engine's lifetime.
    pub opened: u64,
    /// Sessions evicted by the LRU bound (closes are not evictions).
    pub evictions: u64,
}

/// A long-lived, thread-safe solving service: share one per process (or
/// per tenant) by reference and route every implication question through
/// it. See the module docs for the ownership picture.
#[derive(Debug)]
pub struct Engine {
    cache: DecisionCache,
    policy: BudgetPolicy,
    opts: SolveOptions,
    jobs: usize,
    counters: Counters,
    /// Flipped once by [`Engine::shutdown`]; minting refuses afterwards.
    root: Cancellation,
    /// Cancellation tokens of in-flight requests (pruned lazily).
    inflight: Mutex<Vec<Weak<Cancellation>>>,
    /// Canonical keys currently being solved by a [`Engine::decide`] call
    /// (the single-flight gate)…
    pending: Mutex<HashSet<CanonKey>>,
    /// …and the condvar its waiters block on.
    settled: Condvar,
    /// Named incremental Σ-sessions (see [`Session`]).
    sessions: Mutex<SessionRegistry>,
}

/// What the single-flight gate produced for one key: a pipeline run this
/// caller executed, or a settled outcome already in the cache or produced
/// by another flight while this caller waited.
#[allow(clippy::large_enum_variant)] // Ran carries the full run by design; one per caller at a time
enum ItemOutcome {
    /// This caller ran the solver.
    Ran(PipelineRun),
    /// The cache answered.
    Settled(CachedOutcome),
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with the default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self {
            cache: DecisionCache::with_capacity(config.cache_shards, config.cache_cap),
            policy: BudgetPolicy::new(config.budgets),
            opts: config.opts,
            jobs: config.jobs.max(1),
            counters: Counters::default(),
            root: Cancellation::new(),
            inflight: Mutex::new(Vec::new()),
            pending: Mutex::new(HashSet::new()),
            settled: Condvar::new(),
            sessions: Mutex::new(SessionRegistry {
                map: HashMap::new(),
                order: VecDeque::new(),
                max: config.max_sessions.max(1),
                opened: 0,
                evictions: 0,
            }),
        }
    }

    /// The engine's budget policy.
    pub fn policy(&self) -> &BudgetPolicy {
        &self.policy
    }

    /// The solve options every request runs under.
    pub fn opts(&self) -> SolveOptions {
        self.opts
    }

    /// The effective worker-pool width batch and serve fan-out runs at
    /// (clamped to at least 1 at construction).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared decision cache (read access for diagnostics; writes go
    /// through the solving paths).
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
    }

    /// The cache key of a word-problem instance: an exact key of the
    /// parsed presentation, taken before anything is normalized or
    /// reduced. It is a [`digest_key`] of the alphabet length, the indices
    /// of `A₀` and `0`, and the sorted, de-duplicated equations, each with
    /// its two sides in a fixed order (every word length-prefixed, so the
    /// stream is injective). Equations the solve's zero-saturation already
    /// implies are left out: reflexive ones, and those whose two sides
    /// both contain `0` (both equal `0` once `0` absorbs).
    ///
    /// Two presentations share the key iff (up to 128-bit digest
    /// collision) they differ only in symbol names, equation order, the
    /// side order of an equation, repeated equations, or equations left
    /// out as above — none of which can change the verdict. Symbol indices
    /// are significant: permuting the symbols changes the key, as it
    /// changes the columns of the reduced system.
    pub fn canonical_key(p: &Presentation) -> CanonKey {
        fn word(w: &Word) -> impl Iterator<Item = u32> + '_ {
            std::iter::once(w.len() as u32).chain(w.syms().iter().map(|s| u32::from(s.raw())))
        }
        let zero = p.alphabet().zero();
        let mut eqs: Vec<(&Word, &Word)> = p
            .equations()
            .iter()
            .filter(|eq| !(eq.is_reflexive() || (eq.lhs.contains(zero) && eq.rhs.contains(zero))))
            .map(|eq| {
                if eq.rhs < eq.lhs {
                    (&eq.rhs, &eq.lhs)
                } else {
                    (&eq.lhs, &eq.rhs)
                }
            })
            .collect();
        eqs.sort_unstable();
        eqs.dedup();
        let alphabet = p.alphabet();
        let header = [
            alphabet.len() as u32,
            u32::from(alphabet.a0().raw()),
            u32::from(alphabet.zero().raw()),
            eqs.len() as u32,
        ];
        digest_key(
            header
                .into_iter()
                .chain(eqs.into_iter().flat_map(|(l, r)| word(l).chain(word(r)))),
        )
    }

    /// Mints a [`Ticket`] for one request: effective budgets from the
    /// policy plus a fresh cancellation token registered for shutdown.
    /// Fails with [`RedError::ShutDown`] once the engine is shut down.
    pub fn mint(&self, req: Option<RequestBudget>) -> Result<Ticket> {
        if self.root.is_cancelled() {
            return Err(RedError::ShutDown);
        }
        let cancel = Arc::new(Cancellation::new());
        {
            // Recover from poisoning rather than erroring: the registry is
            // a `Vec<Weak>` whose entries are pushed one at a time, so a
            // recovered vector is always structurally valid — and failing
            // to register here would leave the request invisible to
            // shutdown cancellation.
            let mut inflight = self
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Lazy pruning keeps the registry proportional to the number
            // of requests actually in flight, not ever made.
            if inflight.len() >= 64 {
                inflight.retain(|w| w.strong_count() > 0);
            }
            inflight.push(Arc::downgrade(&cancel));
        }
        // A shutdown that raced the registration above cancels the token
        // here, so no request slips through uncancellable.
        if self.root.is_cancelled() {
            cancel.cancel();
            return Err(RedError::ShutDown);
        }
        Ok(Ticket {
            budgets: self.policy.mint(req),
            cancel,
        })
    }

    /// Requests shutdown: no new tickets are minted, and every in-flight
    /// request's cancellation token is flipped so the searches back out at
    /// their next poll (their runs come back `Unknown`). Idempotent; never
    /// blocks on solving work.
    pub fn shutdown(&self) {
        self.root.cancel();
        // Shutdown must reach every in-flight token even after a panic
        // poisoned the registry — a skipped cancellation wedges a worker —
        // so recover rather than propagate.
        let inflight = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for weak in inflight.iter() {
            if let Some(token) = weak.upgrade() {
                token.cancel();
            }
        }
        // Wake decide() waiters so they observe the shutdown promptly.
        self.settled.notify_all();
    }

    /// `true` once [`Engine::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.root.is_cancelled()
    }

    /// A consistent snapshot of the cumulative accounting.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.counters.requests.total(),
            cache_hits: self.counters.cache_hits.total(),
            solved: self.counters.solved.total(),
            keys_cached: self.cache.len(),
            evictions: self.cache.evictions(),
            derivation_states: self.counters.derivation_states.total(),
            model_nodes: self.counters.model_nodes.total(),
            models_rejected: self.counters.models_rejected.total(),
        }
    }

    /// Serializes the resident decision cache to the versioned snapshot
    /// format ([`crate::snapshot`]): a lock-coherent per-shard export
    /// stamped with the current [`CANON_SCHEME_VERSION`]. Safe to call
    /// while requests are in flight — concurrently settling verdicts are
    /// either in the image or not, never torn.
    pub fn save_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(&self.cache.export())
    }

    /// Merges a snapshot image into the decision cache, subject to the
    /// existing FIFO capacity bound (loading more keys than the cache can
    /// hold evicts normally).
    ///
    /// Structural defects — bad magic, unsupported format version,
    /// truncation, checksum mismatch — are a positioned
    /// [`RedError::Snapshot`] and load **nothing**. A snapshot whose
    /// canon-scheme version differs from this build's
    /// [`CANON_SCHEME_VERSION`] is structurally sound but its keys were
    /// minted under a different keying scheme: every entry is skipped
    /// (reported in [`LoadStats::keys_skipped_version`]) rather than
    /// reinterpreted — stale warmth degrades to a cold start, never to
    /// wrong verdicts.
    pub fn load_snapshot(&self, bytes: &[u8]) -> Result<LoadStats> {
        let snap = crate::snapshot::decode(bytes)?;
        if snap.canon_version != CANON_SCHEME_VERSION {
            return Ok(LoadStats {
                keys_loaded: 0,
                keys_skipped_version: snap.entries.len(),
            });
        }
        let keys_loaded = snap.entries.len();
        for (key, outcome) in snap.entries {
            self.cache.insert(key, outcome);
        }
        Ok(LoadStats {
            keys_loaded,
            keys_skipped_version: 0,
        })
    }

    /// Solves a prepared instance under `ticket` — the engine's one call
    /// into the pipeline executor — and charges the run's spend and
    /// solver count to the cumulative meters.
    fn execute(&self, prepared: Prepared, ticket: &Ticket) -> Result<PipelineRun> {
        let run = solve_prepared(prepared, &ticket.budgets, self.opts, ticket.cancellation())?;
        self.counters
            .derivation_states
            .add(run.spend.derivation_states as u64);
        self.counters.model_nodes.add(run.spend.model_nodes);
        self.counters.solved.add(1);
        if run.model_rejected {
            self.counters.models_rejected.add(1);
        }
        Ok(run)
    }

    /// Runs the full pipeline for one request — certificates and all —
    /// under a minted ticket. This path does **not** consult the decision
    /// cache (a cached verdict cannot reproduce the certificates the
    /// caller is asking for) but still counts toward the request and spend
    /// accounting. `tdq wp` routes through here.
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::ShutDown`] after [`Engine::shutdown`], and
    /// propagates pipeline errors (normalization, reduction, certificate
    /// verification).
    pub fn run_full(&self, p: &Presentation) -> Result<PipelineRun> {
        self.counters.requests.add(1);
        let ticket = self.mint(None)?;
        self.execute(prepare(p)?, &ticket)
    }

    /// Decides one implication question through the cache: key the
    /// presentation ([`Engine::canonical_key`]), answer from the cache when
    /// possible, otherwise normalize, reduce and run the racing solver once
    /// and record the settled verdict. Only a call that returns `Ok` is
    /// counted in [`EngineStats::requests`], the way a failed
    /// [`Engine::solve_batch`] counts none of its items.
    ///
    /// Concurrent calls deciding the *same* key are
    /// single-flighted: one caller solves, the rest block until the
    /// verdict lands in the cache and then read it as a hit. This keeps
    /// the hit/solve accounting deterministic — identical to a sequential
    /// replay of the same request multiset — and protects a busy server
    /// from thundering-herd duplicate solves. (`Unknown` verdicts are
    /// never cached, so every request for an undecided-within-budget class
    /// runs the solver, again matching the sequential replay.)
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::ShutDown`] after [`Engine::shutdown`], with
    /// [`RedError::Poisoned`] when the single-flight gate was poisoned by
    /// an earlier panic, and propagates pipeline errors.
    pub fn decide(&self, p: &Presentation) -> Result<Decision> {
        self.decide_with(p, None)
    }

    /// [`Engine::decide`] with per-request budget overrides (clamped by
    /// the [`BudgetPolicy`]).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::decide`].
    pub fn decide_with(&self, p: &Presentation, req: Option<RequestBudget>) -> Result<Decision> {
        let started = Instant::now();
        let key = Self::canonical_key(p);
        let outcome = self.single_flight(key, || self.execute(prepare(p)?, &self.mint(req)?))?;
        self.counters.requests.add(1);
        let (verdict, spend, cached, phases) = match outcome {
            ItemOutcome::Settled(hit) => {
                self.counters.cache_hits.add(1);
                (from_cached(&hit), hit.spend, true, PhaseTimings::default())
            }
            ItemOutcome::Ran(run) => (compress(&run), run.spend, false, run.timings),
        };
        Ok(Decision {
            key,
            verdict,
            spend,
            cached,
            timings: PhaseTimings {
                total: started.elapsed(),
                ..phases
            },
        })
    }

    /// The single-flight gate: answer `key` from the cache, or wait for
    /// an in-flight solve of the same key, or — as the one elected flight
    /// — run `solve` and publish its settled verdict. Exactly one caller
    /// runs the solver per key at any moment; the gate is lifted (and
    /// waiters woken) even when the solve errors, so waiters never
    /// deadlock.
    fn single_flight(
        &self,
        key: CanonKey,
        solve: impl FnOnce() -> Result<PipelineRun>,
    ) -> Result<ItemOutcome> {
        loop {
            if let Some(hit) = self.cache.get(key) {
                return Ok(ItemOutcome::Settled(hit));
            }
            let mut pending = self
                .pending
                .lock()
                .map_err(|_| RedError::Poisoned("single-flight gate"))?;
            if self.cache.get(key).is_some() {
                continue; // settled between the miss and the lock: re-read
            }
            if !pending.contains(&key) {
                pending.insert(key);
                break; // this caller is the solver
            }
            if self.is_shut_down() {
                return Err(RedError::ShutDown);
            }
            // Another caller is solving this key: wait for it to settle,
            // then re-check the cache.
            drop(
                self.settled
                    .wait(pending)
                    .map_err(|_| RedError::Poisoned("single-flight gate"))?,
            );
        }

        let outcome = solve();
        if let Ok(run) = &outcome {
            if let Some(cached) = settle(run) {
                self.cache.insert(key, cached);
            }
        }
        // Always lift the single-flight gate — even on error or after a
        // poisoning panic — before propagating, so waiters never deadlock.
        // Recovery is sound: the set's critical sections are single
        // complete operations.
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&key);
        self.settled.notify_all();
        outcome.map(ItemOutcome::Ran)
    }

    /// Decides a whole batch through the engine: within-batch dedup by
    /// key, cross-request warmth via the shared cache, and the distinct
    /// remainder solved on the engine's worker pool. Verdicts come back in
    /// input order, and which instances get solved, every verdict and the
    /// [`BatchStats`] are independent of thread scheduling.
    ///
    /// Every instance is keyed by [`Engine::canonical_key`], as in
    /// [`Engine::decide`]; only a miss is normalized and reduced, inside
    /// its single-flight solve. Each solved item mints its own ticket, so
    /// shutdown reaches batch workers too, and runs through the same
    /// single-flight gate as [`Engine::decide`]: a batch item and a
    /// concurrent `decide` for the same key share one solver run.
    /// `Unknown` verdicts are shared within the call but never cached.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::decide`]; the first failing item aborts the
    /// batch (no item of it is counted), and a panicked worker surfaces as
    /// [`RedError::Poisoned`].
    pub fn solve_batch(&self, items: &[Presentation]) -> Result<BatchRun> {
        let evictions_before = self.cache.evictions();
        // Phase 1: key every instance and dedup to first occurrences,
        // pinning pre-warmed verdicts *now* — on a shared bounded cache a
        // concurrent writer could evict them before the fan-out.
        let keys: Vec<CanonKey> = items.iter().map(Self::canonical_key).collect();
        let mut distinct: HashSet<CanonKey> = HashSet::new();
        let mut answers: HashMap<CanonKey, BatchVerdict> = HashMap::new();
        let mut to_solve: Vec<(CanonKey, &Presentation)> = Vec::new();
        for (&key, p) in keys.iter().zip(items) {
            if distinct.insert(key) {
                match self.cache.get(key) {
                    Some(outcome) => {
                        answers.insert(key, from_cached(&outcome));
                    }
                    None => to_solve.push((key, p)),
                }
            }
        }

        // Phase 2: the solver pool pulls misses from a shared queue. The
        // first failing worker cancels the pool so the rest stop pulling
        // work whose results would be discarded. `solved` counts the runs
        // this call performed — an item settled by a concurrent flight
        // while its worker waited is a cache hit, not a solve.
        let solved = AtomicUsize::new(0);
        let failed = Cancellation::new();
        let pool = solver_pool_width(self.jobs, to_solve.len());
        let queue = Mutex::new(to_solve.into_iter());
        let worker = || -> Result<Vec<(CanonKey, BatchVerdict)>> {
            let mut out = Vec::new();
            while !failed.is_cancelled() {
                let next = queue
                    .lock()
                    .map_err(|_| RedError::Poisoned("batch work queue"))?
                    .next();
                let Some((key, p)) = next else {
                    break;
                };
                let outcome =
                    self.single_flight(key, || self.execute(prepare(p)?, &self.mint(None)?));
                let verdict = match outcome {
                    Ok(ItemOutcome::Ran(run)) => {
                        solved.fetch_add(1, Ordering::Relaxed);
                        compress(&run)
                    }
                    Ok(ItemOutcome::Settled(hit)) => from_cached(&hit),
                    Err(e) => {
                        failed.cancel();
                        return Err(e);
                    }
                };
                out.push((key, verdict));
            }
            Ok(out)
        };
        let found = std::thread::scope(|s| {
            let handles: Vec<_> = (0..pool).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| RedError::Poisoned("batch solver worker"))?
                })
                .collect::<Vec<Result<_>>>()
        });
        for verdicts in found {
            answers.extend(verdicts?);
        }

        // Phase 3: fan the answers back out to input order. Every key's
        // first occurrence was pinned in phase 1 or answered in phase 2.
        let verdicts = keys
            .iter()
            .map(|key| {
                answers
                    .get(key)
                    .copied()
                    .ok_or(RedError::Poisoned("batch solver pool"))
            })
            .collect::<Result<Vec<_>>>()?;
        let solved = solved.into_inner();
        let stats = BatchStats {
            total: items.len(),
            unique: distinct.len(),
            cache_hits: items.len() - solved,
            solved,
            evictions: self.cache.evictions() - evictions_before,
        };
        self.counters.requests.add(stats.total as u64);
        self.counters.cache_hits.add(stats.cache_hits as u64);
        Ok(BatchRun {
            verdicts,
            keys,
            stats,
        })
    }

    /// Opens a named session. Fails if the id is already open; at the
    /// configured bound ([`EngineConfig::max_sessions`]) the
    /// least-recently-used session is evicted first. In-flight operations
    /// on an evicted session finish normally — they hold their own
    /// [`Arc<Session>`] — but the id stops resolving.
    pub fn session_open(&self, id: &str) -> Result<()> {
        if self.is_shut_down() {
            return Err(RedError::ShutDown);
        }
        let mut reg = self
            .sessions
            .lock()
            .map_err(|_| RedError::Poisoned("session registry"))?;
        if reg.map.contains_key(id) {
            return Err(RedError::Session(format!("session `{id}` is already open")));
        }
        while reg.map.len() >= reg.max {
            let Some(oldest) = reg.order.pop_front() else {
                break;
            };
            reg.map.remove(&oldest);
            reg.evictions += 1;
        }
        reg.map.insert(
            id.to_owned(),
            Arc::new(Session {
                id: id.to_owned(),
                inner: Mutex::new(SessionInner::default()),
            }),
        );
        reg.order.push_back(id.to_owned());
        reg.opened += 1;
        Ok(())
    }

    /// Closes a named session, dropping its Σ and every suspended chase.
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::Session`] for an unknown id and with
    /// [`RedError::Poisoned`] when the session registry lock was poisoned
    /// by an earlier panic.
    pub fn session_close(&self, id: &str) -> Result<()> {
        let mut reg = self
            .sessions
            .lock()
            .map_err(|_| RedError::Poisoned("session registry"))?;
        if reg.map.remove(id).is_none() {
            return Err(RedError::Session(format!("unknown session `{id}`")));
        }
        if let Some(pos) = reg.order.iter().position(|n| n == id) {
            reg.order.remove(pos);
        }
        Ok(())
    }

    /// Resolves a session id to its shared handle, touching its LRU slot.
    /// The registry lock is released before the caller takes the session's
    /// own lock, so registry operations never wait on a running ask.
    fn session(&self, id: &str) -> Result<Arc<Session>> {
        let mut reg = self
            .sessions
            .lock()
            .map_err(|_| RedError::Poisoned("session registry"))?;
        let Some(session) = reg.map.get(id).map(Arc::clone) else {
            return Err(RedError::Session(format!("unknown session `{id}`")));
        };
        if let Some(pos) = reg.order.iter().position(|n| n == id) {
            reg.order.remove(pos);
            reg.order.push_back(id.to_owned());
        }
        Ok(session)
    }

    /// Fixes or checks the session's schema against `schema`.
    fn session_schema(inner: &mut SessionInner, id: &str, schema: &Schema) -> Result<()> {
        match &inner.schema {
            Some(s) => s
                .expect_same(schema)
                .map_err(|e| RedError::Session(format!("session `{id}` schema mismatch: {e}")))?,
            None => inner.schema = Some(schema.clone()),
        }
        Ok(())
    }

    /// Adds dependencies to a session's Σ, returning the new Σ size.
    /// Names must be unique within the session (they are the removal
    /// handle); the whole call is rejected before any mutation if one
    /// clashes. Cached `NotImplied` verdicts are dropped (their
    /// countermodels may violate the new premises); `Implied` verdicts and
    /// every suspended chase survive — the appended TDs are integrated by
    /// the next ask's resumed chase, which is the whole point.
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::Session`] for an unknown session, a
    /// duplicate dependency name, or a Σ-size overflow, and with
    /// [`RedError::Poisoned`] on a poisoned registry/session lock.
    pub fn session_add_deps(&self, id: &str, tds: &[Td]) -> Result<usize> {
        let session = self.session(id)?;
        let mut inner = session
            .inner
            .lock()
            .map_err(|_| RedError::Poisoned("session state"))?;
        for td in tds {
            Self::session_schema(&mut inner, id, td.schema())?;
            let clash = inner.deps.iter().any(|(n, _)| n == td.name())
                || tds.iter().filter(|t| t.name() == td.name()).count() > 1;
            if clash {
                return Err(RedError::Session(format!(
                    "session `{id}` already has a dependency named `{}`",
                    td.name()
                )));
            }
        }
        for td in tds {
            inner.deps.push((td.name().to_owned(), td.clone()));
        }
        inner
            .verdicts
            .retain(|_, v| matches!(v, SessionVerdict::Implied { .. }));
        Ok(inner.deps.len())
    }

    /// Removes a dependency by name, returning the new Σ size. Cached
    /// `Implied` verdicts are dropped (their proofs may lean on the
    /// removed premise) and every suspended chase is discarded — derived
    /// rows cannot be retracted, so the next ask re-chases from scratch.
    /// `NotImplied` verdicts survive: a countermodel of a set still
    /// satisfies every subset.
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::Session`] for an unknown session or
    /// dependency name, and with [`RedError::Poisoned`] on a poisoned
    /// registry/session lock.
    pub fn session_remove_dep(&self, id: &str, name: &str) -> Result<usize> {
        let session = self.session(id)?;
        let mut inner = session
            .inner
            .lock()
            .map_err(|_| RedError::Poisoned("session state"))?;
        let Some(pos) = inner.deps.iter().position(|(n, _)| n == name) else {
            return Err(RedError::Session(format!(
                "session `{id}` has no dependency named `{name}`"
            )));
        };
        inner.deps.remove(pos);
        inner.chases.clear();
        inner
            .verdicts
            .retain(|_, v| matches!(v, SessionVerdict::NotImplied { .. }));
        Ok(inner.deps.len())
    }

    /// Asks `Σ ⊨ goal?` on a session's current Σ. Returns the verdict and
    /// whether it came from the session's verdict cache.
    ///
    /// A cold goal freezes its tableau and chases from scratch; a goal
    /// whose chase was suspended (by an earlier budget-bounded `Unknown`,
    /// or by Σ growing since) *resumes* it, redoing only the delta. The
    /// per-ask chase budget is an **increment** over the suspended state's
    /// spent counters, so every retry makes progress instead of re-hitting
    /// the same wall. Runs under a minted [`Ticket`]: shutdown cancels
    /// in-flight asks, which then report `Unknown` (never cached, and the
    /// partial state is kept for a later resume).
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::Session`] for an unknown session, with
    /// [`RedError::ShutDown`] after [`Engine::shutdown`], with
    /// [`RedError::Poisoned`] on a poisoned registry/session lock, and
    /// propagates freeze/chase errors.
    pub fn session_ask(&self, id: &str, goal: &Td) -> Result<(SessionVerdict, bool)> {
        let session = self.session(id)?;
        let ticket = self.mint(None)?;
        let mut inner = session
            .inner
            .lock()
            .map_err(|_| RedError::Poisoned("session state"))?;
        Self::session_schema(&mut inner, id, goal.schema())?;

        let key = canon_key(goal);
        if let Some(v) = inner.verdicts.get(&key) {
            return Ok((*v, true));
        }

        let mut chase = match inner.chases.remove(&key) {
            Some(chase) => chase,
            None => {
                let (frozen, _, goal_pattern) = freeze(goal)?;
                GoalChase {
                    state: ChaseState::new(frozen),
                    goal: goal_pattern,
                }
            }
        };
        let tds: Vec<Td> = inner.deps.iter().map(|(_, td)| td.clone()).collect();
        let base = self.policy.base().chase;
        let budget = ChaseBudget {
            max_steps: chase.state.steps_fired().saturating_add(base.max_steps),
            max_rows: chase.state.rows().saturating_add(base.max_rows),
            max_rounds: chase.state.rounds_run().saturating_add(base.max_rounds),
        };
        // td-lint: allow(lock-discipline) asks within one session are serialized by design: the
        // per-session lock (not the registry lock) is held across the chase so Σ cannot change
        // under a running ask, and shutdown still unblocks it via ticket cancellation polled
        // inside the chase loop.
        let mut engine = ChaseEngine::resume(&tds, chase.state, ChasePolicy::Restricted, budget)?
            .with_strategy(self.opts.strategy)
            .with_cancellation(ticket.cancellation());
        let outcome = engine.run(Some(&chase.goal));
        let verdict = match outcome {
            ChaseOutcome::GoalReached => SessionVerdict::Implied {
                chase_steps: engine.steps_fired(),
            },
            ChaseOutcome::Terminated => SessionVerdict::NotImplied {
                model_rows: engine.state().len(),
            },
            ChaseOutcome::BudgetExhausted => SessionVerdict::Unknown {
                chase_steps: engine.steps_fired(),
                state_rows: engine.state().len(),
            },
        };
        chase.state = engine.suspend();
        chase.state.shrink_to_fit();
        inner.chases.insert(key, chase);
        if !matches!(verdict, SessionVerdict::Unknown { .. }) {
            inner.verdicts.insert(key, verdict);
        }
        Ok((verdict, false))
    }

    /// A snapshot of the session registry's accounting.
    pub fn session_stats(&self) -> SessionStats {
        // Stats must stay available for observability even after a panic
        // poisoned the registry; the counters are plain integers, so a
        // recovered read is always coherent.
        let reg = self
            .sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        SessionStats {
            open: reg.map.len(),
            opened: reg.opened,
            evictions: reg.evictions,
        }
    }

    /// Redundancy analysis for a dependency set (the `tdq deps` question):
    /// for each `dᵢ ∈ tds`, does the rest of the set already imply it?
    /// Runs under the engine's chase budget and match strategy; counts as
    /// one request. TD-set analyses are not keyed into the decision cache
    /// (different object space from word-problem instances).
    ///
    /// # Errors
    ///
    /// Fails with [`RedError::ShutDown`] after [`Engine::shutdown`], and
    /// propagates inference-engine errors from the per-TD implication
    /// checks.
    pub fn redundancy(&self, tds: &[Td]) -> Result<Vec<InferenceVerdict>> {
        self.counters.requests.add(1);
        let mut verdicts = Vec::with_capacity(tds.len());
        for i in 0..tds.len() {
            verdicts.push(inference::redundant_with(
                tds,
                i,
                self.policy.base().chase,
                self.opts.strategy,
            )?);
        }
        Ok(verdicts)
    }
}

/// The cacheable form of a settled run, or `None` for `Unknown` (which is
/// a statement about this call's budgets, never cached).
fn settle(run: &PipelineRun) -> Option<CachedOutcome> {
    let verdict = match compress(run) {
        BatchVerdict::Implied {
            derivation_steps,
            proof_firings,
        } => CachedVerdict::Implied {
            derivation_steps,
            proof_firings,
        },
        BatchVerdict::Refuted { model_rows } => CachedVerdict::Refuted { model_rows },
        BatchVerdict::Unknown { .. } => return None,
    };
    Some(CachedOutcome {
        verdict,
        spend: run.spend,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use td_semigroup::alphabet::Alphabet;
    use td_semigroup::equation::Equation;

    fn derivable() -> Presentation {
        let alphabet = Alphabet::standard(2);
        let eqs = vec![
            Equation::parse("A1 A1 = A0", &alphabet).unwrap(),
            Equation::parse("A1 A1 = 0", &alphabet).unwrap(),
        ];
        Presentation::new(alphabet, eqs).unwrap()
    }

    fn derivable_renamed() -> Presentation {
        let alphabet = Alphabet::new(["start", "gen", "zip"], "start", "zip").unwrap();
        let eqs = vec![
            Equation::parse("gen gen = zip", &alphabet).unwrap(),
            Equation::parse("gen gen = start", &alphabet).unwrap(),
        ];
        Presentation::new(alphabet, eqs).unwrap()
    }

    fn refutable() -> Presentation {
        Presentation::new(Alphabet::standard(1), vec![]).unwrap()
    }

    #[test]
    fn decide_solves_then_hits() {
        let engine = Engine::new();
        let first = engine.decide(&derivable()).unwrap();
        assert!(!first.cached);
        assert!(matches!(first.verdict, BatchVerdict::Implied { .. }));

        // The renamed, reordered copy is answered from the cache, same
        // verdict and spend provenance. A hit neither normalizes nor
        // reduces: every phase but the total is zero.
        let second = engine.decide(&derivable_renamed()).unwrap();
        assert!(second.cached);
        assert_eq!(second.key, first.key);
        assert_eq!(second.verdict, first.verdict);
        assert_eq!(second.spend, first.spend);
        let t = second.timings;
        assert!(t.total > std::time::Duration::ZERO);
        assert_eq!(
            PhaseTimings {
                total: t.total,
                ..PhaseTimings::default()
            },
            t,
            "only the total is timed on a hit"
        );

        let stats = engine.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.keys_cached, 1);
        assert_eq!(stats.evictions, 0);
        assert!(stats.derivation_states > 0, "winner spend is charged");
    }

    #[test]
    fn rejected_presentations_are_not_requests() {
        // Normalization and reduction accept every valid presentation, so
        // the requests that fail here are ones a shut-down engine refuses.
        // The batch errors on its uncached item and counts none of its
        // items, not even the one the cache could answer; a decide of the
        // uncached item counts nothing either.
        let engine = Engine::new();
        engine.decide(&derivable()).unwrap();
        engine.shutdown();
        assert!(engine
            .solve_batch(&[derivable_renamed(), refutable()])
            .is_err());
        assert!(engine.decide(&refutable()).is_err());
        let stats = engine.stats();
        assert_eq!((stats.requests, stats.cache_hits), (1, 0));
    }

    #[test]
    fn run_full_counts_but_does_not_cache() {
        let engine = Engine::new();
        let run = engine.run_full(&derivable()).unwrap();
        assert!(run.outcome.is_implied());
        let stats = engine.stats();
        assert_eq!((stats.requests, stats.solved), (1, 1));
        assert_eq!(stats.keys_cached, 0, "full runs bypass the cache");
    }

    #[test]
    fn batch_routes_through_engine_stats() {
        let engine = Engine::new();
        let items = vec![derivable(), refutable(), derivable_renamed()];
        let run = engine.solve_batch(&items).unwrap();
        assert_eq!(run.stats.total, 3);
        assert_eq!(run.stats.solved, 2);
        let stats = engine.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.solved, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.keys_cached, 2);

        // A decide after the batch is warm.
        let d = engine.decide(&refutable()).unwrap();
        assert!(d.cached, "cache is shared across entry points");
        assert_eq!(engine.stats().cache_hits, 2);
    }

    #[test]
    fn snapshot_warm_start_answers_without_solving() {
        // Warm one engine the expensive way, snapshot it, and start a
        // fresh engine from the image: the replay is all cache hits.
        let cold = Engine::new();
        cold.decide(&derivable()).unwrap();
        cold.decide(&refutable()).unwrap();
        let image = cold.save_snapshot();

        let warm = Engine::new();
        let stats = warm.load_snapshot(&image).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                keys_loaded: 2,
                keys_skipped_version: 0
            }
        );
        assert_eq!(warm.stats().keys_cached, 2);

        for p in [derivable(), derivable_renamed(), refutable()] {
            let d = warm.decide(&p).unwrap();
            assert!(d.cached, "warm-started engine answers from the cache");
        }
        assert_eq!(warm.stats().solved, 0, "no solver run after warm start");
        assert_eq!(warm.stats().cache_hits, 3);

        // Same-verdict provenance survives the round trip.
        assert_eq!(
            warm.decide(&derivable()).unwrap().spend,
            cold.decide(&derivable()).unwrap().spend
        );
    }

    #[test]
    fn snapshot_from_a_bumped_canon_scheme_is_rejected_on_load() {
        // Pin the compatibility gate: a snapshot stamped with a different
        // canon-scheme version loads zero keys — its CanonKeys were minted
        // under a different keying scheme and must not be trusted.
        let cold = Engine::new();
        cold.decide(&derivable()).unwrap();
        let foreign = crate::snapshot::encode_with_canon_version(
            &cold.cache().export(),
            CANON_SCHEME_VERSION + 1,
        );

        let warm = Engine::new();
        let stats = warm.load_snapshot(&foreign).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                keys_loaded: 0,
                keys_skipped_version: 1
            }
        );
        assert!(warm.cache().is_empty(), "nothing from the foreign scheme");
        assert!(!warm.decide(&derivable()).unwrap().cached, "still cold");
    }

    #[test]
    fn corrupt_snapshot_is_a_positioned_error_and_loads_nothing() {
        let cold = Engine::new();
        cold.decide(&derivable()).unwrap();
        let mut image = cold.save_snapshot();
        let n = image.len();
        image[n / 2] ^= 0x10;

        let warm = Engine::new();
        let err = warm.load_snapshot(&image).unwrap_err();
        match err {
            RedError::Snapshot(ref s) => assert!(s.offset <= n, "positioned"),
            ref other => panic!("expected Snapshot error, got {other:?}"),
        }
        assert!(err.to_string().contains("snapshot byte"));
        assert!(warm.cache().is_empty(), "never partially loaded");
    }

    #[test]
    fn snapshot_load_respects_the_capacity_bound() {
        let big = Engine::new();
        big.decide(&derivable()).unwrap();
        big.decide(&refutable()).unwrap();
        let image = big.save_snapshot();

        let tiny = Engine::with_config(EngineConfig {
            cache_shards: 1,
            cache_cap: 1,
            ..EngineConfig::default()
        });
        let stats = tiny.load_snapshot(&image).unwrap();
        assert_eq!(stats.keys_loaded, 2, "both entries pass through insert");
        assert_eq!(tiny.cache().len(), 1, "FIFO bound holds during load");
        assert_eq!(tiny.cache().evictions(), 1);
    }

    /// Regression: a pre-warmed cache entry evicted *during* a batch (by
    /// the batch's own inserts on a tiny cache, or by any concurrent
    /// writer on a shared engine) must not break the fan-out — the hit is
    /// pinned at lookup time, not re-read from the cache at the end.
    #[test]
    fn prewarmed_entry_evicted_mid_batch_still_answers() {
        let engine = Engine::with_config(EngineConfig {
            cache_shards: 1,
            cache_cap: 1,
            ..EngineConfig::default()
        });
        let warm = engine.decide(&derivable()).unwrap();
        assert_eq!(engine.cache().len(), 1);

        // The batch pins `derivable` from the cache in its dedup phase,
        // then solving `refutable` evicts it before fan-out.
        let run = engine.solve_batch(&[derivable(), refutable()]).unwrap();
        assert_eq!(
            run.verdicts[0], warm.verdict,
            "pinned hit survives eviction"
        );
        assert!(matches!(run.verdicts[1], BatchVerdict::Refuted { .. }));
        assert_eq!(run.stats.solved, 1, "only the cold class ran the solver");
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.evictions, 1, "the warm entry was evicted");
        assert_eq!(engine.stats().evictions, 1);
        assert_eq!(engine.cache().len(), 1, "capacity is still enforced");
    }

    #[test]
    fn budget_overrides_clamp_to_policy() {
        let policy = BudgetPolicy::new(Budgets::default());
        let base = *policy.base();
        let minted = policy.mint(Some(RequestBudget {
            derivation_states: Some(7),
            model_nodes: Some(u64::MAX),
        }));
        assert_eq!(minted.derivation.max_states, 7, "shrinking is honored");
        assert_eq!(
            minted.model.max_nodes, base.model.max_nodes,
            "growing clamps to the policy cap"
        );
        assert_eq!(policy.mint(None), base);
    }

    #[test]
    fn shutdown_refuses_new_work_and_cancels_inflight_tokens() {
        let engine = Engine::new();
        engine.decide(&derivable()).unwrap();
        let ticket = engine.mint(None).unwrap();
        assert!(!ticket.cancellation().is_cancelled());
        engine.shutdown();
        assert!(engine.is_shut_down());
        assert!(
            ticket.cancellation().is_cancelled(),
            "shutdown reaches live tickets"
        );
        assert!(matches!(engine.mint(None), Err(RedError::ShutDown)));
        assert!(matches!(
            engine.decide(&refutable()),
            Err(RedError::ShutDown)
        ));
        // But the cache still answers reads (diagnostics after drain).
        assert_eq!(engine.cache().len(), 1);
        engine.shutdown(); // idempotent
    }

    #[test]
    fn decide_after_shutdown_still_serves_cached_verdicts() {
        // Shutdown stops *solving*, and decide() for an uncached key fails
        // with ShutDown; an already-settled key, however, errors too only
        // at mint time — the cache read happens first, so warm keys still
        // answer. This is deliberate: drain logic can keep replying to
        // known answers while refusing new work.
        let engine = Engine::new();
        engine.decide(&derivable()).unwrap();
        engine.shutdown();
        let d = engine.decide(&derivable_renamed()).unwrap();
        assert!(d.cached);
    }

    // ---- session tests -------------------------------------------------

    fn rel_schema() -> Schema {
        Schema::new("R", ["A", "B"]).unwrap()
    }

    fn build_td(name: &str, antecedents: &[[&str; 2]], conclusion: [&str; 2]) -> Td {
        let mut b = td_core::td::TdBuilder::new(rel_schema());
        for row in antecedents {
            b = b.antecedent(*row).unwrap();
        }
        b.conclusion(conclusion).unwrap().build(name).unwrap()
    }

    /// The full product TD `R(a,b) & R(a',b') -> R(a,b')` — strong: its
    /// closure is the active-domain product, so it implies every full TD
    /// over this schema.
    fn prod() -> Td {
        build_td("prod", &[["a", "b"], ["a'", "b'"]], ["a", "b'"])
    }

    /// Pseudo-transitivity `R(a,b) & R(a',b) & R(a',b') -> R(a,b')` —
    /// weak: only closes connected components, does *not* imply `prod`.
    fn pt() -> Td {
        build_td("pt", &[["a", "b"], ["a'", "b"], ["a'", "b'"]], ["a", "b'"])
    }

    /// A goal isomorphic to `prod` (different name; the session keys goals
    /// by canonical form, so the name must not matter).
    fn prod_goal() -> Td {
        build_td("goal", &[["x", "y"], ["x'", "y'"]], ["x", "y'"])
    }

    #[test]
    fn session_lifecycle_monotone_invalidation() {
        let engine = Engine::new();
        engine.session_open("s").unwrap();
        let goal = prod_goal();

        // Empty Σ: the frozen two-row tableau is already a fixpoint.
        let (v, cached) = engine.session_ask("s", &goal).unwrap();
        assert_eq!(v, SessionVerdict::NotImplied { model_rows: 2 });
        assert!(!cached);
        let (v2, cached) = engine.session_ask("s", &goal).unwrap();
        assert_eq!(v2, v);
        assert!(cached, "settled verdicts are cached per session");

        // Adding the weak TD invalidates NotImplied, and the re-ask (a
        // resumed chase) still refutes: pt cannot bridge the components.
        assert_eq!(engine.session_add_deps("s", &[pt()]).unwrap(), 1);
        let (v, cached) = engine.session_ask("s", &goal).unwrap();
        assert_eq!(v, SessionVerdict::NotImplied { model_rows: 2 });
        assert!(!cached, "add_dep drops NotImplied verdicts");

        // Adding prod flips the verdict; the suspended chase is resumed,
        // not restarted, and the goal is found.
        assert_eq!(engine.session_add_deps("s", &[prod()]).unwrap(), 2);
        let (v, cached) = engine.session_ask("s", &goal).unwrap();
        assert!(matches!(v, SessionVerdict::Implied { .. }), "{v:?}");
        assert!(!cached);
        let (_, cached) = engine.session_ask("s", &goal).unwrap();
        assert!(cached, "Implied verdicts cache until Σ shrinks");

        // Removal drops Implied and re-chases from scratch.
        assert_eq!(engine.session_remove_dep("s", "prod").unwrap(), 1);
        let (v, cached) = engine.session_ask("s", &goal).unwrap();
        assert_eq!(v, SessionVerdict::NotImplied { model_rows: 2 });
        assert!(!cached, "remove_dep drops Implied verdicts");

        // Every verdict above agrees with the from-scratch oracle.
        let oracle =
            inference::implies(&[pt()], &goal, td_core::chase::ChaseBudget::default()).unwrap();
        assert!(matches!(oracle, InferenceVerdict::NotImplied(_)));

        engine.session_close("s").unwrap();
        assert!(matches!(
            engine.session_ask("s", &goal),
            Err(RedError::Session(_))
        ));
    }

    #[test]
    fn session_errors_are_structured() {
        let engine = Engine::new();
        engine.session_open("s").unwrap();
        assert!(matches!(
            engine.session_open("s"),
            Err(RedError::Session(_))
        ));
        assert!(matches!(
            engine.session_close("nope"),
            Err(RedError::Session(_))
        ));
        assert!(matches!(
            engine.session_add_deps("nope", &[prod()]),
            Err(RedError::Session(_))
        ));
        assert!(matches!(
            engine.session_remove_dep("s", "prod"),
            Err(RedError::Session(_))
        ));
        // Duplicate names: within one call, and against resident deps.
        assert!(matches!(
            engine.session_add_deps("s", &[prod(), prod()]),
            Err(RedError::Session(_))
        ));
        engine.session_add_deps("s", &[prod()]).unwrap();
        assert!(matches!(
            engine.session_add_deps("s", &[prod()]),
            Err(RedError::Session(_))
        ));
        // The rejected double-add must not have mutated Σ.
        assert_eq!(engine.session_remove_dep("s", "prod").unwrap(), 0);

        // Schema is fixed by the first dependency.
        engine.session_add_deps("s", &[prod()]).unwrap();
        let other = td_core::td::TdBuilder::new(Schema::new("S", ["X"]).unwrap())
            .antecedent(["x"])
            .unwrap()
            .conclusion(["x"])
            .unwrap()
            .build("other")
            .unwrap();
        assert!(matches!(
            engine.session_add_deps("s", std::slice::from_ref(&other)),
            Err(RedError::Session(_))
        ));
        assert!(matches!(
            engine.session_ask("s", &other),
            Err(RedError::Session(_))
        ));

        // Shutdown refuses session work too.
        engine.shutdown();
        assert!(matches!(engine.session_open("t"), Err(RedError::ShutDown)));
        assert!(matches!(
            engine.session_ask("s", &prod_goal()),
            Err(RedError::ShutDown)
        ));
    }

    #[test]
    fn session_registry_is_bounded_with_lru_eviction() {
        let engine = Engine::with_config(EngineConfig {
            max_sessions: 2,
            ..EngineConfig::default()
        });
        engine.session_open("a").unwrap();
        engine.session_open("b").unwrap();
        // Touch `a` so `b` becomes the least recently used…
        engine.session_add_deps("a", &[prod()]).unwrap();
        // …and the third open evicts `b`, not `a`.
        engine.session_open("c").unwrap();
        assert!(matches!(
            engine.session_add_deps("b", &[prod()]),
            Err(RedError::Session(_))
        ));
        assert_eq!(engine.session_remove_dep("a", "prod").unwrap(), 0);

        let stats = engine.session_stats();
        assert_eq!(stats.open, 2);
        assert_eq!(stats.opened, 3);
        assert_eq!(stats.evictions, 1);

        // A close is not an eviction.
        engine.session_close("c").unwrap();
        assert_eq!(engine.session_stats().open, 1);
        assert_eq!(engine.session_stats().evictions, 1);
    }

    #[test]
    fn session_ask_budget_is_an_increment_so_retries_progress() {
        // One fired step per ask: the goal needs several, so the session
        // answers Unknown a few times — each ask resuming exactly where
        // the last stopped — before settling, instead of re-hitting the
        // same wall forever (what an absolute budget would do).
        let budgets = Budgets {
            chase: td_core::chase::ChaseBudget {
                max_steps: 1,
                max_rows: 10_000,
                max_rounds: 10_000,
            },
            ..Budgets::default()
        };
        let engine = Engine::with_config(EngineConfig {
            budgets,
            ..EngineConfig::default()
        });
        engine.session_open("s").unwrap();
        engine.session_add_deps("s", &[prod()]).unwrap();
        // Three disconnected rows; reaching goal pattern (x, y'') takes
        // more than one product firing.
        let goal = build_td(
            "wide",
            &[["x", "y"], ["x'", "y'"], ["x''", "y''"]],
            ["x", "y''"],
        );

        let (first, _) = engine.session_ask("s", &goal).unwrap();
        assert!(
            matches!(first, SessionVerdict::Unknown { .. }),
            "one step cannot settle this goal: {first:?}"
        );
        let mut asks = 1;
        let verdict = loop {
            let (v, cached) = engine.session_ask("s", &goal).unwrap();
            asks += 1;
            assert!(asks < 20, "increments must make progress");
            if let SessionVerdict::Unknown { chase_steps, .. } = v {
                assert!(!cached, "Unknown is never cached");
                assert!(chase_steps >= asks - 1, "each ask fires its step");
                continue;
            }
            break (v, cached);
        };
        assert!(
            matches!(verdict.0, SessionVerdict::Implied { .. }),
            "{verdict:?}"
        );
        // The closure of prod over 3 rows needs at most 6 firings.
        if let SessionVerdict::Implied { chase_steps } = verdict.0 {
            assert!(chase_steps <= 6, "resume never redoes fired steps");
        }
    }

    #[test]
    fn tight_engine_budgets_give_unknown_and_do_not_cache() {
        let alphabet = Alphabet::standard(2);
        let grow = Equation::parse("A0 A1 = A0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![grow]).unwrap();
        let tight = Budgets {
            derivation: td_semigroup::derivation::SearchBudget {
                max_word_len: 6,
                max_states: 50,
            },
            model: td_semigroup::model_search::ModelSearchOptions {
                min_size: 3,
                max_size: 3,
                max_nodes: 5,
            },
            chase: td_core::chase::ChaseBudget::default(),
        };
        let engine = Engine::with_config(EngineConfig {
            budgets: tight,
            ..EngineConfig::default()
        });
        let first = engine.decide(&p).unwrap();
        assert!(matches!(first.verdict, BatchVerdict::Unknown { .. }));
        let second = engine.decide(&p).unwrap();
        assert!(!second.cached, "Unknown is never cached");
        assert_eq!(engine.stats().solved, 2);
    }
}
