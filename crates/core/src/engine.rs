//! Concurrent round engines.
//!
//! Both engines realize the same stochastic process — every player
//! independently samples and decides per the protocol, all migrations apply
//! simultaneously — but with different cost profiles:
//!
//! * [`EngineKind::PlayerLevel`] iterates players one by one (`O(n)` per
//!   round with a sequential stream). It mirrors a naive implementation and
//!   serves as ground truth. With an addressed stream (counter mode, see
//!   [`DrawRng::is_addressed`]) it draws only players whose origin has a
//!   reachable destination with `μ > 0`, which near a stable state is a
//!   small fraction of `n`; the skipped players would not have moved, and
//!   no other player's draws depend on them, so the trajectory is
//!   bit-identical to the full walk.
//! * [`EngineKind::Aggregate`] exploits anonymity: players on the same
//!   origin strategy face identical probabilities, so the joint outcome per
//!   origin is a multinomial over destinations, sampled in `O(S²)` per round
//!   regardless of `n`.
//!
//! Statistical equivalence of the two engines is asserted in the crate's
//! tests and in the integration suite.

use congames_model::{
    potential, potential_delta_for_load_change, CongestionGame, GameError, GameParams, Migration,
    ResourceId, State, StrategyId,
};
use congames_sampling::{multinomial_with_rest_into, DrawRng};

use crate::driver::{RoundState, RunDriver};
use crate::error::DynamicsError;
use crate::expectation::PairFlow;
use crate::hook::RoundHook;
use crate::observe::Observer;
use crate::protocol::{ExplorationProtocol, ImitationProtocol, Protocol, SelfSampling};
use crate::stopping::{RunOutcome, RunSummary, StopSpec};
use crate::trajectory::{RecordConfig, Trajectory};

/// Which round engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Multinomial sampling per origin strategy; `O(S²)` per round.
    #[default]
    Aggregate,
    /// Explicit per-player iteration; `O(n)` per round with a sequential
    /// stream, only the players who can move with an addressed one. Ground
    /// truth.
    PlayerLevel,
}

/// Statistics of one executed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Players that migrated.
    pub migrations: u64,
    /// Realized potential change `ΔΦ`.
    pub delta_potential: f64,
}

/// Flat CSR-style buffer of the positive-probability `(from, to)` pairs of
/// one round, grouped by origin: origin `j` owns the pair slice
/// `offsets[j]..offsets[j+1]` of `pair_to`/`pair_prob`.
///
/// Reused across rounds so the aggregate kernel performs no steady-state
/// heap allocations.
/// The `Default` value has an *empty* `offsets` vector — allocation-free,
/// so `mem::take` stays free in the per-round engine loop — and therefore
/// does **not** yet satisfy the CSR invariant; call [`PairBuffer::clear`]
/// once before the first `push`.
#[derive(Debug, Default)]
pub(crate) struct PairBuffer {
    pub(crate) origins: Vec<StrategyId>,
    /// `origins.len() + 1` offsets into `pair_to`/`pair_prob`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) pair_to: Vec<StrategyId>,
    pub(crate) pair_prob: Vec<f64>,
}

impl PairBuffer {
    pub(crate) fn clear(&mut self) {
        self.origins.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.pair_to.clear();
        self.pair_prob.clear();
    }

    /// Append one pair; `for_each_pair` visits origins contiguously, so a
    /// new origin group starts exactly when `from` changes.
    pub(crate) fn push(&mut self, from: StrategyId, to: StrategyId, prob: f64) {
        if self.origins.last() != Some(&from) {
            self.offsets.push(self.pair_to.len());
            self.origins.push(from);
        }
        self.pair_to.push(to);
        self.pair_prob.push(prob);
        *self.offsets.last_mut().expect("offsets is never empty") = self.pair_to.len();
    }
}

/// Counters of the player-level kernel's μ-memo **LRU row tier** (see
/// [`Simulation::with_mu_memo_capacity`] for the tier split). Classes
/// whose full dense table fits the slot budget use the counter-free dense
/// path and leave these at zero; classes above the budget — which
/// previously skipped memoization outright — account every lookup here.
///
/// All counters accumulate over the simulation's lifetime; they are
/// diagnostics only and never influence the dynamics (memoized μ values
/// are bit-identical to recomputation by construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuMemoStats {
    /// Memoized μ values served without recomputation.
    pub slot_hits: u64,
    /// μ values computed (and stored in the looked-up row).
    pub slot_misses: u64,
    /// Origin-row lookups that found the origin's row already assigned.
    pub row_hits: u64,
    /// Fresh origin-row assignments (one per distinct origin per class
    /// visit, as long as the pool has free rows).
    pub row_allocs: u64,
    /// Least-recently-used rows reassigned to a different origin because
    /// the pool was full.
    pub evictions: u64,
}

/// Two-tier μ memo for the player-level kernel.
///
/// * **Dense tier** — classes whose full table (`2·S_c²` slots, indexed
///   `(from_local·S_c + to_local)·2 + is_explore`) fits the slot budget:
///   one stamp compare per lookup, no bookkeeping. This is the common
///   case and costs exactly what the pre-LRU dense memo did.
/// * **LRU row tier** — classes above the budget (network games with
///   thousands of paths) get one *row* per origin strategy actually
///   visited, holding that origin's `2·S_c` destination slots. Origins
///   are always in the support (players sit on them), so a near-converged
///   round touches `support_c` rows, not `S_c`; the pool is bounded by
///   `capacity / (2·S_c)` rows managed least-recently-used. Such classes
///   previously skipped memoization entirely.
///
/// Freshness is stamp-based so nothing is ever cleared: class visits and
/// row assignments draw from one monotone counter, and a slot is fresh
/// iff it carries the stamp of the current visit (dense) or of its row's
/// current assignment (rows). Stamps are globally unique, so a stale
/// entry — even one written by the other tier — can never false-hit.
/// Memoization is invisible to the dynamics: μ is a pure function of the
/// pre-round state, so hit/miss/eviction patterns cannot change a single
/// bit of the trajectory.
#[derive(Debug)]
struct MuTable {
    /// `(stamp, μ)` per slot — fused so a hit costs one cache line. Grown
    /// lazily (full table for dense classes, row by row for LRU classes),
    /// so small supports in huge classes never touch the full budget.
    slots: Vec<(u64, f64)>,
    /// Monotone stamp source shared by class visits and row assignments.
    next_stamp: u64,
    /// Stamp of the current class visit.
    current: u64,
    /// Whether the current class uses the dense tier.
    dense: bool,
    /// `(visit stamp, row)` per origin local id; valid iff the stamp is
    /// the current visit's.
    row_of: Vec<(u64, u32)>,
    /// Owning origin local id per pooled row.
    row_origin: Vec<u32>,
    /// Current assignment stamp per pooled row.
    row_tag: Vec<u64>,
    /// Intrusive LRU list over the rows claimed this visit.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Rows of the pool claimed this visit.
    rows_in_use: u32,
    /// Slots per row (`2·S_c`), set by [`MuTable::begin`].
    row_len: usize,
    /// Row-pool bound for the current class, set by [`MuTable::begin`].
    max_rows: usize,
    /// Slot budget (default [`MU_TABLE_MAX`]; see
    /// [`Simulation::with_mu_memo_capacity`]).
    capacity: usize,
    stats: MuMemoStats,
}

/// Sentinel for "no row" in the LRU links.
const NO_ROW: u32 = u32::MAX;

/// Default μ-memo slot budget: 2²¹ slots ≈ 32 MiB of `(stamp, μ)` pairs.
const MU_TABLE_MAX: usize = 1 << 21;

impl Default for MuTable {
    fn default() -> Self {
        MuTable {
            slots: Vec::new(),
            next_stamp: 0,
            current: 0,
            dense: false,
            row_of: Vec::new(),
            row_origin: Vec::new(),
            row_tag: Vec::new(),
            lru_prev: Vec::new(),
            lru_next: Vec::new(),
            head: NO_ROW,
            tail: NO_ROW,
            rows_in_use: 0,
            row_len: 0,
            max_rows: 0,
            capacity: MU_TABLE_MAX,
            stats: MuMemoStats::default(),
        }
    }
}

impl MuTable {
    /// Start a new class visit for a class with `s_c` strategies, picking
    /// the tier. Returns `false` if not even one origin row fits the slot
    /// budget (memoization disabled; recomputing μ stays cheap thanks to
    /// the state's latency cache).
    fn begin(&mut self, s_c: usize) -> bool {
        self.next_stamp += 1;
        self.current = self.next_stamp;
        let dense_slots = s_c.saturating_mul(s_c).saturating_mul(2);
        if dense_slots <= self.capacity {
            self.dense = true;
            if self.slots.len() < dense_slots {
                self.slots.resize(dense_slots, (0, 0.0));
            }
            return true;
        }
        self.dense = false;
        self.rows_in_use = 0;
        self.head = NO_ROW;
        self.tail = NO_ROW;
        self.row_len = 2 * s_c;
        self.max_rows = self.capacity / self.row_len; // < s_c by the tier split
        if self.max_rows == 0 {
            return false;
        }
        if self.row_of.len() < s_c {
            // Stamp-0 entries never match (stamps start at 1).
            self.row_of.resize(s_c, (0, 0));
        }
        true
    }

    /// LRU tier: the row of origin `from_local`, claiming (or evicting)
    /// one if the origin has none this visit. Touches the row to
    /// most-recent.
    fn row_for(&mut self, from_local: usize) -> usize {
        let (stamp, r) = self.row_of[from_local];
        if stamp == self.current {
            self.stats.row_hits += 1;
            if self.head != r {
                self.unlink(r);
                self.push_front(r);
            }
            return r as usize;
        }
        let r = if (self.rows_in_use as usize) < self.max_rows {
            let r = self.rows_in_use;
            self.rows_in_use += 1;
            let ri = r as usize;
            if self.slots.len() < (ri + 1) * self.row_len {
                self.slots.resize((ri + 1) * self.row_len, (0, 0.0));
            }
            if self.row_origin.len() <= ri {
                self.row_origin.resize(ri + 1, 0);
                self.row_tag.resize(ri + 1, 0);
                self.lru_prev.resize(ri + 1, NO_ROW);
                self.lru_next.resize(ri + 1, NO_ROW);
            }
            self.stats.row_allocs += 1;
            r
        } else {
            // Pool full: reassign the least-recently-used row. Every
            // pooled row was claimed this visit, so its origin mapping is
            // current and must be orphaned.
            let r = self.tail;
            self.unlink(r);
            self.row_of[self.row_origin[r as usize] as usize] = (0, 0);
            self.stats.evictions += 1;
            r
        };
        self.next_stamp += 1;
        self.row_tag[r as usize] = self.next_stamp;
        self.row_origin[r as usize] = from_local as u32;
        self.row_of[from_local] = (self.current, r);
        self.push_front(r);
        r as usize
    }

    /// LRU tier: memoized μ of `(from_local, to_local, is_explore)`,
    /// computing and storing it on a miss. Kept out of line so the dense
    /// tier's hot loop stays small.
    #[inline(never)]
    fn row_mu(
        &mut self,
        from_local: usize,
        to_local: usize,
        is_explore: bool,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let row = self.row_for(from_local);
        let slot = row * self.row_len + to_local * 2 + is_explore as usize;
        let tag = self.row_tag[row];
        if self.slots[slot].0 == tag {
            self.stats.slot_hits += 1;
            self.slots[slot].1
        } else {
            self.stats.slot_misses += 1;
            let mu = compute();
            self.slots[slot] = (tag, mu);
            mu
        }
    }

    fn unlink(&mut self, r: u32) {
        let (p, n) = (self.lru_prev[r as usize], self.lru_next[r as usize]);
        if p == NO_ROW {
            self.head = n;
        } else {
            self.lru_next[p as usize] = n;
        }
        if n == NO_ROW {
            self.tail = p;
        } else {
            self.lru_prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, r: u32) {
        self.lru_prev[r as usize] = NO_ROW;
        self.lru_next[r as usize] = self.head;
        if self.head != NO_ROW {
            self.lru_prev[self.head as usize] = r;
        }
        self.head = r;
        if self.tail == NO_ROW {
            self.tail = r;
        }
    }
}

/// The simulation's game: borrowed for the common stationary case, owned
/// (a private clone) once a [`RoundHook`] needs mutable access. All reads
/// go through `Deref`, so the two cases share every code path.
#[derive(Debug)]
enum GameHandle<'g> {
    Borrowed(&'g CongestionGame),
    Owned(Box<CongestionGame>),
}

impl std::ops::Deref for GameHandle<'_> {
    type Target = CongestionGame;

    fn deref(&self) -> &CongestionGame {
        match self {
            GameHandle::Borrowed(g) => g,
            GameHandle::Owned(g) => g,
        }
    }
}

/// A run's start as [`Simulation::new`] prepares it: the validated state
/// with its latency cache and support index built, the protocol
/// parameters, the class offsets, the Rosenthal potential, and (for the
/// player-level engine only) the explicit player array.
///
/// Every part is a pure function of `(game, start)`, so a clone holds
/// exactly the bits a fresh preparation would compute. An
/// [`Ensemble`](crate::Ensemble) prepares its start once and begins every
/// trial, scalar or lane group, from that one preparation.
#[derive(Debug, Clone)]
pub(crate) struct PreparedStart {
    pub(crate) state: State,
    pub(crate) params: GameParams,
    class_offsets: Vec<usize>,
    pub(crate) potential: f64,
    players: Option<Vec<StrategyId>>,
}

impl PreparedStart {
    /// Validate `state` against `game` and `protocol`, then prepare it.
    ///
    /// # Errors
    ///
    /// Fails if the state does not belong to the game, or if the protocol's
    /// virtual-agent setting disagrees with the state's base loads.
    pub(crate) fn new(
        game: &CongestionGame,
        protocol: &Protocol,
        mut state: State,
    ) -> Result<Self, DynamicsError> {
        check_counts(game, state.counts())?;
        let wants_virtual = protocol.imitation().is_some_and(|p| p.virtual_agents());
        if wants_virtual != state.has_virtual_agents() {
            return Err(DynamicsError::InvalidParameter {
                name: "state",
                message:
                    "virtual-agent protocols require State::with_virtual_agents (and vice versa)",
            });
        }
        let params = game.params();
        let potential = potential(game, &state);
        state.ensure_latency_cache(game);
        state.ensure_support_index(game);
        Ok(PreparedStart {
            state,
            params,
            class_offsets: class_offsets(game),
            potential,
            players: None,
        })
    }

    /// Build the explicit player array if `engine` steps players one by
    /// one, and drop it otherwise.
    pub(crate) fn set_engine(&mut self, game: &CongestionGame, engine: EngineKind) {
        self.players =
            (engine == EngineKind::PlayerLevel).then(|| players_of(game, self.state.counts()));
    }
}

/// Check that `counts` has one entry per strategy of `game` and that every
/// class's entries sum to its population.
fn check_counts(game: &CongestionGame, counts: &[u64]) -> Result<(), DynamicsError> {
    if counts.len() != game.num_strategies() {
        return Err(GameError::WrongLength {
            expected: game.num_strategies(),
            found: counts.len(),
        }
        .into());
    }
    for (ci, class) in game.classes().iter().enumerate() {
        let sum: u64 = class.strategy_range().map(|s| counts[s as usize]).sum();
        if sum != class.players() {
            return Err(GameError::CountMismatch {
                class: ci,
                expected: class.players(),
                found: sum,
            }
            .into());
        }
    }
    Ok(())
}

/// Player-array offsets of the classes: class `c` owns
/// `offsets[c] .. offsets[c + 1]`.
fn class_offsets(game: &CongestionGame) -> Vec<usize> {
    let ends = game.classes().iter().scan(0, |off, c| {
        *off += c.players() as usize;
        Some(*off)
    });
    std::iter::once(0).chain(ends).collect()
}

/// The explicit player array of `counts`, grouped by class: each player's
/// strategy, in strategy order.
fn players_of(game: &CongestionGame, counts: &[u64]) -> Vec<StrategyId> {
    let mut players = Vec::with_capacity(game.total_players() as usize);
    for class in game.classes() {
        for sid in class.strategy_ids() {
            players.extend(std::iter::repeat(sid).take(counts[sid.index()] as usize));
        }
    }
    players
}

/// A running simulation: a game, a protocol, and the evolving state.
///
/// Both round kernels are *zero-steady-state-allocation*: all per-round
/// working memory (the CSR pair buffer, multinomial counts, the μ memo,
/// move/commit buffers, and the state's latency cache) lives in reusable
/// scratch owned by the simulation, so `step` touches the heap only while
/// buffers warm up to their high-water marks.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct Simulation<'g> {
    game: GameHandle<'g>,
    protocol: Protocol,
    /// Between-rounds mutation hook (nonstationary scenarios); `None` for
    /// the stationary fast path.
    hook: Option<Box<dyn RoundHook>>,
    params: GameParams,
    state: State,
    engine: EngineKind,
    record: RecordConfig,
    /// Explicit player array (player-level engine only), grouped by class:
    /// `players[class_offsets[c] .. class_offsets[c+1]]` are class `c`.
    players: Option<Vec<StrategyId>>,
    class_offsets: Vec<usize>,
    potential: f64,
    round: u64,
    /// Players that migrated in the most recent round (0 before any
    /// round), so a run resuming from a manually-stepped state can record
    /// its start round truthfully.
    last_migrations: u64,
    /// Scratch buffers reused across rounds.
    migrations_buf: Vec<Migration>,
    old_loads_buf: Vec<u64>,
    pairs_buf: PairBuffer,
    counts_buf: Vec<u64>,
    mu_table: MuTable,
    /// Per local strategy of the class being decided: whether a player on
    /// it can move this round (see [`Simulation::mark_movable_origins`]).
    movable_buf: Vec<bool>,
    moves_buf: Vec<(usize, StrategyId)>,
    commit_buf: Vec<(u32, u32)>,
}

impl<'g> Simulation<'g> {
    /// Create a simulation of `protocol` on `game` starting from `state`,
    /// with the default (aggregate) engine and no recording.
    ///
    /// # Errors
    ///
    /// Fails if the state does not belong to the game, or if the protocol's
    /// virtual-agent setting disagrees with the state's base loads.
    pub fn new(
        game: &'g CongestionGame,
        protocol: Protocol,
        state: State,
    ) -> Result<Self, DynamicsError> {
        let start = PreparedStart::new(game, &protocol, state)?;
        Ok(Self::from_prepared(game, protocol, start))
    }

    /// Start a simulation from an already prepared start, with the default
    /// (aggregate) engine and no recording. Nothing is validated or
    /// recomputed here: the caller supplies a `start` that
    /// [`PreparedStart::new`] prepared for this `game` and `protocol` (or a
    /// clone of one). A start prepared for another game breaks the
    /// simulation's invariants.
    pub(crate) fn from_prepared(
        game: &'g CongestionGame,
        protocol: Protocol,
        start: PreparedStart,
    ) -> Self {
        let PreparedStart { state, params, class_offsets, potential, players } = start;
        Simulation {
            game: GameHandle::Borrowed(game),
            protocol,
            hook: None,
            params,
            state,
            engine: EngineKind::Aggregate,
            record: RecordConfig::disabled(),
            players,
            class_offsets,
            potential,
            round: 0,
            last_migrations: 0,
            migrations_buf: Vec::new(),
            old_loads_buf: Vec::new(),
            pairs_buf: PairBuffer::default(),
            counts_buf: Vec::new(),
            mu_table: MuTable::default(),
            movable_buf: Vec::new(),
            moves_buf: Vec::new(),
            commit_buf: Vec::new(),
        }
    }

    /// Select the round engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        if engine == EngineKind::PlayerLevel {
            self.ensure_players();
        }
        self
    }

    /// Configure trajectory recording.
    pub fn with_recording(mut self, record: RecordConfig) -> Self {
        self.record = record;
        self
    }

    /// Attach a between-rounds mutation hook (see [`RoundHook`]).
    ///
    /// The game is cloned into the simulation so the hook can mutate it;
    /// the borrowed original is never touched. [`Simulation::run_observed`]
    /// polls the hook before every round and fires it when an event is
    /// due; manual [`Simulation::step`] calls never fire the hook (drive
    /// the schedule through a run, or fire it by hand).
    ///
    /// While the hook still reports a pending fire, equilibrium-type stop
    /// conditions (stability, approximate/Nash equilibrium, potential
    /// targets) are deferred — a pre-shock stable state is the recovery
    /// reference, not an outcome — and only
    /// [`StopCondition::MaxRounds`](crate::StopCondition::MaxRounds) can
    /// end the run. Once the schedule drains, all conditions rearm, so a
    /// shocked run naturally ends at its first post-schedule stable state.
    pub fn with_hook(mut self, hook: Box<dyn RoundHook>) -> Self {
        if let GameHandle::Borrowed(g) = self.game {
            self.game = GameHandle::Owned(Box::new(g.clone()));
        }
        self.hook = Some(hook);
        self
    }

    /// Bound the player-level kernel's μ memo to `slots` `(stamp, μ)`
    /// pairs (default 2²¹ ≈ 32 MiB; 16 bytes each). Classes whose dense
    /// table (`2·S_c²` slots) fits use it outright; larger classes fall
    /// back to `slots / (2·S_c)` LRU-managed origin rows; `0` disables
    /// memoization entirely. Purely a memory/speed trade-off —
    /// trajectories are bit-identical for every capacity.
    pub fn with_mu_memo_capacity(mut self, slots: usize) -> Self {
        self.mu_table.capacity = slots;
        self
    }

    /// Lifetime counters of the player-level kernel's μ memo (all zero
    /// until a [`EngineKind::PlayerLevel`] round runs). With an addressed
    /// stream (counter mode) they cover only the players the kernel drew
    /// — those on movable origins — so they are lower than a sequential
    /// stream's for the same trajectory.
    pub fn mu_memo_stats(&self) -> MuMemoStats {
        self.mu_table.stats
    }

    /// The game's protocol parameters (`d`, `ν`, `β`, `ℓ_min`).
    pub fn params(&self) -> &GameParams {
        &self.params
    }

    /// The current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The protocol driving the dynamics.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The current round index (number of executed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current Rosenthal potential (maintained incrementally).
    pub fn potential(&self) -> f64 {
        self.potential
    }

    fn ensure_players(&mut self) {
        if self.players.is_none() {
            self.players = Some(players_of(&self.game, self.state.counts()));
        }
    }

    /// Fire the attached hook if it has events due at (or before — a
    /// resumed run catches up) the current round. Returns whether the
    /// firing changed anything; `Ok(false)` without a hook costs one
    /// `Option` compare.
    fn fire_due_events(&mut self) -> Result<bool, DynamicsError> {
        let due = match self.hook.as_ref().and_then(|h| h.next_fire()) {
            Some(next) => next <= self.round,
            None => return Ok(false),
        };
        if !due {
            return Ok(false);
        }
        let round = self.round;
        let hook = self.hook.as_mut().expect("due implies a hook");
        let game = match &mut self.game {
            GameHandle::Owned(g) => g.as_mut(),
            GameHandle::Borrowed(_) => {
                return Err(DynamicsError::Hook {
                    message: "round hook attached to a borrowed game (attach via with_hook)"
                        .to_string(),
                });
            }
        };
        let changed = hook.fire(round, game, &mut self.state)?;
        if hook.next_fire().is_some_and(|next| next <= round) {
            return Err(DynamicsError::Hook {
                message: format!("hook did not advance past round {round} after firing"),
            });
        }
        if changed {
            self.after_game_change()?;
        }
        Ok(changed)
    }

    /// Rebuild everything derived from the game after a hook mutated it:
    /// protocol parameters (the population may have changed), class
    /// offsets, the explicit player array, the state's latency cache and
    /// support index, and the potential (recomputed from scratch, since
    /// incremental tracking across an arbitrary latency swap has no valid
    /// delta).
    ///
    /// Every firing pays the whole rebuild, and it grows with `n`:
    /// `GameParams::of` scans each resource without a closed-form
    /// `max_step` (`Scaled`, `FnLatency`) over loads `0..n` for β, and the
    /// potential sums every resource's load window. In a sweep with
    /// frequent shocks that is a visible share of the run, not noise.
    fn after_game_change(&mut self) -> Result<(), DynamicsError> {
        check_counts(&self.game, self.state.counts())?;
        self.params = self.game.params();
        self.class_offsets = class_offsets(&self.game);
        if self.players.is_some() {
            // Arrivals/departures invalidate the explicit player array;
            // rebuild it from the (deterministic) per-strategy counts.
            self.players = Some(players_of(&self.game, self.state.counts()));
        }
        self.state.invalidate_caches_for_game_change();
        self.state.ensure_latency_cache(&self.game);
        self.state.ensure_support_index(&self.game);
        self.potential = potential(&self.game, &self.state);
        Ok(())
    }

    /// Iterate all `(from, to)` pairs with positive migration probability in
    /// the *current* state, yielding the per-player probability (already
    /// combining imitation sampling, exploration sampling, and the mixture
    /// weight) and the anticipated latency gain.
    ///
    /// Origins iterate the state's per-class support index (players can
    /// only sit on occupied strategies), and pure-imitation rounds without
    /// virtual agents iterate occupied *destinations* too — support
    /// invariance makes every unoccupied destination unsampleable, so such
    /// rounds cost `O(Σ_c support_c²)` instead of `O(Σ_c S_c²)`. The index
    /// is sorted by strategy id, so the sparse walks visit exactly the
    /// pairs the dense scans would, in the same order (bit-identical pair
    /// streams). Exploration and virtual-agent rounds can target empty
    /// strategies and fall back to the dense destination scan; a state
    /// without a built index (never the case inside a [`Simulation`])
    /// falls back entirely.
    pub(crate) fn for_each_pair(&self, mut f: impl FnMut(StrategyId, StrategyId, f64, f64)) {
        let (explore_prob, imit, expl) = match &self.protocol {
            Protocol::Imitation(p) => (0.0, Some(p), None),
            Protocol::Exploration(p) => (1.0, None, Some(p)),
            Protocol::Combined { imitation, exploration, explore_prob } => {
                (*explore_prob, Some(imitation), Some(exploration))
            }
        };
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        for (ci, class) in self.game.classes().iter().enumerate() {
            let n_c = class.players();
            if n_c == 0 {
                continue;
            }
            let s_c = class.num_strategies();
            // Per-class constants of the imitation sampling weight.
            let imit_total = match imit.map(ImitationProtocol::self_sampling) {
                Some(SelfSampling::Exclude) => (n_c - 1) as f64,
                Some(SelfSampling::Include) => n_c as f64,
                None => 0.0,
            } + if virtual_agents { s_c as f64 } else { 0.0 };
            let imit_scale = if imit.is_some() && explore_prob < 1.0 && imit_total > 0.0 {
                (1.0 - explore_prob) / imit_total
            } else {
                0.0
            };
            let explore_scale = if expl.is_some() && explore_prob > 0.0 && s_c > 0 {
                explore_prob / s_c as f64
            } else {
                0.0
            };
            if imit_scale == 0.0 && explore_scale == 0.0 {
                continue;
            }
            let occ = self.state.occupied(&self.game, ci);
            // Only pure-imitation, non-virtual-agent rounds are confined to
            // the support on the destination side.
            let support_dest = explore_scale == 0.0 && !virtual_agents;
            let mut visit_origin = |from: StrategyId| {
                let l_from = self.state.strategy_latency(&self.game, from);
                let mut visit_dest = |to: StrategyId| {
                    let x_to = self.state.counts()[to.index()];
                    // Sampling weight of `to` before any latency is looked
                    // at; pairs nobody can sample are skipped outright.
                    let w = x_to as f64 + if virtual_agents { 1.0 } else { 0.0 };
                    let imit_w = if w > 0.0 { imit_scale * w } else { 0.0 };
                    if imit_w == 0.0 && explore_scale == 0.0 {
                        return;
                    }
                    let l_to = self.state.latency_after_move(&self.game, from, to);
                    let gain = l_from - l_to;
                    let mut prob = 0.0;
                    if imit_w > 0.0 {
                        let p = imit.expect("imit_w > 0 implies imitation component");
                        prob += imit_w * imitation_mu(p, &self.params, l_from, gain);
                    }
                    if explore_scale > 0.0 {
                        let p = expl.expect("explore_scale > 0 implies exploration component");
                        prob +=
                            explore_scale * exploration_mu(p, &self.params, l_from, gain, s_c, n_c);
                    }
                    if prob > 0.0 {
                        f(from, to, prob, gain);
                    }
                };
                match occ {
                    Some(occ) if support_dest => {
                        for &to in occ {
                            if to != from {
                                visit_dest(to);
                            }
                        }
                    }
                    _ => {
                        for to_raw in class.strategy_range() {
                            if to_raw != from.raw() {
                                visit_dest(StrategyId::new(to_raw));
                            }
                        }
                    }
                }
            };
            match occ {
                Some(occ) => {
                    for &from in occ {
                        visit_origin(from);
                    }
                }
                None => {
                    for from_raw in class.strategy_range() {
                        let from = StrategyId::new(from_raw);
                        if self.state.counts()[from.index()] > 0 {
                            visit_origin(from);
                        }
                    }
                }
            }
        }
    }

    /// The current migration matrix: one entry per `(from, to)` pair with
    /// positive probability.
    pub fn migration_matrix(&self) -> Vec<PairFlow> {
        let mut out = Vec::new();
        self.for_each_pair(|from, to, prob, gain| {
            let movers = self.state.counts()[from.index()] as f64 * prob;
            out.push(PairFlow { from, to, probability: prob, gain, expected_movers: movers });
        });
        out
    }

    /// The exact expected *virtual potential gain* of the next round,
    /// `E[Σ_{P,Q} V_PQ] = Σ_{P,Q} x_P·p_PQ·(ℓ_Q(x+1_Q−1_P) − ℓ_P(x))`
    /// (non-positive; see Lemma 2 and Theorem 7).
    pub fn expected_virtual_gain(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_pair(|from, _to, prob, gain| {
            total -= self.state.counts()[from.index()] as f64 * prob * gain;
        });
        total
    }

    /// Execute one concurrent round.
    ///
    /// # Errors
    ///
    /// Surfaces internal sampling/application failures (none occur for valid
    /// simulations; the error path exists instead of panicking).
    pub fn step(&mut self, rng: &mut impl DrawRng) -> Result<RoundStats, DynamicsError> {
        // Position counter-mode streams at `(round, site 0)`; a no-op for
        // the sequential xoshiro backend (see `congames_sampling::DrawRng`).
        rng.begin_round(self.round);
        let mut migrations = std::mem::take(&mut self.migrations_buf);
        migrations.clear();
        match self.engine {
            EngineKind::Aggregate => self.aggregate_round(rng, &mut migrations)?,
            // Monomorphized per stream kind, so a sequential stream's
            // player loop carries no mask test at all.
            EngineKind::PlayerLevel if rng.is_addressed() => {
                self.player_round::<true>(rng, &mut migrations)?
            }
            EngineKind::PlayerLevel => self.player_round::<false>(rng, &mut migrations)?,
        }
        // Apply simultaneously and update the potential incrementally:
        // each changed resource contributes one batched `Latency::sum_range`
        // walk over its intermediate loads (big-flow rounds walk thousands
        // of loads per resource behind a single virtual call). The default
        // summation order is pinned to the pre-batching scalar loops;
        // constant/affine resources use exact closed forms that may differ
        // from those loops by ulps (see the `congames-model::latency`
        // exactness notes).
        let mut old_loads = std::mem::take(&mut self.old_loads_buf);
        old_loads.clear();
        old_loads.extend_from_slice(self.state.loads());
        self.state.apply_migrations(&self.game, &migrations)?;
        let mut delta = 0.0;
        for (i, (&o, &n)) in old_loads.iter().zip(self.state.loads()).enumerate() {
            if o != n {
                let r = ResourceId::new(i as u32);
                let base = self.state.effective_load(r) - self.state.load(r);
                delta += potential_delta_for_load_change(&self.game, r, base, o, n);
            }
        }
        self.potential += delta;
        self.round += 1;
        // Re-validate the per-strategy latency sums (the apply above kept
        // the per-resource entries fresh for only the touched resources);
        // the support index was maintained in-place by the apply, so its
        // ensure is an O(1) validity check.
        self.state.ensure_latency_cache(&self.game);
        self.state.ensure_support_index(&self.game);
        let moved: u64 = migrations.iter().map(|m| m.count).sum();
        self.last_migrations = moved;
        self.migrations_buf = migrations;
        self.old_loads_buf = old_loads;
        Ok(RoundStats { migrations: moved, delta_potential: delta })
    }

    fn aggregate_round(
        &mut self,
        rng: &mut impl DrawRng,
        migrations: &mut Vec<Migration>,
    ) -> Result<(), DynamicsError> {
        // Group the pair probabilities by origin in the reusable CSR pair
        // buffer, then draw one multinomial per origin into the reusable
        // counts buffer. `for_each_pair` visits origins contiguously.
        let mut pairs = std::mem::take(&mut self.pairs_buf);
        pairs.clear();
        self.for_each_pair(|from, to, prob, _gain| pairs.push(from, to, prob));
        let mut counts = std::mem::take(&mut self.counts_buf);
        let mut result = Ok(());
        for (j, &from) in pairs.origins.iter().enumerate() {
            // Counter mode addresses the origin's multinomial by its
            // strategy id, so the draw is independent of which other
            // origins are occupied this round.
            rng.begin_site(from.raw() as u64);
            let slice = pairs.offsets[j]..pairs.offsets[j + 1];
            let x_from = self.state.counts()[from.index()];
            match multinomial_with_rest_into(
                rng,
                x_from,
                &pairs.pair_prob[slice.clone()],
                &mut counts,
            ) {
                Ok(_stay) => {
                    for (&to, &k) in pairs.pair_to[slice].iter().zip(&counts) {
                        if k > 0 {
                            migrations.push(Migration::new(from, to, k));
                        }
                    }
                }
                Err(e) => {
                    result = Err(e.into());
                    break;
                }
            }
        }
        self.pairs_buf = pairs;
        self.counts_buf = counts;
        result
    }

    /// Fill `movable` (indexed by local strategy of class `ci`) with
    /// whether a player on that origin can move this round, and return
    /// whether any can.
    ///
    /// An occupied origin is movable iff some destination either branch
    /// of the protocol could pick this round has `μ > 0` in the pre-round
    /// state: the imitation branch reaches occupied strategies (every
    /// class strategy with virtual agents), the exploration branch every
    /// class strategy. `μ` comes from [`imitation_mu`]/[`exploration_mu`]
    /// exactly as the player loop computes it — not from
    /// [`Simulation::for_each_pair`]'s `prob > 0`, which can underflow.
    ///
    /// Every origin is marked movable (the full walk) when the mask would
    /// cost more `μ` evaluations (occupied origins × reachable
    /// destinations) than the class has players, so large-`S` classes keep
    /// the plain per-player cost. Only called for addressed streams.
    fn mark_movable_origins(
        &self,
        ci: usize,
        imit: Option<ImitationProtocol>,
        expl: Option<ExplorationProtocol>,
        explore_prob: f64,
        movable: &mut Vec<bool>,
    ) -> bool {
        let class = &self.game.classes()[ci];
        let (s_c, n_c) = (class.num_strategies(), class.players());
        movable.clear();
        movable.resize(s_c, true);
        let Some(occ) = self.state.occupied(&self.game, ci) else {
            return true;
        };
        // The branches the player loop can take: it explores iff a
        // uniform `[0, 1)` variate falls below a positive `explore_prob`.
        let imit = imit.filter(|_| explore_prob < 1.0 || explore_prob.is_nan());
        let expl = expl.filter(|_| explore_prob > 0.0);
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        let support_dest = expl.is_none() && !virtual_agents;
        let reachable = if support_dest { occ.len() } else { s_c };
        if (occ.len() as u64).saturating_mul(reachable as u64) > n_c {
            return true;
        }
        let lo = class.strategy_range().start;
        let mut any = false;
        for &from in occ {
            let l_from = self.state.strategy_latency(&self.game, from);
            let can_move = |to: StrategyId| {
                if to == from {
                    return false;
                }
                let gain = l_from - self.state.latency_after_move(&self.game, from, to);
                let imitable = virtual_agents || self.state.counts()[to.index()] > 0;
                imit.is_some_and(|p| imitable && imitation_mu(&p, &self.params, l_from, gain) > 0.0)
                    || expl.is_some_and(|p| {
                        exploration_mu(&p, &self.params, l_from, gain, s_c, n_c) > 0.0
                    })
            };
            let m = if support_dest {
                occ.iter().any(|&to| can_move(to))
            } else {
                class.strategy_range().any(|to| can_move(StrategyId::new(to)))
            };
            movable[(from.raw() - lo) as usize] = m;
            any |= m;
        }
        any
    }

    fn player_round<const ADDRESSED: bool>(
        &mut self,
        rng: &mut impl DrawRng,
        migrations: &mut Vec<Migration>,
    ) -> Result<(), DynamicsError> {
        self.ensure_players();
        let (explore_prob, imit, expl) = match &self.protocol {
            Protocol::Imitation(p) => (0.0, Some(*p), None),
            Protocol::Exploration(p) => (1.0, None, Some(*p)),
            Protocol::Combined { imitation, exploration, explore_prob } => {
                (*explore_prob, Some(*imitation), Some(*exploration))
            }
        };
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        // Decisions all use the pre-round state; μ values repeat across
        // players of one class, so memoize them in the dense epoch table.
        // Classes modify disjoint player/strategy ranges, so each class can
        // decide *and* commit before the next is visited.
        let mut mu_table = std::mem::take(&mut self.mu_table);
        let mut movable = std::mem::take(&mut self.movable_buf);
        let mut moves = std::mem::take(&mut self.moves_buf);
        let mut commit = std::mem::take(&mut self.commit_buf);
        for (ci, class) in self.game.classes().iter().enumerate() {
            let n_c = class.players();
            if n_c == 0 {
                continue;
            }
            let s_c = class.num_strategies();
            let start = self.class_offsets[ci];
            let my_range = class.strategy_range();
            let memoize = mu_table.begin(s_c);
            // Loop-invariant tier split, hoisted so the hot loop branches
            // on registers.
            let dense_memo = memoize && mu_table.dense;
            // An addressed stream lets players on unmovable origins go
            // undrawn: their draws are pure functions of their own site,
            // so skipping them changes no other player's bits.
            let any_movable =
                !ADDRESSED || self.mark_movable_origins(ci, imit, expl, explore_prob, &mut movable);
            moves.clear();
            if any_movable {
                let players = self.players.as_ref().expect("ensure_players ran");
                let class_players = &players[start..start + n_c as usize];
                // Per-class sampling-pool constants.
                let self_exclude = imit.is_some_and(|p| p.self_sampling() == SelfSampling::Exclude);
                let real_pool = if self_exclude { n_c - 1 } else { n_c };
                let pool = real_pool + if virtual_agents { s_c as u64 } else { 0 };
                for (local, &from) in class_players.iter().enumerate() {
                    if ADDRESSED && !movable[(from.raw() - my_range.start) as usize] {
                        continue;
                    }
                    // Counter mode addresses each player's decision by the
                    // global player index.
                    rng.begin_site((start + local) as u64);
                    let explore = explore_prob > 0.0 && rng.gen::<f64>() < explore_prob;
                    let to: StrategyId;
                    let is_explore: bool;
                    // The migration test's uniform variate: the imitation
                    // path derives it from the *same* 64-bit draw that
                    // picks the sampled agent (the quotient selects the
                    // agent, the remainder is uniform conditional on it),
                    // halving the per-player RNG cost.
                    let mut test_u: Option<f64> = None;
                    if explore {
                        let pick = rng.gen_range(0..s_c) as u32 + my_range.start;
                        to = StrategyId::new(pick);
                        is_explore = true;
                    } else {
                        if imit.is_none() || pool == 0 {
                            continue;
                        }
                        // Sample another agent uniformly (optionally self /
                        // virtual agents) by multiply-shift.
                        let wide = rng.next_u64() as u128 * pool as u128;
                        let draw = (wide >> 64) as u64;
                        test_u = Some((wide as u64 >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
                        if draw < real_pool {
                            // Branchless self-exclusion shift: `j >= local`
                            // is data-dependent and unpredictable, so a
                            // conditional jump here would mispredict often.
                            let j =
                                draw as usize + ((draw as usize >= local) & self_exclude) as usize;
                            to = class_players[j];
                        } else {
                            to = StrategyId::new(my_range.start + (draw - real_pool) as u32);
                        }
                        is_explore = false;
                    }
                    // `to == from` flows through: its μ is 0 by definition
                    // (zero gain), so it never migrates — and keeping it on
                    // the straight-line path avoids an unpredictable branch
                    // on a freshly gathered value.
                    let compute_mu = || {
                        let l_from = self.state.strategy_latency(&self.game, from);
                        let l_to = self.state.latency_after_move(&self.game, from, to);
                        let gain = l_from - l_to;
                        if is_explore {
                            exploration_mu(
                                &expl.expect("explore implies protocol"),
                                &self.params,
                                l_from,
                                gain,
                                s_c,
                                n_c,
                            )
                        } else {
                            imitation_mu(
                                &imit.expect("imitate implies protocol"),
                                &self.params,
                                l_from,
                                gain,
                            )
                        }
                    };
                    let mu = if dense_memo {
                        // Dense tier: one stamp compare, no bookkeeping —
                        // the exact pre-LRU hot path.
                        let slot = ((from.raw() - my_range.start) as usize * s_c
                            + (to.raw() - my_range.start) as usize)
                            * 2
                            + is_explore as usize;
                        if mu_table.slots[slot].0 == mu_table.current {
                            mu_table.slots[slot].1
                        } else {
                            let mu = compute_mu();
                            mu_table.slots[slot] = (mu_table.current, mu);
                            mu
                        }
                    } else if memoize {
                        // LRU row tier: support-keyed origin row +
                        // destination slot; the row's assignment stamp
                        // doubles as the freshness stamp.
                        mu_table.row_mu(
                            (from.raw() - my_range.start) as usize,
                            (to.raw() - my_range.start) as usize,
                            is_explore,
                            compute_mu,
                        )
                    } else {
                        compute_mu()
                    };
                    if mu > 0.0 {
                        let u = match test_u {
                            Some(u) => u,
                            None => rng.gen::<f64>(),
                        };
                        if u < mu {
                            moves.push((start + local, to));
                        }
                    }
                }
            }
            // Commit the class: update the player array, then aggregate the
            // realized (from, to) pairs by sorting the reusable buffer —
            // deterministic order, no per-round allocation.
            let players = self.players.as_mut().expect("ensure_players ran");
            commit.clear();
            for &(idx, to) in &moves {
                let from = players[idx];
                players[idx] = to;
                commit.push((from.raw(), to.raw()));
            }
            commit.sort_unstable();
            let mut i = 0usize;
            while i < commit.len() {
                let (f, t) = commit[i];
                let mut k = 0u64;
                while i < commit.len() && commit[i] == (f, t) {
                    k += 1;
                    i += 1;
                }
                migrations.push(Migration::new(StrategyId::new(f), StrategyId::new(t), k));
            }
        }
        self.mu_table = mu_table;
        self.movable_buf = movable;
        self.moves_buf = moves;
        self.commit_buf = commit;
        Ok(())
    }

    /// Run until a stop condition fires, materializing the recorded
    /// rounds into a [`Trajectory`].
    ///
    /// Conditions are evaluated on the state *before* each round (so a
    /// satisfied initial state reports `rounds = 0`); expensive checks run
    /// at the spec's cadence (see [`StopSpec`] for which conditions the
    /// cadence gates). This is a convenience wrapper over
    /// [`Simulation::run_observed`] with the [`Trajectory`] stock
    /// observer; streaming consumers should call `run_observed` directly
    /// and never pay for the materialization.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::step`] failures.
    pub fn run(
        &mut self,
        stop: &StopSpec,
        rng: &mut impl DrawRng,
    ) -> Result<RunOutcome, DynamicsError> {
        let mut trajectory = Trajectory::new();
        let summary = self.run_observed(stop, rng, &mut trajectory)?;
        Ok(RunOutcome {
            reason: summary.reason,
            rounds: summary.rounds,
            potential: summary.potential,
            trajectory,
        })
    }

    /// Run until a stop condition fires, streaming each recorded round
    /// into `observer` instead of materializing a trajectory.
    ///
    /// The observer sees exactly the records [`Simulation::run`] would
    /// have stored: with a non-zero recording cadence, the record of the
    /// round the run starts in, one record per cadence round, and the
    /// record of the stop round (deduplicated when on the cadence); with
    /// recording disabled it sees nothing. The returned [`RunSummary`]
    /// carries the stop reason, round count, and final potential — pass it
    /// to [`Observer::finish`] to extract the observer's output.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::step`] failures.
    pub fn run_observed<O: Observer>(
        &mut self,
        stop: &StopSpec,
        rng: &mut impl DrawRng,
        observer: &mut O,
    ) -> Result<RunSummary, DynamicsError> {
        let driver = RunDriver::new(stop, self.record, self.round);
        // Seed from the simulation's own counter so a resumed run's start
        // record reports the migrations of the round that produced it.
        let mut migrations = self.last_migrations;
        loop {
            // Scheduled events fire before the round's record is captured
            // and before the stop conditions run, so the record *at* a
            // shock round already reflects the post-event game/state (the
            // pre-shock reference is the last record strictly before).
            let shock = self.fire_due_events()?;
            let at = RoundState {
                round: self.round,
                potential: self.potential,
                migrations,
                shock,
                // While a hook still has fires pending the run is
                // nonstationary by declaration: today's stable state is
                // the pre-shock reference, not an outcome.
                deferred: self.hook.as_ref().and_then(|h| h.next_fire()).is_some(),
                nu: self.protocol.stability_threshold(&self.params),
            };
            if let Some(summary) = driver.visit(&at, &mut (&*self.game, &self.state), observer) {
                return Ok(summary);
            }
            migrations = self.step(rng)?.migrations;
        }
    }
}

pub(crate) fn imitation_mu(
    p: &crate::protocol::ImitationProtocol,
    params: &GameParams,
    l_from: f64,
    gain: f64,
) -> f64 {
    if l_from <= 0.0 || gain <= p.gain_threshold(params) {
        return 0.0;
    }
    (p.lambda() / p.damping_factor(params) * gain / l_from).clamp(0.0, 1.0)
}

pub(crate) fn exploration_mu(
    p: &crate::protocol::ExplorationProtocol,
    params: &GameParams,
    l_from: f64,
    gain: f64,
    class_strategies: usize,
    class_players: u64,
) -> f64 {
    if l_from <= 0.0 || gain <= 0.0 || class_players == 0 {
        return 0.0;
    }
    let beta = params.beta.max(f64::MIN_POSITIVE);
    let scale = class_strategies as f64 * params.ell_min / (beta * class_players as f64);
    (p.lambda() * scale * gain / l_from).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Damping, ExplorationProtocol, ImitationProtocol, NuRule};
    use crate::stopping::{StopCondition, StopReason};
    use congames_model::Affine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_links(n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], n)
            .unwrap()
    }

    fn imit() -> Protocol {
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into()
    }

    #[test]
    fn new_validates_state() {
        let game = two_links(4);
        let other = two_links(6);
        let state = State::from_counts(&other, vec![3, 3]).unwrap();
        assert!(Simulation::new(&game, imit(), state).is_err());
    }

    #[test]
    fn virtual_agent_mismatch_is_rejected() {
        let game = two_links(4);
        let state = State::from_counts(&game, vec![4, 0]).unwrap();
        let p: Protocol = ImitationProtocol::paper_default().with_virtual_agents(true).into();
        assert!(Simulation::new(&game, p, state).is_err());
        let state2 = State::from_counts(&game, vec![4, 0]).unwrap().with_virtual_agents(&game);
        assert!(Simulation::new(&game, p, state2).is_ok());
    }

    #[test]
    fn potential_tracks_incrementally() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![75, 25]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            sim.step(&mut rng).unwrap();
            let exact = potential(&game, sim.state());
            assert!(
                (sim.potential() - exact).abs() < 1e-6,
                "incremental potential drifted: {} vs {exact}",
                sim.potential()
            );
        }
        assert!(sim.state().loads_consistent(&game));
    }

    #[test]
    fn imbalanced_state_converges_to_balance() {
        let game = two_links(1000);
        let state = State::from_counts(&game, vec![900, 100]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::ImitationStable,
                    StopCondition::MaxRounds(10_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::ImitationStable);
        // Imitation-stable on two identical linear links = balanced ± ν.
        let c0 = sim.state().count(StrategyId::new(0));
        assert!((499..=501).contains(&c0), "counts {c0}");
    }

    #[test]
    fn player_level_engine_matches_aggregate_in_distribution() {
        // Compare the mean one-round outflow of the two engines over many
        // replays from the same initial state.
        let game = two_links(64);
        let initial = State::from_counts(&game, vec![48, 16]).unwrap();
        let reps = 4000;
        let mut mean = [0.0f64; 2];
        for (ei, engine) in [EngineKind::Aggregate, EngineKind::PlayerLevel].into_iter().enumerate()
        {
            let mut sum = 0.0;
            for rep in 0..reps {
                let mut sim =
                    Simulation::new(&game, imit(), initial.clone()).unwrap().with_engine(engine);
                let mut rng = SmallRng::seed_from_u64(1000 + rep);
                sim.step(&mut rng).unwrap();
                sum += sim.state().count(StrategyId::new(0)) as f64;
            }
            mean[ei] = sum / reps as f64;
        }
        // Same distribution ⇒ same mean; tolerate 5σ of the empirical SEM
        // (counts move by a handful of players here, SEM ≪ 0.2).
        assert!(
            (mean[0] - mean[1]).abs() < 0.5,
            "engine means diverge: {} vs {}",
            mean[0],
            mean[1]
        );
    }

    #[test]
    fn expected_virtual_gain_is_nonpositive_and_zero_at_stability() {
        let game = two_links(50);
        let state = State::from_counts(&game, vec![40, 10]).unwrap();
        let sim = Simulation::new(&game, imit(), state).unwrap();
        assert!(sim.expected_virtual_gain() < 0.0);
        let balanced = State::from_counts(&game, vec![25, 25]).unwrap();
        let sim2 = Simulation::new(&game, imit(), balanced).unwrap();
        assert_eq!(sim2.expected_virtual_gain(), 0.0);
        assert!(sim2.migration_matrix().is_empty());
    }

    #[test]
    fn expected_movers_match_empirical_mean() {
        let game = two_links(64);
        let initial = State::from_counts(&game, vec![48, 16]).unwrap();
        let sim = Simulation::new(&game, imit(), initial.clone()).unwrap();
        let matrix = sim.migration_matrix();
        assert_eq!(matrix.len(), 1);
        let expect = matrix[0].expected_movers;
        let reps = 4000;
        let mut sum = 0.0;
        for rep in 0..reps {
            let mut s = Simulation::new(&game, imit(), initial.clone()).unwrap();
            let mut rng = SmallRng::seed_from_u64(rep);
            let stats = s.step(&mut rng).unwrap();
            sum += stats.migrations as f64;
        }
        let mean = sum / reps as f64;
        assert!((mean - expect).abs() < 0.2, "empirical movers {mean} vs expected {expect}");
    }

    #[test]
    fn run_stops_at_zero_rounds_for_stable_start() {
        let game = two_links(10);
        let state = State::from_counts(&game, vec![5, 5]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = sim.run(&StopSpec::new(vec![StopCondition::ImitationStable]), &mut rng).unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.reason, StopReason::ImitationStable);
    }

    #[test]
    fn recording_captures_series() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![80, 20]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig::every_round());
        let mut rng = SmallRng::seed_from_u64(5);
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        assert_eq!(out.reason, StopReason::MaxRounds);
        assert_eq!(out.trajectory.records().len(), 11); // rounds 0..=10
        assert_eq!(out.trajectory.records()[0].round, 0);
        assert!(out.trajectory.records()[0].potential >= out.trajectory.records()[10].potential);
    }

    /// A run resuming from a manually-stepped, off-cadence round still
    /// records its starting round — the documented "start record, cadence
    /// records, stop record" contract.
    #[test]
    fn recording_captures_an_off_cadence_start_round() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![80, 20]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig { every: 3, approx: None });
        let mut rng = SmallRng::seed_from_u64(9);
        let mut moved = 0;
        for _ in 0..4 {
            moved = sim.step(&mut rng).unwrap().migrations; // round 4, off cadence
        }
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        let rounds: Vec<u64> = out.trajectory.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![4, 6, 9, 10], "start, cadence, and stop records");
        // The start record carries the migrations of the manual step that
        // produced round 4, not a placeholder zero.
        assert_eq!(out.trajectory.records()[0].migrations, moved);
    }

    /// A hook that scales link 0's latency ×10 once, at round 5.
    #[derive(Debug)]
    struct ScaleHook {
        fired: bool,
    }

    impl crate::hook::RoundHook for ScaleHook {
        fn next_fire(&self) -> Option<u64> {
            if self.fired {
                None
            } else {
                Some(5)
            }
        }

        fn fire(
            &mut self,
            round: u64,
            game: &mut CongestionGame,
            _state: &mut State,
        ) -> Result<bool, DynamicsError> {
            assert_eq!(round, 5);
            self.fired = true;
            game.scale_latency(ResourceId::new(0), 10.0)?;
            Ok(true)
        }
    }

    #[test]
    fn hook_fires_once_marks_the_shock_round_and_rebuilds_the_potential() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![50, 50]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig::every_round())
            .with_hook(Box::new(ScaleHook { fired: false }));
        let mut rng = SmallRng::seed_from_u64(21);
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        let records = out.trajectory.records();
        assert_eq!(records.len(), 11);
        let shocked: Vec<u64> = records.iter().filter(|r| r.shock).map(|r| r.round).collect();
        assert_eq!(shocked, vec![5], "exactly the firing round is marked");
        // The shock round's record already reflects the ×10 latency on
        // link 0 — a strict potential jump over the pre-shock record.
        assert!(
            records[5].potential > records[4].potential * 2.0,
            "post-shock potential {} vs pre-shock {}",
            records[5].potential,
            records[4].potential
        );
        // The borrowed original game is untouched.
        assert_eq!(game.resource(ResourceId::new(0)).latency().value(10), 10.0);
        // The incrementally-maintained potential stays exact across the
        // shock (the hook path recomputes from scratch).
        let exact = potential(&game_scaled(), sim.state());
        assert!((sim.potential() - exact).abs() < 1e-9, "{} vs {exact}", sim.potential());
    }

    fn game_scaled() -> CongestionGame {
        CongestionGame::singleton(
            vec![Affine::linear(10.0).into(), Affine::linear(1.0).into()],
            100,
        )
        .unwrap()
    }

    #[test]
    fn pending_hook_defers_equilibrium_stops_until_the_schedule_drains() {
        // All players on the cheaper link is imitation-stable immediately —
        // a stationary run stops at round 0. With a shock pending at round
        // 5, the stability stop is deferred, the shock fires, and the run
        // ends at the first post-shock stable round (not the budget).
        let game = two_links(100);
        let state = State::from_counts(&game, vec![0, 100]).unwrap();
        let stop =
            StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(200)])
                .with_check_every(1);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stationary = Simulation::new(&game, imit(), state.clone()).unwrap();
        let out = stationary.run(&stop, &mut rng).unwrap();
        assert_eq!((out.reason, out.rounds), (StopReason::ImitationStable, 0));
        let mut shocked = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_hook(Box::new(ScaleHook { fired: false }));
        let mut rng = SmallRng::seed_from_u64(3);
        let out = shocked.run(&stop, &mut rng).unwrap();
        assert_eq!(out.reason, StopReason::ImitationStable, "re-stabilized after the shock");
        assert!(out.rounds >= 5, "ran through the shock round, got {}", out.rounds);
        assert!(out.rounds < 200, "did not burn the whole budget");
    }

    #[test]
    fn hook_that_does_not_advance_is_an_error() {
        #[derive(Debug)]
        struct Wedged;
        impl crate::hook::RoundHook for Wedged {
            fn next_fire(&self) -> Option<u64> {
                Some(0)
            }
            fn fire(
                &mut self,
                _round: u64,
                _game: &mut CongestionGame,
                _state: &mut State,
            ) -> Result<bool, DynamicsError> {
                Ok(false)
            }
        }
        let game = two_links(10);
        let state = State::from_counts(&game, vec![5, 5]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap().with_hook(Box::new(Wedged));
        let mut rng = SmallRng::seed_from_u64(1);
        let err = sim.run(&StopSpec::max_rounds(3), &mut rng).unwrap_err();
        assert!(matches!(err, DynamicsError::Hook { .. }), "{err:?}");
    }

    #[test]
    fn exploration_discovers_unused_strategies() {
        // All players on link 0; imitation alone is stuck, exploration finds
        // link 1.
        let game = two_links(100);
        let state = State::from_counts(&game, vec![100, 0]).unwrap();
        let p: Protocol = ExplorationProtocol::paper_default().into();
        let mut sim = Simulation::new(&game, p, state).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::NashEquilibrium { tol: 1.0 },
                    StopCondition::MaxRounds(200_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::NashEquilibrium);
        assert!(sim.state().count(StrategyId::new(1)) > 0);
    }

    #[test]
    fn combined_protocol_also_converges_to_nash() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![100, 0]).unwrap();
        let mut sim = Simulation::new(&game, Protocol::combined_default(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::NashEquilibrium { tol: 1.0 },
                    StopCondition::MaxRounds(200_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::NashEquilibrium);
    }

    #[test]
    fn undamped_overshoots_on_polynomial_links() {
        // Section 2.3's instance: ℓ1 = c (constant), ℓ2 = x^d. Start with
        // everyone on link 1. One undamped round overshoots link 2 beyond
        // its balanced load; the damped protocol does not (in expectation).
        use congames_model::{Constant, Monomial};
        let d = 6u32;
        let n = 4096u64;
        let c = 1000.0;
        let game = CongestionGame::singleton(
            vec![Constant::new(c).into(), Monomial::new(1.0, d).into()],
            n,
        )
        .unwrap();
        // Balanced load: x with x^d = c ⇒ x ≈ c^(1/d) ≈ 3.16 ⇒ tiny. Start
        // with a few players on link 2 so it can be sampled.
        let start = State::from_counts(&game, vec![n - 2, 2]).unwrap();
        let reps = 200;
        let mut mean_load = [0.0f64; 2];
        for (i, damping) in [Damping::Elasticity, Damping::None].into_iter().enumerate() {
            let proto: Protocol = ImitationProtocol::new(0.9)
                .unwrap()
                .with_damping(damping)
                .with_nu_rule(NuRule::None)
                .into();
            let mut sum = 0.0;
            for rep in 0..reps {
                let mut sim = Simulation::new(&game, proto, start.clone()).unwrap();
                let mut rng = SmallRng::seed_from_u64(500 + rep);
                sim.step(&mut rng).unwrap();
                sum += sim.state().count(StrategyId::new(1)) as f64;
            }
            mean_load[i] = sum / reps as f64;
        }
        // Undamped inflow should be ≈ d times the damped inflow.
        let ratio = (mean_load[1] - 2.0) / (mean_load[0] - 2.0).max(1e-9);
        assert!(
            ratio > (d as f64) * 0.5,
            "undamped/damped inflow ratio {ratio}, means {mean_load:?}"
        );
    }
}
