//! Game states: strategy counts and derived resource loads.
//!
//! # Caches & invariants
//!
//! A [`State`] carries two opt-in, incrementally co-maintained caches next
//! to its logical contents (`counts`, `loads`, `base_loads`). Both are
//! invisible to `PartialEq`/`Debug`, both stay invalid (and cost nothing)
//! until their `ensure_*` method runs, and both are then kept fresh by the
//! `apply_*` mutators in time proportional to what actually changed:
//!
//! * **Latency cache** ([`State::ensure_latency_cache`]): `ℓ_e(x_e)`,
//!   `ℓ_e(x_e+1)` per resource and `ℓ_P(x)` per strategy. Mutators
//!   re-evaluate only resources whose load changed and mark the
//!   per-strategy sums stale; `ensure_latency_cache` (typically once per
//!   simulated round) re-validates the sums.
//! * **Support index** ([`State::ensure_support_index`]): per player
//!   class, the sorted list of strategies with `x_P > 0`, plus a
//!   strategy→position map and a running total. Mutators insert/remove a
//!   strategy exactly when its count crosses zero (`O(support)` per
//!   changed strategy — a shift within the class's occupied list), so
//!   [`State::support_size`] and [`State::support_of_class`] are `O(1)`
//!   and [`State::occupied`] exposes the sorted occupancy for sparse
//!   kernels. Imitation dynamics never adopt a strategy outside the
//!   current support (the paper's support-invariance lemma), so near
//!   convergence this list is much shorter than the strategy range.
//!
//! Shared invariants: each cache is keyed to the *game that built it*
//! (same resource/strategy/class shape); a differently-shaped game falls
//! back to direct computation (reads) or invalidates the cache (writes).
//! The latency cache additionally depends on the latency *functions* —
//! call [`State::invalidate_latency_cache`] when moving a state between
//! same-shape games with different latencies. The support index depends
//! only on the counts, so it survives such swaps. Diagnostics:
//! [`State::loads_consistent`] and [`State::support_consistent`] compare
//! the incremental structures against a from-scratch recomputation.

use crate::error::GameError;
use crate::game::CongestionGame;
use crate::resource::ResourceId;
use crate::strategy::StrategyId;

/// A batch of players moving from one strategy to another.
///
/// Rounds of the concurrent protocols produce vectors of migrations that are
/// applied simultaneously via [`State::apply_migrations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Origin strategy.
    pub from: StrategyId,
    /// Destination strategy (same player class as `from`).
    pub to: StrategyId,
    /// Number of players moving.
    pub count: u64,
}

impl Migration {
    /// Create a migration of `count` players from `from` to `to`.
    pub fn new(from: StrategyId, to: StrategyId, count: u64) -> Self {
        Migration { from, to, count }
    }
}

/// Memoized latencies of the current state, plus reusable scratch buffers.
///
/// The cache is *opt-in*: it stays invalid (and costs nothing) until
/// [`State::ensure_latency_cache`] is called. Once built, the latency
/// accessors read from it in `O(1)` per resource, and the `apply_*` mutators
/// keep the per-resource entries fresh incrementally (only resources whose
/// load changed are re-evaluated), marking the per-strategy sums stale until
/// the next `ensure_latency_cache` call. Simulation engines call `ensure`
/// once per round, so steady-state rounds never re-walk resource lists or
/// re-evaluate unchanged latency functions.
#[derive(Debug, Clone, Default)]
struct LatencyCache {
    /// Whether `res`/`res_plus` match the current loads.
    valid: bool,
    /// Whether `strat` needs rebuilding from `res`.
    strat_stale: bool,
    /// `ℓ_e(x_e + x⁰_e)` per resource.
    res: Vec<f64>,
    /// `ℓ_e(x_e + x⁰_e + 1)` per resource.
    res_plus: Vec<f64>,
    /// `ℓ_P(x)` per strategy.
    strat: Vec<f64>,
    /// Scratch: resources touched by the current migration batch.
    touched: Vec<u32>,
    /// Scratch: per-strategy outflow of the current migration batch.
    outflow: Vec<u64>,
}

/// Sentinel for "strategy is not in its class's occupied list".
const NO_POS: u32 = u32::MAX;

/// Incrementally-maintained per-class support index: for every player
/// class, the strategies with `x_P > 0`, **sorted by strategy id**.
///
/// Like the latency cache this is opt-in ([`State::ensure_support_index`])
/// and maintained by the `apply_*` mutators once built: a strategy is
/// inserted into / removed from its class's list exactly when its count
/// crosses zero. The sorted order is load-bearing — sparse kernels iterate
/// these lists in place of dense strategy ranges, and ascending-id order
/// keeps pair visitation (and hence RNG consumption and float summation
/// order) bit-identical to the dense scans they replace.
#[derive(Debug, Default)]
struct SupportIndex {
    /// Whether the lists mirror the current counts.
    valid: bool,
    /// Per class: sorted strategy ids with `x_P > 0`. Each list's capacity
    /// is reserved to the class's full strategy count at build time, so
    /// steady-state maintenance never allocates.
    occupied: Vec<Vec<StrategyId>>,
    /// Position of each strategy within its class's occupied list
    /// ([`NO_POS`] when unoccupied).
    pos: Vec<u32>,
    /// Start of each class's strategy range in the game that built the
    /// index. Together with `pos.len()` (the strategy count) this
    /// fingerprints the class partition, so a same-sized game that slices
    /// its strategies into classes differently is detected as a shape
    /// mismatch instead of being served the wrong per-class lists.
    class_starts: Vec<u32>,
    /// Total occupied strategies over all classes (`Σ_c support_c`).
    total: usize,
}

// Not derived: a derived clone would shrink each occupied list to its
// length, and the copy's support maintenance could then allocate.
impl Clone for SupportIndex {
    fn clone(&self) -> Self {
        let occupied = self
            .occupied
            .iter()
            .map(|list| {
                let mut copy = Vec::with_capacity(list.capacity());
                copy.extend_from_slice(list);
                copy
            })
            .collect();
        SupportIndex {
            valid: self.valid,
            occupied,
            pos: self.pos.clone(),
            class_starts: self.class_starts.clone(),
            total: self.total,
        }
    }
}

/// A state `x` of a congestion game: the number of players on every strategy
/// (`x_P`) plus the derived congestion of every resource (`x_e`).
///
/// The two views are kept consistent by construction; resource loads are
/// updated incrementally as migrations are applied. An optional latency
/// cache (see [`State::ensure_latency_cache`]) memoizes `ℓ_e(x_e)`,
/// `ℓ_e(x_e+1)`, and `ℓ_P(x)` for the hot simulation loops; equality and
/// the `Debug` output cover only the logical state, never the cache.
///
/// # Example
///
/// ```
/// use congames_model::{CongestionGame, Affine, State, StrategyId};
///
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     4,
/// )?;
/// let mut state = State::from_counts(&game, vec![4, 0])?;
/// state.apply_move(&game, StrategyId::new(0), StrategyId::new(1))?;
/// assert_eq!(state.count(StrategyId::new(0)), 3);
/// assert_eq!(state.count(StrategyId::new(1)), 1);
/// # Ok::<(), congames_model::GameError>(())
/// ```
#[derive(Clone)]
pub struct State {
    counts: Vec<u64>,
    loads: Vec<u64>,
    /// Optional base load per resource (virtual agents, Section 6). These are
    /// added to the player-induced congestion before evaluating latencies.
    base_loads: Option<Vec<u64>>,
    cache: LatencyCache,
    support: SupportIndex,
}

impl PartialEq for State {
    fn eq(&self, other: &State) -> bool {
        // The latency cache and scratch buffers are derived/ephemeral data;
        // two states are equal iff their logical contents agree.
        self.counts == other.counts
            && self.loads == other.loads
            && self.base_loads == other.base_loads
    }
}

impl Eq for State {}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("counts", &self.counts)
            .field("loads", &self.loads)
            .field("base_loads", &self.base_loads)
            .finish_non_exhaustive()
    }
}

impl State {
    /// Create a state from per-strategy player counts.
    ///
    /// # Errors
    ///
    /// Fails if the vector length does not match the number of strategies or
    /// a class's counts do not sum to its player count.
    pub fn from_counts(game: &CongestionGame, counts: Vec<u64>) -> Result<Self, GameError> {
        if counts.len() != game.num_strategies() {
            return Err(GameError::WrongLength {
                expected: game.num_strategies(),
                found: counts.len(),
            });
        }
        for (ci, class) in game.classes().iter().enumerate() {
            let sum: u64 = class.strategy_range().map(|s| counts[s as usize]).sum();
            if sum != class.players() {
                return Err(GameError::CountMismatch {
                    class: ci,
                    expected: class.players(),
                    found: sum,
                });
            }
        }
        let loads = loads_from_counts(game, &counts);
        Ok(State {
            counts,
            loads,
            base_loads: None,
            cache: LatencyCache::default(),
            support: SupportIndex::default(),
        })
    }

    /// Create the state in which every player of every class uses the class's
    /// first strategy (a worst-case-ish "everybody piles up" start).
    pub fn all_on_first(game: &CongestionGame) -> State {
        let mut counts = vec![0u64; game.num_strategies()];
        for class in game.classes() {
            let first = class.strategy_range().start as usize;
            counts[first] = class.players();
        }
        let loads = loads_from_counts(game, &counts);
        State {
            counts,
            loads,
            base_loads: None,
            cache: LatencyCache::default(),
            support: SupportIndex::default(),
        }
    }

    /// Attach base loads (one virtual agent per strategy, Section 6): each
    /// strategy contributes `+1` congestion on its resources, permanently.
    ///
    /// Returns the modified state. Latency evaluations then see
    /// `x_e + x⁰_e`.
    pub fn with_virtual_agents(mut self, game: &CongestionGame) -> State {
        let mut base = vec![0u64; game.num_resources()];
        for s in game.strategies() {
            for &r in s.resources() {
                base[r.index()] += 1;
            }
        }
        self.base_loads = Some(base);
        self.cache = LatencyCache::default();
        self
    }

    /// Per-strategy player counts (`x_P`).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Players on strategy `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn count(&self, s: StrategyId) -> u64 {
        self.counts[s.index()]
    }

    /// Player-induced congestion of resource `r` (excludes base loads).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn load(&self, r: ResourceId) -> u64 {
        self.loads[r.index()]
    }

    /// Effective congestion of resource `r` (player load plus base load).
    pub fn effective_load(&self, r: ResourceId) -> u64 {
        self.loads[r.index()] + self.base_loads.as_ref().map_or(0, |b| b[r.index()])
    }

    /// Player-induced loads of all resources.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Whether virtual-agent base loads are attached.
    pub fn has_virtual_agents(&self) -> bool {
        self.base_loads.is_some()
    }

    /// Number of strategies with at least one player (the *support*).
    ///
    /// `O(1)` off the support index once [`State::ensure_support_index`]
    /// has run (the index is cross-checked against a recount in debug
    /// builds); falls back to an `O(S)` filter-count otherwise.
    pub fn support_size(&self) -> usize {
        if self.support.valid {
            debug_assert_eq!(
                self.support.total,
                self.counts.iter().filter(|&&c| c > 0).count(),
                "support index total drifted from the recomputed support size"
            );
            return self.support.total;
        }
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Number of occupied strategies of class `class` (`O(1)` off the
    /// support index, recounted otherwise; debug builds cross-check).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range for `game`.
    pub fn support_of_class(&self, game: &CongestionGame, class: usize) -> usize {
        let recount = || {
            game.classes()[class].strategy_range().filter(|&s| self.counts[s as usize] > 0).count()
        };
        if self.support_usable(game) {
            let size = self.support.occupied[class].len();
            debug_assert_eq!(
                size,
                recount(),
                "support index of class {class} drifted from the recomputed support"
            );
            return size;
        }
        recount()
    }

    /// The sorted (ascending strategy id) occupied strategies of class
    /// `class` of `game`, or `None` while the support index is not built
    /// (or was built for an incompatible class partition) — callers with
    /// a `&mut State` can [`State::ensure_support_index`] first,
    /// read-only callers fall back to scanning the dense range.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range for `game`.
    pub fn occupied(&self, game: &CongestionGame, class: usize) -> Option<&[StrategyId]> {
        if self.support_usable_for(game, class) {
            Some(self.support.occupied[class].as_slice())
        } else {
            None
        }
    }

    /// Iterate the occupied strategies of class `class`, ascending by id:
    /// served from the support index when it is built for `game`
    /// (`O(support_c)`), recomputed from the counts otherwise
    /// (`O(S_c)`). The shared primitive behind the sparse deviation scans
    /// ([`best_deviation`](crate::best_deviation), sequential dynamics),
    /// so the fallback semantics live in one place.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range for `game`.
    pub fn occupied_or_scan<'a>(
        &'a self,
        game: &'a CongestionGame,
        class: usize,
    ) -> impl Iterator<Item = StrategyId> + 'a {
        let indexed = self.occupied(game, class);
        let dense = match indexed {
            Some(_) => None,
            None => Some(game.classes()[class].strategy_ids().filter(move |&s| self.count(s) > 0)),
        };
        indexed.into_iter().flatten().copied().chain(dense.into_iter().flatten())
    }

    /// Build (or re-validate) the support index for this state against
    /// `game`. Once built, the `apply_*` mutators maintain it in
    /// `O(support)` per strategy whose count crosses zero, so re-ensuring
    /// every round is `O(1)` and allocation-free.
    pub fn ensure_support_index(&mut self, game: &CongestionGame) {
        if self.support_usable(game) {
            return;
        }
        let idx = &mut self.support;
        idx.pos.clear();
        idx.pos.resize(game.num_strategies(), NO_POS);
        idx.occupied.iter_mut().for_each(Vec::clear);
        idx.occupied.resize_with(game.classes().len(), Vec::new);
        idx.class_starts.clear();
        idx.class_starts.extend(game.classes().iter().map(|c| c.strategy_range().start));
        idx.total = 0;
        for (ci, class) in game.classes().iter().enumerate() {
            let list = &mut idx.occupied[ci];
            // Full-class capacity up front: support maintenance must never
            // allocate, whatever occupancy pattern the dynamics produce.
            list.reserve(class.num_strategies());
            for raw in class.strategy_range() {
                if self.counts[raw as usize] > 0 {
                    idx.pos[raw as usize] = list.len() as u32;
                    list.push(StrategyId::new(raw));
                    idx.total += 1;
                }
            }
        }
        idx.valid = true;
    }

    /// Whether the support index currently mirrors the counts.
    pub fn support_index_valid(&self) -> bool {
        self.support.valid
    }

    /// Drop the support index; [`State::support_size`] recounts and
    /// [`State::occupied`] returns `None` until
    /// [`State::ensure_support_index`] runs again.
    pub fn invalidate_support_index(&mut self) {
        self.support.valid = false;
    }

    /// Whether the support index can serve queries against `game`: built,
    /// and for the same strategy/class shape — the strategy count, the
    /// class count, *and* the class partition (range starts) must match,
    /// so a same-sized game sliced into classes differently falls back
    /// (reads) or drops the index (writes) instead of serving another
    /// game's per-class lists.
    #[inline]
    fn support_usable(&self, game: &CongestionGame) -> bool {
        self.support.valid
            && self.support.pos.len() == game.num_strategies()
            && self.support.class_starts.len() == game.classes().len()
            && game
                .classes()
                .iter()
                .zip(&self.support.class_starts)
                .all(|(c, &start)| c.strategy_range().start == start)
    }

    /// Whether class `class`'s occupied list can serve reads against
    /// `game`: the `O(1)` per-class variant of [`State::support_usable`].
    /// Matching this class's range start *and* end (the next class's
    /// start, or the strategy count for the last class) pins its exact
    /// strategy range — ranges are contiguous and consecutive — so the
    /// list is correct for `game` whatever the other classes look like.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range for `game`.
    #[inline]
    fn support_usable_for(&self, game: &CongestionGame, class: usize) -> bool {
        let idx = &self.support;
        let range = game.classes()[class].strategy_range();
        idx.valid
            && idx.pos.len() == game.num_strategies()
            && idx.class_starts.len() == game.classes().len()
            && idx.class_starts[class] == range.start
            && idx.class_starts.get(class + 1).copied().unwrap_or(idx.pos.len() as u32) == range.end
    }

    /// Insert `s` (count just became positive) into its class's occupied
    /// list, keeping the list sorted and the position map consistent.
    fn support_insert(&mut self, game: &CongestionGame, s: StrategyId) {
        let list = &mut self.support.occupied[game.class_of(s)];
        let at = list.partition_point(|&x| x < s);
        list.insert(at, s);
        for &shifted in &list[at + 1..] {
            self.support.pos[shifted.index()] += 1;
        }
        self.support.pos[s.index()] = at as u32;
        self.support.total += 1;
    }

    /// Remove `s` (count just reached zero) from its class's occupied list.
    fn support_remove(&mut self, game: &CongestionGame, s: StrategyId) {
        let at = self.support.pos[s.index()] as usize;
        let list = &mut self.support.occupied[game.class_of(s)];
        debug_assert_eq!(list.get(at), Some(&s), "position map out of sync");
        list.remove(at);
        for &shifted in &list[at..] {
            self.support.pos[shifted.index()] -= 1;
        }
        self.support.pos[s.index()] = NO_POS;
        self.support.total -= 1;
    }

    /// Diagnostic (`debug_assert`-style check): whether the support index
    /// matches a from-scratch occupancy recomputation — membership,
    /// sortedness, the position map, and the running total.
    ///
    /// Returns `true` when the index is not built (nothing to disagree
    /// with).
    pub fn support_consistent(&self, game: &CongestionGame) -> bool {
        if !self.support.valid {
            return true;
        }
        if !self.support_usable(game) {
            return false;
        }
        let idx = &self.support;
        let mut total = 0usize;
        for (ci, class) in game.classes().iter().enumerate() {
            let list = &idx.occupied[ci];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            let expected: Vec<StrategyId> = class
                .strategy_range()
                .filter(|&s| self.counts[s as usize] > 0)
                .map(StrategyId::new)
                .collect();
            if list != &expected {
                return false;
            }
            for (at, &s) in list.iter().enumerate() {
                if idx.pos[s.index()] != at as u32 {
                    return false;
                }
            }
            total += list.len();
        }
        if idx.total != total {
            return false;
        }
        // Unoccupied strategies must not claim a position.
        idx.pos.iter().enumerate().all(|(i, &p)| (p == NO_POS) == (self.counts[i] == 0))
    }

    /// Build (or refresh) the latency cache for this state against `game`.
    ///
    /// After this call, [`State::resource_latency`],
    /// [`State::strategy_latency`], [`State::strategy_latency_plus`], and
    /// [`State::latency_after_move`] serve from memoized per-resource and
    /// per-strategy tables instead of re-evaluating latency functions. The
    /// `apply_*` mutators keep the per-resource entries fresh (re-evaluating
    /// only resources whose load changed) and mark the per-strategy sums
    /// stale; call `ensure_latency_cache` again (typically once per
    /// simulated round) to rebuild them. The cache allocates only on first
    /// use and on game-size changes — steady-state refreshes are
    /// allocation-free.
    ///
    /// The cache is keyed to the *game that built it*: the accessors serve
    /// cached values whenever the queried game has the same resource count
    /// (a differently-sized game falls back to direct evaluation). Querying
    /// a same-shape game with *different latency functions* would silently
    /// return the cached game's values — call
    /// [`State::invalidate_latency_cache`] first when moving a state
    /// between such games (e.g. a coefficient-perturbation sweep).
    pub fn ensure_latency_cache(&mut self, game: &CongestionGame) {
        let cache = &mut self.cache;
        if !cache.valid || cache.res.len() != game.num_resources() {
            cache.res.clear();
            cache.res_plus.clear();
            cache.res.reserve(game.num_resources());
            cache.res_plus.reserve(game.num_resources());
            // One batched virtual call per resource fills both cache
            // entries (`ℓ_e(x_e)`, `ℓ_e(x_e+1)`) — bit-identical to the
            // pointwise evaluations, half the dispatch cost.
            let base_loads = self.base_loads.as_deref();
            let mut pair = [0.0_f64; 2];
            for (i, res) in game.resources().iter().enumerate() {
                let eff = self.loads[i] + base_loads.map_or(0, |b| b[i]);
                res.latency().eval_range_into(eff, 0..2, &mut pair);
                cache.res.push(pair[0]);
                cache.res_plus.push(pair[1]);
            }
            cache.valid = true;
            cache.strat_stale = true;
        }
        if cache.strat_stale || cache.strat.len() != game.num_strategies() {
            let (strat, res) = (&mut cache.strat, &cache.res);
            strat.clear();
            strat.reserve(game.num_strategies());
            for s in game.strategies() {
                strat.push(s.resources().iter().map(|&r| res[r.index()]).sum());
            }
            cache.strat_stale = false;
        }
    }

    /// Whether the latency cache currently mirrors the state (both the
    /// per-resource and the per-strategy tables).
    pub fn latency_cache_valid(&self) -> bool {
        self.cache.valid && !self.cache.strat_stale
    }

    /// Drop the latency cache; subsequent latency queries recompute from the
    /// latency functions until [`State::ensure_latency_cache`] runs again.
    pub fn invalidate_latency_cache(&mut self) {
        self.cache.valid = false;
        self.cache.strat_stale = true;
    }

    /// Whether the cache can answer latency queries against `game`: built,
    /// and sized for the same resource set.
    #[inline]
    fn cache_usable(&self, game: &CongestionGame) -> bool {
        self.cache.valid && self.cache.res.len() == game.num_resources()
    }

    /// Re-evaluate the cached latencies of every resource in
    /// `cache.touched` (sorted + deduped first), leaving `strat` stale.
    fn refresh_touched_resources(&mut self, game: &CongestionGame) {
        let cache = &mut self.cache;
        if !cache.valid {
            cache.touched.clear();
            return;
        }
        if cache.touched.is_empty() {
            return;
        }
        cache.touched.sort_unstable();
        cache.touched.dedup();
        let mut pair = [0.0_f64; 2];
        for &raw in &cache.touched {
            let i = raw as usize;
            let eff = self.loads[i] + self.base_loads.as_ref().map_or(0, |b| b[i]);
            let r = ResourceId::new(raw);
            game.resource(r).latency().eval_range_into(eff, 0..2, &mut pair);
            cache.res[i] = pair[0];
            cache.res_plus[i] = pair[1];
        }
        cache.touched.clear();
        cache.strat_stale = true;
    }

    /// Latency of resource `r` in this state.
    pub fn resource_latency(&self, game: &CongestionGame, r: ResourceId) -> f64 {
        if self.cache_usable(game) {
            return self.cache.res[r.index()];
        }
        game.latency(r, self.effective_load(r))
    }

    /// Latency `ℓ_P(x)` of strategy `s` in this state.
    pub fn strategy_latency(&self, game: &CongestionGame, s: StrategyId) -> f64 {
        if self.cache_usable(game) {
            if !self.cache.strat_stale && self.cache.strat.len() == game.num_strategies() {
                return self.cache.strat[s.index()];
            }
            return game.strategy(s).resources().iter().map(|&r| self.cache.res[r.index()]).sum();
        }
        game.strategy(s).resources().iter().map(|&r| game.latency(r, self.effective_load(r))).sum()
    }

    /// Latency `ℓ_P(x + 1_P)` of strategy `s` with one extra player on it
    /// (the *ex-post* latency a joining player would see at worst).
    pub fn strategy_latency_plus(&self, game: &CongestionGame, s: StrategyId) -> f64 {
        if self.cache_usable(game) {
            return game
                .strategy(s)
                .resources()
                .iter()
                .map(|&r| self.cache.res_plus[r.index()])
                .sum();
        }
        game.strategy(s)
            .resources()
            .iter()
            .map(|&r| game.latency(r, self.effective_load(r) + 1))
            .sum()
    }

    /// Latency `ℓ_Q(x + 1_Q − 1_P)` of strategy `to` as seen by a player
    /// moving from `from`: resources in `to ∩ from` keep their congestion,
    /// resources in `to \ from` gain one player.
    pub fn latency_after_move(
        &self,
        game: &CongestionGame,
        from: StrategyId,
        to: StrategyId,
    ) -> f64 {
        let from_s = game.strategy(from);
        let to_s = game.strategy(to);
        let from_r = from_s.resources();
        let mut total = 0.0;
        let mut i = 0usize;
        if self.cache_usable(game) {
            for &r in to_s.resources() {
                while i < from_r.len() && from_r[i] < r {
                    i += 1;
                }
                let shared = i < from_r.len() && from_r[i] == r;
                total +=
                    if shared { self.cache.res[r.index()] } else { self.cache.res_plus[r.index()] };
            }
            return total;
        }
        for &r in to_s.resources() {
            // advance the sorted origin pointer to check membership
            while i < from_r.len() && from_r[i] < r {
                i += 1;
            }
            let shared = i < from_r.len() && from_r[i] == r;
            let load = self.effective_load(r) + if shared { 0 } else { 1 };
            total += game.latency(r, load);
        }
        total
    }

    /// Move one player from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Fails if `from` has no players, ids are out of range, or the ids
    /// belong to different classes.
    pub fn apply_move(
        &mut self,
        game: &CongestionGame,
        from: StrategyId,
        to: StrategyId,
    ) -> Result<(), GameError> {
        self.apply_migration(game, Migration::new(from, to, 1))
    }

    /// Move `migration.count` players from `migration.from` to `migration.to`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `count` players use the origin, ids are out of
    /// range, or the ids belong to different classes.
    pub fn apply_migration(
        &mut self,
        game: &CongestionGame,
        migration: Migration,
    ) -> Result<(), GameError> {
        let Migration { from, to, count } = migration;
        game.check_strategy(from)?;
        game.check_strategy(to)?;
        let (fc, tc) = (game.class_of(from), game.class_of(to));
        if fc != tc {
            return Err(GameError::CrossClassMigration { from_class: fc, to_class: tc });
        }
        if count == 0 || from == to {
            return Ok(());
        }
        let available = self.counts[from.index()];
        if available < count {
            return Err(GameError::InsufficientPlayers {
                strategy: from.raw(),
                available,
                requested: count,
            });
        }
        if self.support.valid && !self.support_usable(game) {
            self.support.valid = false;
        }
        let to_was_empty = self.counts[to.index()] == 0;
        self.counts[from.index()] -= count;
        self.counts[to.index()] += count;
        if self.support.valid {
            if self.counts[from.index()] == 0 {
                self.support_remove(game, from);
            }
            if to_was_empty {
                self.support_insert(game, to);
            }
        }
        let from_s = game.strategy(from);
        let to_s = game.strategy(to);
        let loads = &mut self.loads;
        let touched = &mut self.cache.touched;
        let track = self.cache.valid;
        from_s.diff_signed(to_s, |r, sign| {
            if sign < 0 {
                loads[r.index()] -= count;
            } else {
                loads[r.index()] += count;
            }
            if track {
                touched.push(r.raw());
            }
        });
        self.refresh_touched_resources(game);
        Ok(())
    }

    /// Apply a batch of migrations simultaneously (one protocol round).
    ///
    /// All origins are debited before validation of the batch as a whole is
    /// complete, so the batch must be *jointly* feasible: the total outflow
    /// of each strategy must not exceed its count. This is checked up front.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state unchanged) if the batch over-drains a
    /// strategy, crosses classes, or references unknown ids.
    pub fn apply_migrations(
        &mut self,
        game: &CongestionGame,
        migrations: &[Migration],
    ) -> Result<(), GameError> {
        // Validate jointly first. `outflow` is reusable scratch so steady
        // rounds of a simulation stay allocation-free.
        let mut outflow = std::mem::take(&mut self.cache.outflow);
        outflow.clear();
        outflow.resize(self.counts.len(), 0);
        let validated = self.validate_batch(game, migrations, &mut outflow);
        self.cache.outflow = outflow;
        validated?;
        if self.support.valid && !self.support_usable(game) {
            self.support.valid = false;
        }
        for m in migrations {
            if m.from == m.to || m.count == 0 {
                continue;
            }
            let to_was_empty = self.counts[m.to.index()] == 0;
            self.counts[m.from.index()] -= m.count;
            self.counts[m.to.index()] += m.count;
            if self.support.valid {
                if self.counts[m.from.index()] == 0 {
                    self.support_remove(game, m.from);
                }
                if to_was_empty {
                    self.support_insert(game, m.to);
                }
            }
            let from_s = game.strategy(m.from);
            let to_s = game.strategy(m.to);
            let loads = &mut self.loads;
            let touched = &mut self.cache.touched;
            let track = self.cache.valid;
            from_s.diff_signed(to_s, |r, sign| {
                if sign < 0 {
                    loads[r.index()] -= m.count;
                } else {
                    loads[r.index()] += m.count;
                }
                if track {
                    touched.push(r.raw());
                }
            });
        }
        self.refresh_touched_resources(game);
        Ok(())
    }

    /// Check a migration batch for unknown ids, cross-class moves, and joint
    /// over-draining (writing per-strategy outflows into `outflow`).
    fn validate_batch(
        &self,
        game: &CongestionGame,
        migrations: &[Migration],
        outflow: &mut [u64],
    ) -> Result<(), GameError> {
        for m in migrations {
            game.check_strategy(m.from)?;
            game.check_strategy(m.to)?;
            let (fc, tc) = (game.class_of(m.from), game.class_of(m.to));
            if fc != tc {
                return Err(GameError::CrossClassMigration { from_class: fc, to_class: tc });
            }
            if m.from != m.to {
                outflow[m.from.index()] += m.count;
            }
        }
        for (i, &out) in outflow.iter().enumerate() {
            if out > self.counts[i] {
                return Err(GameError::InsufficientPlayers {
                    strategy: i as u32,
                    available: self.counts[i],
                    requested: out,
                });
            }
        }
        Ok(())
    }

    /// Recompute loads from counts (diagnostic; `debug_assert`-style check).
    ///
    /// Returns `true` if the incremental loads match a from-scratch
    /// recomputation.
    pub fn loads_consistent(&self, game: &CongestionGame) -> bool {
        self.loads == loads_from_counts(game, &self.counts)
    }

    /// Invalidate **every** derived cache after the game changed under this
    /// state: the latency cache *and* the support index.
    ///
    /// This is the single entry point game mutators
    /// (`CongestionGame::set_latency`, `scale_latency`,
    /// `set_class_players`, scenario event appliers) must route through.
    /// The piecemeal invalidators are not interchangeable with it:
    /// [`State::invalidate_support_index`] alone leaves the latency cache
    /// serving the old game's `ℓ_e` values after a latency swap, and
    /// [`State::invalidate_latency_cache`] alone leaves per-class occupied
    /// lists stale after a partition change. Population mutations
    /// ([`State::add_players`] / [`State::remove_players`]) call it
    /// internally.
    pub fn invalidate_caches_for_game_change(&mut self) {
        self.invalidate_latency_cache();
        self.invalidate_support_index();
    }

    /// Overwrite this state's counts and loads from one lane of
    /// replica-major SoA columns (element `k` of lane `lane` lives at
    /// `column[k * width + lane]`), invalidating both derived caches.
    ///
    /// This is the *gather* half of the replica-lane kernel: a lane block
    /// evolves `width` replicas through strategy-major count columns and
    /// resource-major load columns, and materializes a single lane into a
    /// scratch `State` (typically a clone of the start state, so
    /// `base_loads` carries over) only when a record or an expensive stop
    /// check needs one. Allocation-free: the destination vectors are
    /// already sized by the state this scratch was cloned from.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or either column's length is not
    /// `width ×` the corresponding vector length of this state.
    pub fn assign_lane_column(
        &mut self,
        lane_counts: &[u64],
        lane_loads: &[u64],
        width: usize,
        lane: usize,
    ) {
        assert!(lane < width, "lane {lane} out of range for width {width}");
        assert_eq!(lane_counts.len(), self.counts.len() * width, "counts column shape");
        assert_eq!(lane_loads.len(), self.loads.len() * width, "loads column shape");
        for (k, c) in self.counts.iter_mut().enumerate() {
            *c = lane_counts[k * width + lane];
        }
        for (k, l) in self.loads.iter_mut().enumerate() {
            *l = lane_loads[k * width + lane];
        }
        self.invalidate_caches_for_game_change();
    }

    /// Add `count` players to strategy `s` (a scenario *arrival*): bumps
    /// the strategy's count and the loads of its resources, then routes
    /// through [`State::invalidate_caches_for_game_change`] — arrivals can
    /// break support invariance (a previously-empty strategy becomes
    /// occupied) and change every cached latency on the touched resources.
    ///
    /// The owning class's player count in the game must be grown to match
    /// (see `CongestionGame::set_class_players`) before the state is
    /// validated against the game again.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state unchanged) if `s` is out of range for
    /// `game`, or if the strategy's count or a resource load would
    /// overflow `u64`.
    pub fn add_players(
        &mut self,
        game: &CongestionGame,
        s: StrategyId,
        count: u64,
    ) -> Result<(), GameError> {
        game.check_strategy(s)?;
        if count == 0 {
            return Ok(());
        }
        let resources = game.strategy(s).resources();
        // The largest of the strategy's count and its loads overflows first.
        let present =
            resources.iter().map(|r| self.loads[r.index()]).fold(self.counts[s.index()], u64::max);
        if present.checked_add(count).is_none() {
            return Err(GameError::PopulationOverflow { present, added: count });
        }
        self.counts[s.index()] += count;
        for &r in resources {
            self.loads[r.index()] += count;
        }
        self.invalidate_caches_for_game_change();
        Ok(())
    }

    /// Remove `count` players from strategy `s` (a scenario *departure*);
    /// the cache-coherence mirror of [`State::add_players`].
    ///
    /// # Errors
    ///
    /// Fails (leaving the state unchanged) if `s` is out of range or has
    /// fewer than `count` players.
    pub fn remove_players(
        &mut self,
        game: &CongestionGame,
        s: StrategyId,
        count: u64,
    ) -> Result<(), GameError> {
        game.check_strategy(s)?;
        if count == 0 {
            return Ok(());
        }
        let available = self.counts[s.index()];
        if available < count {
            return Err(GameError::InsufficientPlayers {
                strategy: s.raw(),
                available,
                requested: count,
            });
        }
        self.counts[s.index()] -= count;
        for &r in game.strategy(s).resources() {
            self.loads[r.index()] -= count;
        }
        self.invalidate_caches_for_game_change();
        Ok(())
    }
}

fn loads_from_counts(game: &CongestionGame, counts: &[u64]) -> Vec<u64> {
    let mut loads = vec![0u64; game.num_resources()];
    for (i, s) in game.strategies().iter().enumerate() {
        let c = counts[i];
        if c > 0 {
            for &r in s.resources() {
                loads[r.index()] += c;
            }
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Affine;
    use crate::strategy::Strategy;

    fn sid(i: u32) -> StrategyId {
        StrategyId::new(i)
    }
    fn rid(i: u32) -> ResourceId {
        ResourceId::new(i)
    }

    fn two_link_game(n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()], n)
            .unwrap()
    }

    /// A little 3-resource network-like game: strategies {0,1}, {1,2}, {2}.
    fn overlap_game(n: u64) -> CongestionGame {
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        let r1 = b.add_resource(Affine::linear(1.0).into());
        let r2 = b.add_resource(Affine::linear(1.0).into());
        b.add_class(
            "c",
            n,
            vec![
                Strategy::new(vec![r0, r1]).unwrap(),
                Strategy::new(vec![r1, r2]).unwrap(),
                Strategy::new(vec![r2]).unwrap(),
            ],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_counts_checks_lengths_and_sums() {
        let game = two_link_game(4);
        assert!(matches!(
            State::from_counts(&game, vec![4]),
            Err(GameError::WrongLength { expected: 2, found: 1 })
        ));
        assert!(matches!(
            State::from_counts(&game, vec![1, 1]),
            Err(GameError::CountMismatch { expected: 4, found: 2, .. })
        ));
        let s = State::from_counts(&game, vec![3, 1]).unwrap();
        assert_eq!(s.load(rid(0)), 3);
        assert_eq!(s.load(rid(1)), 1);
        assert_eq!(s.support_size(), 2);
    }

    #[test]
    fn all_on_first_piles_up() {
        let game = two_link_game(7);
        let s = State::all_on_first(&game);
        assert_eq!(s.count(sid(0)), 7);
        assert_eq!(s.count(sid(1)), 0);
        assert_eq!(s.support_size(), 1);
    }

    #[test]
    fn loads_track_overlapping_strategies() {
        let game = overlap_game(6);
        let s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        assert_eq!(s.load(rid(0)), 2);
        assert_eq!(s.load(rid(1)), 5);
        assert_eq!(s.load(rid(2)), 4);
        assert!(s.loads_consistent(&game));
    }

    #[test]
    fn strategy_latency_and_plus() {
        let game = overlap_game(6);
        let s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        // ℓ_{s0} = ℓ(2) + ℓ(5) = 7; plus = ℓ(3) + ℓ(6) = 9
        assert_eq!(s.strategy_latency(&game, sid(0)), 7.0);
        assert_eq!(s.strategy_latency_plus(&game, sid(0)), 9.0);
    }

    #[test]
    fn latency_after_move_keeps_shared_resources() {
        let game = overlap_game(6);
        let s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        // Moving s0 → s1: r1 is shared (load stays 5), r2 gains one (4+1).
        let l = s.latency_after_move(&game, sid(0), sid(1));
        assert_eq!(l, 5.0 + 5.0);
        // Moving s2 → s1: r2 is shared (load stays 4), r1 gains one (5+1).
        let l2 = s.latency_after_move(&game, sid(2), sid(1));
        assert_eq!(l2, 6.0 + 4.0);
    }

    #[test]
    fn latency_after_move_to_self_is_current() {
        let game = overlap_game(4);
        let s = State::from_counts(&game, vec![2, 1, 1]).unwrap();
        assert_eq!(s.latency_after_move(&game, sid(0), sid(0)), s.strategy_latency(&game, sid(0)));
    }

    #[test]
    fn apply_move_updates_counts_and_loads() {
        let game = overlap_game(6);
        let mut s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        s.apply_move(&game, sid(0), sid(2)).unwrap();
        assert_eq!(s.count(sid(0)), 1);
        assert_eq!(s.count(sid(2)), 2);
        assert_eq!(s.load(rid(0)), 1);
        assert_eq!(s.load(rid(1)), 4);
        assert_eq!(s.load(rid(2)), 5);
        assert!(s.loads_consistent(&game));
    }

    #[test]
    fn over_drain_is_rejected_atomically() {
        let game = two_link_game(4);
        let mut s = State::from_counts(&game, vec![3, 1]).unwrap();
        let before = s.clone();
        let err = s.apply_migrations(
            &game,
            &[Migration::new(sid(0), sid(1), 2), Migration::new(sid(0), sid(1), 2)],
        );
        assert!(matches!(err, Err(GameError::InsufficientPlayers { .. })));
        assert_eq!(s, before, "failed batch must leave the state unchanged");
    }

    #[test]
    fn simultaneous_swap_is_feasible() {
        let game = two_link_game(4);
        let mut s = State::from_counts(&game, vec![2, 2]).unwrap();
        // 2 players swap in both directions simultaneously.
        s.apply_migrations(
            &game,
            &[Migration::new(sid(0), sid(1), 2), Migration::new(sid(1), sid(0), 2)],
        )
        .unwrap();
        assert_eq!(s.count(sid(0)), 2);
        assert_eq!(s.count(sid(1)), 2);
        assert!(s.loads_consistent(&game));
    }

    #[test]
    fn self_migration_is_noop() {
        let game = two_link_game(3);
        let mut s = State::from_counts(&game, vec![3, 0]).unwrap();
        s.apply_migration(&game, Migration::new(sid(0), sid(0), 2)).unwrap();
        assert_eq!(s.count(sid(0)), 3);
    }

    #[test]
    fn cross_class_migration_rejected() {
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        b.add_class("a", 1, vec![Strategy::singleton(r0)]).unwrap();
        b.add_class("b", 1, vec![Strategy::singleton(r0)]).unwrap();
        let game = b.build().unwrap();
        let mut s = State::from_counts(&game, vec![1, 1]).unwrap();
        assert!(matches!(
            s.apply_move(&game, sid(0), sid(1)),
            Err(GameError::CrossClassMigration { .. })
        ));
    }

    /// Every latency accessor must agree between the cached and the
    /// uncached path, including after incremental updates.
    #[test]
    fn latency_cache_matches_direct_evaluation() {
        let game = overlap_game(6);
        let mut cached = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        cached.ensure_latency_cache(&game);
        assert!(cached.latency_cache_valid());
        let check = |cached: &State, plain: &State| {
            for i in 0..game.num_resources() {
                let r = rid(i as u32);
                assert_eq!(cached.resource_latency(&game, r), plain.resource_latency(&game, r));
            }
            for i in 0..game.num_strategies() {
                let s = sid(i as u32);
                assert_eq!(cached.strategy_latency(&game, s), plain.strategy_latency(&game, s));
                assert_eq!(
                    cached.strategy_latency_plus(&game, s),
                    plain.strategy_latency_plus(&game, s)
                );
                for j in 0..game.num_strategies() {
                    assert_eq!(
                        cached.latency_after_move(&game, s, sid(j as u32)),
                        plain.latency_after_move(&game, s, sid(j as u32))
                    );
                }
            }
        };
        check(&cached, &State::from_counts(&game, vec![2, 3, 1]).unwrap());
        // Incremental maintenance across a batch of migrations.
        let batch = [Migration::new(sid(0), sid(2), 2), Migration::new(sid(1), sid(0), 1)];
        cached.apply_migrations(&game, &batch).unwrap();
        cached.ensure_latency_cache(&game);
        let mut plain = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        plain.apply_migrations(&game, &batch).unwrap();
        check(&cached, &plain);
        // Single moves keep the per-resource entries fresh too.
        cached.apply_move(&game, sid(2), sid(1)).unwrap();
        cached.ensure_latency_cache(&game);
        plain.apply_move(&game, sid(2), sid(1)).unwrap();
        check(&cached, &plain);
    }

    #[test]
    fn latency_cache_with_virtual_agents() {
        let game = overlap_game(3);
        let mut s = State::from_counts(&game, vec![3, 0, 0]).unwrap().with_virtual_agents(&game);
        s.ensure_latency_cache(&game);
        // Cached path must see effective (base-augmented) loads: r1 carries
        // base 2 + player load 3.
        assert_eq!(s.resource_latency(&game, rid(1)), 5.0);
        // s0 = {r0, r1} with effective loads 3+1 and 3+2.
        assert_eq!(s.strategy_latency(&game, sid(0)), 4.0 + 5.0);
    }

    /// Moving a state between same-shape games with different latency
    /// functions (a coefficient sweep) requires
    /// [`State::invalidate_latency_cache`] per the documented contract;
    /// after invalidation the new game's values are served.
    #[test]
    fn invalidation_handles_same_shape_game_swap() {
        let game_a = two_link_game(4); // slopes 1, 2
        let game_b = CongestionGame::singleton(
            vec![Affine::linear(3.0).into(), Affine::linear(5.0).into()],
            4,
        )
        .unwrap();
        let mut s = State::from_counts(&game_a, vec![3, 1]).unwrap();
        s.ensure_latency_cache(&game_a);
        assert_eq!(s.strategy_latency(&game_a, sid(0)), 3.0);
        s.invalidate_latency_cache();
        assert_eq!(s.strategy_latency(&game_b, sid(0)), 9.0);
        s.ensure_latency_cache(&game_b);
        assert_eq!(s.strategy_latency(&game_b, sid(0)), 9.0);
        assert_eq!(s.resource_latency(&game_b, rid(1)), 5.0);
    }

    #[test]
    fn cache_is_invisible_to_equality_and_invalidation_works() {
        let game = two_link_game(4);
        let mut a = State::from_counts(&game, vec![3, 1]).unwrap();
        let b = State::from_counts(&game, vec![3, 1]).unwrap();
        a.ensure_latency_cache(&game);
        assert_eq!(a, b, "cache state must not affect equality");
        a.invalidate_latency_cache();
        assert!(!a.latency_cache_valid());
        assert_eq!(a.strategy_latency(&game, sid(0)), 3.0);
    }

    #[test]
    fn support_index_builds_and_serves_o1_metrics() {
        let game = overlap_game(6);
        let mut s = State::from_counts(&game, vec![2, 0, 4]).unwrap();
        assert!(!s.support_index_valid());
        assert!(s.occupied(&game, 0).is_none());
        assert_eq!(s.support_size(), 2); // fallback recount
        s.ensure_support_index(&game);
        assert!(s.support_index_valid());
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0), sid(2)]);
        assert_eq!(s.support_size(), 2);
        assert_eq!(s.support_of_class(&game, 0), 2);
        assert!(s.support_consistent(&game));
    }

    #[test]
    fn support_index_tracks_moves_across_zero() {
        let game = overlap_game(6);
        let mut s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        s.ensure_support_index(&game);
        // Drain strategy 2, then refill it through a batch.
        s.apply_move(&game, sid(2), sid(0)).unwrap();
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0), sid(1)]);
        assert!(s.support_consistent(&game));
        s.apply_migrations(
            &game,
            &[Migration::new(sid(0), sid(2), 3), Migration::new(sid(1), sid(2), 3)],
        )
        .unwrap();
        // Both origins drained to zero, everything on strategy 2.
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(2)]);
        assert_eq!(s.support_size(), 1);
        assert!(s.support_consistent(&game));
        // A batch that spreads back out (strategy 2 stays occupied).
        s.apply_migrations(
            &game,
            &[Migration::new(sid(2), sid(0), 2), Migration::new(sid(2), sid(1), 3)],
        )
        .unwrap();
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0), sid(1), sid(2)]);
        assert_eq!(s.support_size(), 3);
        assert!(s.support_consistent(&game));
    }

    #[test]
    fn support_index_multi_class() {
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        let r1 = b.add_resource(Affine::linear(1.0).into());
        b.add_class("a", 3, vec![Strategy::singleton(r0), Strategy::singleton(r1)]).unwrap();
        b.add_class("b", 2, vec![Strategy::singleton(r0), Strategy::singleton(r1)]).unwrap();
        let game = b.build().unwrap();
        let mut s = State::from_counts(&game, vec![3, 0, 0, 2]).unwrap();
        s.ensure_support_index(&game);
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0)]);
        assert_eq!(s.occupied(&game, 1).unwrap(), &[sid(3)]);
        assert_eq!(s.support_of_class(&game, 0), 1);
        assert_eq!(s.support_of_class(&game, 1), 1);
        s.apply_move(&game, sid(3), sid(2)).unwrap();
        s.apply_move(&game, sid(0), sid(1)).unwrap();
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0), sid(1)]);
        assert_eq!(s.occupied(&game, 1).unwrap(), &[sid(2), sid(3)]);
        assert_eq!(s.support_size(), 4);
        assert!(s.support_consistent(&game));
    }

    #[test]
    fn support_index_invalidation_and_same_shape_swap() {
        let game = two_link_game(4);
        let mut s = State::from_counts(&game, vec![3, 1]).unwrap();
        s.ensure_support_index(&game);
        s.invalidate_support_index();
        assert!(!s.support_index_valid());
        assert_eq!(s.support_size(), 2);
        // Unlike the latency cache, the index depends only on counts, so a
        // same-shape game swap (coefficient sweep) needs no invalidation.
        s.ensure_support_index(&game);
        let game_b = CongestionGame::singleton(
            vec![Affine::linear(3.0).into(), Affine::linear(5.0).into()],
            4,
        )
        .unwrap();
        s.apply_move(&game_b, sid(0), sid(1)).unwrap();
        assert!(s.support_index_valid());
        assert!(s.support_consistent(&game_b));
    }

    /// Two games with equal strategy *and* class counts but a different
    /// class partition must not be served each other's per-class lists:
    /// reads fall back to recounting, writes drop the index.
    #[test]
    fn support_index_rejects_same_size_different_partition() {
        let partition = |first: usize| {
            let mut b = CongestionGame::builder();
            let r: Vec<_> = (0..3).map(|_| b.add_resource(Affine::linear(1.0).into())).collect();
            let (head, tail) = r.split_at(first);
            b.add_class("a", 2, head.iter().map(|&r| Strategy::singleton(r)).collect()).unwrap();
            b.add_class("b", 2, tail.iter().map(|&r| Strategy::singleton(r)).collect()).unwrap();
            b.build().unwrap()
        };
        let game_a = partition(2); // classes {s0, s1} / {s2}
        let game_b = partition(1); // classes {s0} / {s1, s2}
        let mut s = State::from_counts(&game_a, vec![2, 0, 2]).unwrap();
        s.ensure_support_index(&game_a);
        // Reads through the differently-partitioned game must recount
        // against *its* class ranges instead of serving game A's lists.
        assert_eq!(s.support_of_class(&game_b, 0), 1);
        assert_eq!(s.support_of_class(&game_b, 1), 1);
        // Writes through the mismatched game drop the index rather than
        // corrupting it.
        s.apply_move(&game_b, sid(2), sid(1)).unwrap();
        assert!(!s.support_index_valid());
        // Re-ensuring against B rebuilds for B's partition.
        s.ensure_support_index(&game_b);
        assert!(s.support_consistent(&game_b));
        assert_eq!(s.occupied(&game_b, 1).unwrap(), &[sid(1), sid(2)]);
    }

    #[test]
    fn support_index_is_invisible_to_equality() {
        let game = two_link_game(4);
        let mut a = State::from_counts(&game, vec![3, 1]).unwrap();
        let b = State::from_counts(&game, vec![3, 1]).unwrap();
        a.ensure_support_index(&game);
        assert_eq!(a, b);
    }

    #[test]
    fn cloned_support_index_keeps_full_class_capacity() {
        let game = CongestionGame::singleton(
            (0..8).map(|i| Affine::linear(1.0 + i as f64).into()).collect(),
            10,
        )
        .unwrap();
        let mut counts = vec![0; 8];
        counts[0] = 10;
        let mut a = State::from_counts(&game, counts).unwrap();
        a.ensure_support_index(&game);
        let b = a.clone();
        assert!(b.support_index_valid() && b.support_consistent(&game));
        assert!(b.support.occupied[0].capacity() >= 8, "clone shrank the occupied list");
    }

    #[test]
    fn failed_batch_leaves_support_index_unchanged() {
        let game = two_link_game(4);
        let mut s = State::from_counts(&game, vec![3, 1]).unwrap();
        s.ensure_support_index(&game);
        let err = s.apply_migrations(
            &game,
            &[Migration::new(sid(0), sid(1), 2), Migration::new(sid(0), sid(1), 2)],
        );
        assert!(err.is_err());
        assert_eq!(s.occupied(&game, 0).unwrap(), &[sid(0), sid(1)]);
        assert!(s.support_consistent(&game));
    }

    /// Regression guard for the scenario/event layer: after a latency swap
    /// on the game, `invalidate_support_index` alone is NOT enough — the
    /// latency cache would keep serving the old function's `ℓ_e`. The
    /// single entry point `invalidate_caches_for_game_change` must clear
    /// both.
    #[test]
    fn latency_swap_without_full_invalidation_would_serve_stale_values() {
        let mut game = two_link_game(4);
        let mut s = State::from_counts(&game, vec![3, 1]).unwrap();
        s.ensure_latency_cache(&game);
        s.ensure_support_index(&game);
        assert_eq!(s.resource_latency(&game, rid(0)), 3.0);
        // The game mutates under the state: link 0's slope becomes 10.
        game.set_latency(rid(0), Affine::linear(10.0).into()).unwrap();
        // Partial invalidation (the pre-existing support-only path) leaves
        // the latency cache valid — and stale: it still answers with the
        // old slope. This is the bug `invalidate_caches_for_game_change`
        // exists to prevent.
        s.invalidate_support_index();
        assert_eq!(
            s.resource_latency(&game, rid(0)),
            3.0,
            "support-only invalidation must leave the stale cache observable \
             (otherwise this regression test guards nothing)"
        );
        // The full invalidation serves the new function.
        s.invalidate_caches_for_game_change();
        assert!(!s.latency_cache_valid());
        assert!(!s.support_index_valid());
        assert_eq!(s.resource_latency(&game, rid(0)), 30.0);
        s.ensure_latency_cache(&game);
        s.ensure_support_index(&game);
        assert_eq!(s.resource_latency(&game, rid(0)), 30.0);
        assert!(s.support_consistent(&game));
    }

    #[test]
    fn add_and_remove_players_keep_loads_and_invalidate_caches() {
        let game = overlap_game(6);
        let mut s = State::from_counts(&game, vec![2, 3, 1]).unwrap();
        s.ensure_latency_cache(&game);
        s.ensure_support_index(&game);
        // Arrival on strategy 0 = {r0, r1}.
        s.add_players(&game, sid(0), 4).unwrap();
        assert_eq!(s.count(sid(0)), 6);
        assert_eq!(s.load(rid(0)), 6);
        assert_eq!(s.load(rid(1)), 9);
        assert!(!s.latency_cache_valid());
        assert!(!s.support_index_valid());
        assert!(s.loads_consistent(&game));
        // Departure drains it back; the latency accessors recompute fresh.
        s.remove_players(&game, sid(0), 6).unwrap();
        assert_eq!(s.count(sid(0)), 0);
        assert!(s.loads_consistent(&game));
        assert_eq!(s.support_size(), 2);
        // Over-draining is rejected without mutating anything.
        let before = s.clone();
        assert!(matches!(
            s.remove_players(&game, sid(0), 1),
            Err(GameError::InsufficientPlayers { available: 0, requested: 1, .. })
        ));
        assert_eq!(s, before);
        // Zero-count events are no-ops.
        s.add_players(&game, sid(1), 0).unwrap();
        assert_eq!(s, before);
        // An arrival whose count fits but whose load on the shared r1
        // would overflow is rejected without mutating anything.
        let huge = u64::MAX - s.count(sid(0));
        assert!(matches!(
            s.add_players(&game, sid(0), huge),
            Err(GameError::PopulationOverflow { added, .. }) if added == huge
        ));
        assert_eq!(s, before);
    }

    #[test]
    fn virtual_agents_add_base_load() {
        let game = overlap_game(3);
        let s = State::from_counts(&game, vec![3, 0, 0]).unwrap().with_virtual_agents(&game);
        assert!(s.has_virtual_agents());
        // r1 is on strategies s0 and s1 ⇒ base 2; player load 3.
        assert_eq!(s.effective_load(rid(1)), 5);
        assert_eq!(s.load(rid(1)), 3);
        // Latencies see the effective load.
        assert_eq!(s.resource_latency(&game, rid(1)), 5.0);
    }

    #[test]
    fn assign_lane_column_gathers_one_replica_and_invalidates_caches() {
        let game = overlap_game(6);
        let mut s = State::from_counts(&game, vec![6, 0, 0]).unwrap();
        s.ensure_latency_cache(&game);
        s.ensure_support_index(&game);
        // Two lanes interleaved strategy-major / resource-major; gather
        // lane 1 (counts [1, 2, 3]).
        let counts = vec![6, 1, 0, 2, 0, 3];
        let want = State::from_counts(&game, vec![1, 2, 3]).unwrap();
        let mut loads = vec![0u64; want.loads().len() * 2];
        for (k, &l) in s.loads().iter().enumerate() {
            loads[k * 2] = l;
        }
        for (k, &l) in want.loads().iter().enumerate() {
            loads[k * 2 + 1] = l;
        }
        s.assign_lane_column(&counts, &loads, 2, 1);
        assert_eq!(s, want);
        assert!(!s.latency_cache_valid() && !s.support_index_valid());
        assert!(s.loads_consistent(&game));
        // The gathered state serves fresh (uncached) latencies and
        // supports rebuilding both caches.
        s.ensure_latency_cache(&game);
        s.ensure_support_index(&game);
        assert_eq!(s.support_size(), 3);
    }
}
