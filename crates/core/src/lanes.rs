//! Replica-major lane kernel: `W` counter-mode replicas in lockstep.
//!
//! An ensemble sweep runs many *trials* of the same game. The scalar path
//! simulates them one at a time, so every trial re-walks the same CSR pair
//! structure, re-evaluates the same latency functions, and re-derives the
//! same per-class μ constants — work that depends only on the *game*, not
//! on the trial. [`LaneKernel`] instead runs a block of `W` replicas (the
//! *lanes*) through one structure-of-arrays state block:
//!
//! * **loads** — `[resources × W]`: per resource, the `W` lanes' loads sit
//!   contiguously, so one batched
//!   [`Latency::eval_range_into`](congames_model::Latency::eval_range_into)
//!   call over the union load window serves every lane's `ℓ(x)`/`ℓ(x+1)`
//!   pair (the per-lane values are gathered from the window, bit-identical
//!   to the pointwise evaluations by the batching contract).
//! * **counts** — `[strategies × W]`: the per-origin player counts all
//!   lanes' multinomials read.
//! * **pair walk** — the `(from, to)` CSR merge walk over strategy resource
//!   lists runs *once* per pair per round; the inner loop accumulates every
//!   lane's `ℓ_Q(x + 1_Q − 1_P)` from the already-gathered lane rows.
//!
//! # Bit-identity
//!
//! Each lane `l` simulates trial `first_trial + l` with its own
//! [`CounterRng`] stream (see [`congames_sampling::lane_streams`] and the
//! lane-addressing notes in `congames_sampling::counter`). Because every
//! counter-mode variate is a pure function of its
//! `(trial, round, site, index)` address, the lockstep interleaving
//! consumes exactly the words the scalar per-trial runs would, and each
//! lane's trajectory is **bit-identical to the scalar counter-mode run of
//! its trial**. The kernel reproduces the scalar aggregate engine's
//! floating-point operation order exactly: per-strategy latencies
//! accumulate in resource order from the `-0.0` fold identity of `Sum`,
//! pair probabilities apply the same μ formulas to the same operands, and
//! the per-round potential delta walks changed resources in ascending id
//! order, as `Simulation::step` does.
//!
//! Stop conditions and recording are not re-implemented here: each lane
//! runs through the crate's shared run driver, the one `Simulation` uses,
//! so a lane stops and records exactly where its scalar run would.
//!
//! A lane whose trial finishes (stop condition) or fails (sampling error)
//! *retires*: it drops out of the union windows and pair masks, and the
//! remaining lanes continue unperturbed — counter addressing makes their
//! streams independent of the retired lane by construction.
//!
//! The supported widths are pinned in [`LANE_WIDTHS`]; the ensemble
//! scheduler (see `Ensemble::lane_width`) slices its 32-trial reduce
//! blocks into lane groups of at most `W`, and a group may be narrower
//! than `W` at a sweep tail — the kernel accepts any group size ≥ 1.
//!
//! # SIMD dispatch
//!
//! The across-lane inner loops (batched Philox keystream, union-window
//! bounds and gathers, per-strategy latency accumulation, pair-walk
//! migration probabilities) run through `congames-simd`, which selects an
//! AVX2 arm or its bit-identical scalar fallback once per kernel
//! ([`congames_simd::Dispatch::global`], overridable via the
//! `CONGAMES_SIMD` environment variable and, for tests, per kernel via
//! [`LaneKernel::with_dispatch`]). Integer ops are exact in both arms and
//! float ops vectorize *across* lanes only — each lane's own operation
//! sequence is unchanged — so the dispatch choice never changes any
//! lane's bits; it only changes how fast they are produced.

use congames_model::{
    potential_delta_for_load_change, CongestionGame, GameParams, ResourceId, State, StrategyId,
};
use congames_sampling::{multinomial_with_rest_into, Dispatch, LaneStreams};
use congames_simd as simd;

use crate::driver::{RoundState, RunDriver, StateView};
use crate::engine::{exploration_mu, imitation_mu, PairBuffer, PreparedStart};
use crate::error::DynamicsError;
use crate::observe::Observer;
use crate::protocol::{ImitationProtocol, Protocol, SelfSampling};
use crate::stopping::StopSpec;
use crate::trajectory::RecordConfig;

/// Lane widths the ensemble scheduler accepts: the power-of-two block
/// sizes that divide (8, 16, 32) or pair up (64) the 32-trial reduce
/// block, so lane groups never straddle a reduce-block boundary by more
/// than the scheduler plans for.
pub const LANE_WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// `W` counter-mode replicas of one simulation, stepped in lockstep
/// through a replica-major (structure-of-arrays) state block.
///
/// See the `lanes` module docs for the layout and the bit-identity
/// contract. Construct with [`LaneKernel::new`], drive manually with
/// [`LaneKernel::step`] or to completion with
/// [`LaneKernel::run_observed`].
pub struct LaneKernel<'g> {
    game: &'g CongestionGame,
    protocol: Protocol,
    params: GameParams,
    record: RecordConfig,
    /// Number of lanes in this group (`1 ..= 64`; lane `l` is trial
    /// `first_trial + l`).
    lanes: usize,
    first_trial: u64,
    round: u64,
    /// `[strategies × lanes]` player counts, lane-minor.
    counts: Vec<u64>,
    /// `[resources × lanes]` loads, lane-minor.
    loads: Vec<u64>,
    /// Per-resource base load (virtual agents); shared by all lanes and
    /// constant over the run.
    base_loads: Vec<u64>,
    /// Per-strategy count summed over *active* lanes — the union support
    /// that drives the shared pair walk.
    lane_totals: Vec<u64>,
    potentials: Vec<f64>,
    last_migrations: Vec<u64>,
    active: Vec<bool>,
    /// `active` as a `u64` lane row (`u64::MAX` live, `0` retired) — the
    /// mask form the across-lane vector ops consume.
    active_mask: Vec<u64>,
    /// Count of live lanes; the full-group fast paths fire when it equals
    /// `lanes`.
    num_active: usize,
    errors: Vec<Option<DynamicsError>>,
    /// Which vector arm the across-lane loops run (bit-identical either
    /// way; selected once at construction, see the module docs).
    simd: Dispatch,
    /// Per-lane counter streams with a batched keystream front end.
    streams: LaneStreams,
    /// Per-lane CSR pair buffer: lanes share the walk but not the pair
    /// *lists* (a pair has positive probability in one lane and zero in
    /// another, and the multinomial must see exactly the scalar list).
    pairs: Vec<PairBuffer>,
    /// Whether any lane's pair buffer holds a pair this round. `false`
    /// (the converged steady state) lets the draw sweep return without
    /// touching the per-lane buffers, and the next round's rebuild skip
    /// the (already-empty) clears.
    have_pairs: bool,
    /// Scalar scratch state for observation/stop checks: one lane's
    /// column gathered via [`State::assign_lane_column`].
    scratch: State,
    /// `[resources × lanes]` cached `ℓ(x)` / `ℓ(x+1)`, rebuilt per round.
    lat0: Vec<f64>,
    lat1: Vec<f64>,
    /// `[strategies × lanes]` per-strategy latency sums, rebuilt per round.
    strat_lat: Vec<f64>,
    /// Union-window evaluation buffer (sized once to the worst case).
    window: Vec<f64>,
    /// Per-pair `ℓ_Q(x + 1_Q − 1_P)` accumulator, one slot per lane.
    l_to_buf: Vec<f64>,
    /// Per-pair migration probabilities, one slot per lane (vector-arm
    /// scratch).
    prob_buf: Vec<f64>,
    /// Multinomial output scratch.
    draw_counts: Vec<u64>,
    /// `[resources × lanes]` pre-round loads snapshot (for the potential
    /// delta), one contiguous copy per round.
    loads_prev: Vec<u64>,
    /// Per-lane drawn migrations `(from, to, movers)` of the current
    /// round (draws run origin-major, applies run lane-major).
    migs_all: Vec<Vec<(StrategyId, StrategyId, u64)>>,
    /// Per-lane cursor into its CSR origin list during the origin-major
    /// draw sweep.
    cursors: Vec<usize>,
    /// Lanes participating in the current draw site (scratch).
    site_lanes: Vec<usize>,
    /// Per-strategy flags marking the union of the lanes' origin sites
    /// this round (scratch for the origin-major draw sweep).
    site_flags: Vec<bool>,
    /// The starting per-strategy counts / per-resource loads / potential,
    /// kept so [`LaneKernel::reset`] can re-point the kernel at a new
    /// lane group without reallocating.
    init_counts: Vec<u64>,
    init_loads: Vec<u64>,
    init_phi: f64,
}

impl std::fmt::Debug for LaneKernel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneKernel")
            .field("lanes", &self.lanes)
            .field("first_trial", &self.first_trial)
            .field("round", &self.round)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl<'g> LaneKernel<'g> {
    /// Create a lane group of `lanes` replicas of `protocol` on `game`,
    /// all starting from `start`; lane `l` draws the counter-mode stream
    /// of trial `first_trial + l` under `base_seed`.
    ///
    /// `lanes` is the *group size*, not the scheduler width — tails of a
    /// sweep produce narrow groups and any size ≥ 1 is accepted.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Simulation`](crate::Simulation)`::new` would:
    /// mismatched state, or a virtual-agent protocol/state disagreement.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(
        game: &'g CongestionGame,
        protocol: Protocol,
        start: &State,
        base_seed: u64,
        first_trial: u64,
        lanes: usize,
    ) -> Result<Self, DynamicsError> {
        let start = PreparedStart::new(game, &protocol, start.clone())?;
        Ok(Self::from_prepared(game, protocol, &start, base_seed, first_trial, lanes))
    }

    /// [`LaneKernel::new`] from an already prepared start: its protocol
    /// parameters and potential are copied, not recomputed, and nothing is
    /// validated. The caller supplies a `start` that
    /// [`PreparedStart::new`] prepared for this `game` and `protocol`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub(crate) fn from_prepared(
        game: &'g CongestionGame,
        protocol: Protocol,
        prepared: &PreparedStart,
        base_seed: u64,
        first_trial: u64,
        lanes: usize,
    ) -> Self {
        assert!(lanes > 0, "need at least one lane");
        let (start, params, phi) = (&prepared.state, prepared.params, prepared.potential);
        let s = game.num_strategies();
        let r = game.num_resources();
        let mut counts = vec![0u64; s * lanes];
        for (si, &c) in start.counts().iter().enumerate() {
            counts[si * lanes..(si + 1) * lanes].fill(c);
        }
        let mut loads = vec![0u64; r * lanes];
        for (ri, &ld) in start.loads().iter().enumerate() {
            loads[ri * lanes..(ri + 1) * lanes].fill(ld);
        }
        let base_loads: Vec<u64> = (0..r)
            .map(|i| {
                let rid = ResourceId::new(i as u32);
                start.effective_load(rid) - start.load(rid)
            })
            .collect();
        let lane_totals: Vec<u64> = start.counts().iter().map(|&c| c * lanes as u64).collect();
        // Worst-case union window: no lane's effective load can exceed the
        // total population plus the largest base load, so one fixed buffer
        // serves every round allocation-free.
        let max_base = base_loads.iter().copied().max().unwrap_or(0);
        let window = vec![0.0; (game.total_players() + max_base + 2) as usize];
        let dispatch = Dispatch::global();
        LaneKernel {
            game,
            protocol,
            params,
            record: RecordConfig::disabled(),
            lanes,
            first_trial,
            round: 0,
            counts,
            loads,
            base_loads,
            lane_totals,
            potentials: vec![phi; lanes],
            last_migrations: vec![0; lanes],
            active: vec![true; lanes],
            active_mask: vec![u64::MAX; lanes],
            num_active: lanes,
            errors: (0..lanes).map(|_| None).collect(),
            simd: dispatch,
            streams: LaneStreams::new(base_seed, first_trial, lanes, dispatch),
            pairs: (0..lanes)
                .map(|_| {
                    // Establish the CSR invariant up front: clears are lazy
                    // (`have_pairs`), so the first push may hit an
                    // otherwise-untouched buffer.
                    let mut pb = PairBuffer::default();
                    pb.clear();
                    pb
                })
                .collect(),
            have_pairs: false,
            scratch: start.clone(),
            lat0: vec![0.0; r * lanes],
            lat1: vec![0.0; r * lanes],
            strat_lat: vec![0.0; s * lanes],
            window,
            l_to_buf: vec![0.0; lanes],
            prob_buf: vec![0.0; lanes],
            draw_counts: Vec::new(),
            loads_prev: vec![0; r * lanes],
            migs_all: (0..lanes).map(|_| Vec::new()).collect(),
            cursors: vec![0; lanes],
            site_lanes: Vec::with_capacity(lanes),
            site_flags: vec![false; s],
            init_counts: start.counts().to_vec(),
            init_loads: start.loads().to_vec(),
            init_phi: phi,
        }
    }

    /// Force a specific vector arm (testing hook — the arms are
    /// bit-identical, see the module docs). The default is
    /// [`Dispatch::global`], which honors the `CONGAMES_SIMD` environment
    /// variable.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Self {
        // Resolve once so the steady-state loops carry an always-runnable
        // arm and skip per-op availability degradation.
        let dispatch = dispatch.resolve();
        self.simd = dispatch;
        self.streams.set_dispatch(dispatch);
        self
    }

    /// Re-point this kernel at a new lane group of the *same* game,
    /// protocol, and start state — all per-lane buffers are rewound to
    /// round 0 of trials `first_trial .. first_trial + lanes` without
    /// reallocating (tail groups may be narrower than the group the
    /// kernel was built with). After `reset`, the kernel behaves exactly
    /// like `LaneKernel::new(game, protocol, start, base_seed,
    /// first_trial, lanes)` with the same recording and dispatch
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn reset(&mut self, first_trial: u64, lanes: usize) {
        assert!(lanes > 0, "need at least one lane");
        let s = self.game.num_strategies();
        let r = self.game.num_resources();
        self.lanes = lanes;
        self.first_trial = first_trial;
        self.round = 0;
        self.counts.truncate(s * lanes);
        self.counts.resize(s * lanes, 0);
        for (si, &c) in self.init_counts.iter().enumerate() {
            self.counts[si * lanes..(si + 1) * lanes].fill(c);
        }
        self.loads.truncate(r * lanes);
        self.loads.resize(r * lanes, 0);
        for (ri, &ld) in self.init_loads.iter().enumerate() {
            self.loads[ri * lanes..(ri + 1) * lanes].fill(ld);
        }
        self.lane_totals.clear();
        self.lane_totals.extend(self.init_counts.iter().map(|&c| c * lanes as u64));
        self.potentials.clear();
        self.potentials.resize(lanes, self.init_phi);
        self.last_migrations.clear();
        self.last_migrations.resize(lanes, 0);
        self.active.clear();
        self.active.resize(lanes, true);
        self.active_mask.clear();
        self.active_mask.resize(lanes, u64::MAX);
        self.num_active = lanes;
        self.errors.clear();
        self.errors.resize_with(lanes, || None);
        self.streams.reset(first_trial, lanes);
        self.pairs.truncate(lanes);
        self.pairs.resize_with(lanes, PairBuffer::default);
        // Pair clears are lazy (guarded by `have_pairs`), so a reset must
        // scrub any leftovers itself: retired lanes can hold stale pairs
        // from their last active round.
        for pb in &mut self.pairs {
            pb.clear();
        }
        self.have_pairs = false;
        self.lat0.clear();
        self.lat0.resize(r * lanes, 0.0);
        self.lat1.clear();
        self.lat1.resize(r * lanes, 0.0);
        self.strat_lat.clear();
        self.strat_lat.resize(s * lanes, 0.0);
        self.l_to_buf.clear();
        self.l_to_buf.resize(lanes, 0.0);
        self.prob_buf.clear();
        self.prob_buf.resize(lanes, 0.0);
        self.loads_prev.clear();
        self.loads_prev.resize(r * lanes, 0);
        self.migs_all.truncate(lanes);
        self.migs_all.resize_with(lanes, Vec::new);
        self.cursors.clear();
        self.cursors.resize(lanes, 0);
    }

    /// Configure trajectory recording for [`LaneKernel::run_observed`].
    pub fn with_recording(mut self, record: RecordConfig) -> Self {
        self.record = record;
        self
    }

    /// Number of lanes in the group.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The current round index (rounds executed; all lanes share it).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether lane `l` is still running (not finished, not failed).
    pub fn lane_active(&self, l: usize) -> bool {
        self.active[l]
    }

    /// Lane `l`'s current Rosenthal potential (maintained incrementally,
    /// like the scalar engine's).
    pub fn lane_potential(&self, l: usize) -> f64 {
        self.potentials[l]
    }

    /// Lane `l`'s players that migrated in the most recent round.
    pub fn lane_migrations(&self, l: usize) -> u64 {
        self.last_migrations[l]
    }

    /// Lane `l`'s per-strategy player counts (a gathered copy).
    pub fn lane_counts(&self, l: usize) -> Vec<u64> {
        let w = self.lanes;
        (0..self.game.num_strategies()).map(|s| self.counts[s * w + l]).collect()
    }

    /// The sampling error that retired lane `l`, if any.
    pub fn lane_error(&self, l: usize) -> Option<&DynamicsError> {
        self.errors[l].as_ref()
    }

    /// Retire lane `l`: remove its counts from the union support so the
    /// shared walks stop paying for it.
    fn retire(&mut self, l: usize) {
        self.active[l] = false;
        self.active_mask[l] = 0;
        self.num_active -= 1;
        let w = self.lanes;
        for s in 0..self.game.num_strategies() {
            self.lane_totals[s] -= self.counts[s * w + l];
        }
    }

    /// Execute one concurrent round on every active lane (a no-op when
    /// none are). A lane whose multinomial fails retires with its error
    /// recorded ([`LaneKernel::lane_error`]); the other lanes continue.
    pub fn step(&mut self) {
        if self.num_active == 0 {
            return;
        }
        self.eval_latencies();
        self.build_strategy_latencies();
        self.build_pairs();
        self.draw_and_apply();
        self.round += 1;
    }

    /// Fill `lat0`/`lat1` (`ℓ(x)`, `ℓ(x+1)` per resource per lane) with
    /// one batched evaluation over the union load window per resource.
    fn eval_latencies(&mut self) {
        let w = self.lanes;
        let all_live = self.num_active == w;
        for (ri, resource) in self.game.resources().iter().enumerate() {
            let base = self.base_loads[ri];
            let row = &self.loads[ri * w..(ri + 1) * w];
            // Raw-load window bounds: `base` is constant per resource, so
            // min/max over raw loads + base equals min/max over effective
            // loads. The full-group fast path runs the across-lane
            // reduction unmasked.
            let (raw_lo, lo, hi);
            if all_live {
                let (min_raw, max_raw) = simd::min_max_u64(self.simd, row);
                raw_lo = min_raw;
                lo = min_raw + base;
                hi = max_raw + base;
            } else {
                let mut min_eff = u64::MAX;
                let mut max_eff = 0u64;
                for (l, &ld) in row.iter().enumerate() {
                    if self.active[l] {
                        let eff = ld + base;
                        min_eff = min_eff.min(eff);
                        max_eff = max_eff.max(eff);
                    }
                }
                if min_eff == u64::MAX {
                    continue;
                }
                raw_lo = min_eff - base;
                lo = min_eff;
                hi = max_eff;
            }
            // Evaluate loads `lo ..= hi + 1` once; every lane's pair is a
            // gather from the window. `eval_range_into` is bit-identical
            // to pointwise `value` for every latency family (pinned in
            // `congames-model::latency`), so the gathered entries match
            // the scalar cache exactly.
            let n = (hi - lo + 2) as usize;
            let buf = &mut self.window[..n];
            resource.latency().eval_range_into(lo, 0..n as u64, buf);
            let lat0 = &mut self.lat0[ri * w..(ri + 1) * w];
            let lat1 = &mut self.lat1[ri * w..(ri + 1) * w];
            if all_live && n == 2 {
                // Every lane sits on the same load (the converged common
                // case): the gather is a broadcast of the two-entry window.
                lat0.fill(buf[0]);
                lat1.fill(buf[1]);
            } else if all_live {
                simd::gather_window_pairs(self.simd, buf, row, raw_lo, lat0, lat1);
            } else {
                for l in 0..w {
                    if self.active[l] {
                        let off = (row[l] - raw_lo) as usize;
                        lat0[l] = buf[off];
                        lat1[l] = buf[off + 1];
                    }
                }
            }
        }
    }

    /// Fill `strat_lat` for every strategy in the union support,
    /// accumulating `lat0` rows in resource order from the `-0.0`
    /// identity — the exact float sequence of the scalar per-strategy
    /// cache rebuild (`resources().iter().map(..).sum()`).
    fn build_strategy_latencies(&mut self) {
        let w = self.lanes;
        for (si, strat) in self.game.strategies().iter().enumerate() {
            if self.lane_totals[si] == 0 {
                continue;
            }
            let out = &mut self.strat_lat[si * w..(si + 1) * w];
            // `-0.0 + v` is bitwise `v` for every `v` (including both
            // zeros), so seeding the accumulator with a copy of the first
            // row is identical to `fill(-0.0)` plus its add.
            let mut rest = strat.resources();
            match rest.split_first() {
                None => out.fill(-0.0),
                Some((&first, tail)) => {
                    out.copy_from_slice(&self.lat0[first.index() * w..(first.index() + 1) * w]);
                    rest = tail;
                }
            }
            for &r in rest {
                let row = &self.lat0[r.index() * w..(r.index() + 1) * w];
                simd::add_assign(self.simd, out, row);
            }
        }
    }

    /// Mirror of the scalar `for_each_pair` across all lanes: walk the
    /// union `(from, to)` pair space once, compute each lane's migration
    /// probability from its own column, and push positive-probability
    /// pairs into that lane's CSR buffer. Per lane, the resulting pair
    /// list is exactly the scalar engine's — the union only adds pairs
    /// the lane's own conditions (zero origin count, zero sampling
    /// weight) filter back out.
    fn build_pairs(&mut self) {
        let w = self.lanes;
        // A round that pushed nothing leaves every buffer empty, so the
        // clears only run after rounds that actually built pairs.
        if self.have_pairs {
            for (l, pb) in self.pairs.iter_mut().enumerate() {
                if self.active[l] {
                    pb.clear();
                }
            }
        }
        self.have_pairs = false;
        let (explore_prob, imit, expl) = match &self.protocol {
            Protocol::Imitation(p) => (0.0, Some(p), None),
            Protocol::Exploration(p) => (1.0, None, Some(p)),
            Protocol::Combined { imitation, exploration, explore_prob } => {
                (*explore_prob, Some(imitation), Some(exploration))
            }
        };
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        for class in self.game.classes() {
            let n_c = class.players();
            if n_c == 0 {
                continue;
            }
            let s_c = class.num_strategies();
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
            let support_dest = explore_scale == 0.0 && !virtual_agents;
            // Pure imitation without virtual agents is the paper's default
            // protocol and the only shape whose per-lane probability is a
            // single branch-free formula; it runs the across-lane vector
            // arm. `coef` pre-divides λ/d — the scalar μ is
            // `((λ/d)·gain)/ℓ_from`, left-associated, so factoring the
            // division out is operation-identical.
            let pure_imit = support_dest && imit_scale > 0.0;
            let (coef, thr) = match imit {
                Some(p) if pure_imit => {
                    (p.lambda() / p.damping_factor(&self.params), p.gain_threshold(&self.params))
                }
                _ => (0.0, 0.0),
            };
            for from_raw in class.strategy_range() {
                let from = StrategyId::new(from_raw);
                let fi = from.index();
                if self.lane_totals[fi] == 0 {
                    continue;
                }
                let from_res = self.game.strategy(from).resources();
                for to_raw in class.strategy_range() {
                    if to_raw == from_raw {
                        continue;
                    }
                    let to = StrategyId::new(to_raw);
                    let ti = to.index();
                    if support_dest && self.lane_totals[ti] == 0 {
                        continue;
                    }
                    // Skip the latency walk when no lane can sample this
                    // pair (the scalar early-out, unioned over lanes).
                    let cf_row = &self.counts[fi * w..(fi + 1) * w];
                    let ct_row = &self.counts[ti * w..(ti + 1) * w];
                    let need = if explore_scale > 0.0 || virtual_agents {
                        simd::any_nonzero(self.simd, cf_row, &self.active_mask)
                    } else {
                        simd::any_pair_nonzero(self.simd, cf_row, ct_row, &self.active_mask)
                    };
                    if !need {
                        continue;
                    }
                    // One sorted merge walk over (to, from) resource lists
                    // accumulates every lane's `ℓ_Q(x + 1_Q − 1_P)` —
                    // same resource order and `0.0` start as the scalar
                    // `latency_after_move`.
                    let to_res = self.game.strategy(to).resources();
                    let lto = &mut self.l_to_buf[..w];
                    lto.fill(0.0);
                    let mut i = 0usize;
                    for &r in to_res {
                        while i < from_res.len() && from_res[i] < r {
                            i += 1;
                        }
                        let shared = i < from_res.len() && from_res[i] == r;
                        let table = if shared { &self.lat0 } else { &self.lat1 };
                        let row = &table[r.index() * w..(r.index() + 1) * w];
                        simd::add_assign(self.simd, lto, row);
                    }
                    if pure_imit {
                        // Across-lane arm: identical per-lane operation
                        // sequence, masked to the lanes the scalar loop
                        // would push (see `congames_simd`'s contract).
                        let any_pos = simd::imitation_pair_probs(
                            self.simd,
                            cf_row,
                            ct_row,
                            &self.active_mask,
                            &self.strat_lat[fi * w..(fi + 1) * w],
                            &self.l_to_buf[..w],
                            imit_scale,
                            coef,
                            thr,
                            &mut self.prob_buf[..w],
                        );
                        if any_pos {
                            self.have_pairs = true;
                            for (l, &prob) in self.prob_buf[..w].iter().enumerate() {
                                if prob > 0.0 {
                                    self.pairs[l].push(from, to, prob);
                                }
                            }
                        }
                        continue;
                    }
                    for l in 0..w {
                        if !self.active[l] || self.counts[fi * w + l] == 0 {
                            continue;
                        }
                        let x_to = self.counts[ti * w + l];
                        let weight = x_to as f64 + if virtual_agents { 1.0 } else { 0.0 };
                        let imit_w = if weight > 0.0 { imit_scale * weight } else { 0.0 };
                        if imit_w == 0.0 && explore_scale == 0.0 {
                            continue;
                        }
                        let l_from = self.strat_lat[fi * w + l];
                        let gain = l_from - self.l_to_buf[l];
                        let mut prob = 0.0;
                        if imit_w > 0.0 {
                            let p = imit.expect("imit_w > 0 implies imitation component");
                            prob += imit_w * imitation_mu(p, &self.params, l_from, gain);
                        }
                        if explore_scale > 0.0 {
                            let p = expl.expect("explore_scale > 0 implies exploration component");
                            prob += explore_scale
                                * exploration_mu(p, &self.params, l_from, gain, s_c, n_c);
                        }
                        if prob > 0.0 {
                            self.have_pairs = true;
                            self.pairs[l].push(from, to, prob);
                        }
                    }
                }
            }
        }
    }

    /// Draw each lane's per-origin multinomials and apply the migrations —
    /// the lane mirror of the scalar `aggregate_round` + apply/delta tail
    /// of `Simulation::step`.
    ///
    /// The draw sweep runs *origin-major*: each lane's origin list is an
    /// ascending strategy walk (the CSR builder visits classes and
    /// strategies in id order), so one pass over strategy ids with
    /// per-lane cursors visits every lane's origins in its own order while
    /// grouping the lanes that share a site. Each shared site's first
    /// keystream block is then one batched across-lane Philox sweep
    /// ([`LaneStreams::prime_site`]); draws past the first block fall back
    /// to the lanes' sequential walk. Counter addressing makes the
    /// reordering invisible: every variate is a pure function of its
    /// `(trial, round, site, index)` address, so each lane consumes
    /// exactly the words the lane-major (and scalar) order would.
    fn draw_and_apply(&mut self) {
        let w = self.lanes;
        let r_count = self.game.num_resources();
        let round = self.round;
        // A converged round builds no pairs at all: nothing to draw means
        // nothing moves and `ΔΦ = 0`, so the sweep returns before touching
        // any per-lane buffer.
        if !self.have_pairs {
            for l in 0..w {
                if self.active[l] {
                    self.last_migrations[l] = 0;
                }
            }
            return;
        }
        // Union of the lanes' origin sites: one pass over the CSR origin
        // lists (each ascending) bounds the site loop to the strategies
        // some lane actually draws at.
        self.site_flags.fill(false);
        for l in 0..w {
            if !self.active[l] || self.errors[l].is_some() {
                continue;
            }
            for &o in &self.pairs[l].origins {
                self.site_flags[o.index()] = true;
            }
        }
        // One contiguous pre-round snapshot serves every lane's potential
        // delta (failed lanes never apply, so their columns stay pristine).
        self.loads_prev.copy_from_slice(&self.loads);
        for l in 0..w {
            self.migs_all[l].clear();
            self.cursors[l] = 0;
        }
        for si in 0..self.game.num_strategies() {
            if !self.site_flags[si] {
                continue;
            }
            self.site_lanes.clear();
            for l in 0..w {
                if !self.active[l] || self.errors[l].is_some() {
                    continue;
                }
                let pb = &self.pairs[l];
                let j = self.cursors[l];
                if j < pb.origins.len() && pb.origins[j].index() == si {
                    self.site_lanes.push(l);
                }
            }
            if self.site_lanes.is_empty() {
                continue;
            }
            self.streams.prime_site(round, si as u64, &self.site_lanes);
            for k in 0..self.site_lanes.len() {
                let l = self.site_lanes[k];
                let j = self.cursors[l];
                self.cursors[l] = j + 1;
                let pairs = &self.pairs[l];
                let from = pairs.origins[j];
                let slice = pairs.offsets[j]..pairs.offsets[j + 1];
                let x_from = self.counts[from.index() * w + l];
                match multinomial_with_rest_into(
                    self.streams.rng_mut(l),
                    x_from,
                    &pairs.pair_prob[slice.clone()],
                    &mut self.draw_counts,
                ) {
                    Ok(_stay) => {
                        for (&to, &k) in pairs.pair_to[slice].iter().zip(&self.draw_counts) {
                            if k > 0 {
                                self.migs_all[l].push((from, to, k));
                            }
                        }
                    }
                    Err(e) => {
                        // First failing origin (origins ascend per lane, so
                        // this is the origin the scalar run fails at); the
                        // lane's later sites are skipped above.
                        self.errors[l] = Some(e.into());
                    }
                }
            }
        }
        for l in 0..w {
            if !self.active[l] {
                continue;
            }
            if self.errors[l].is_some() {
                // The scalar run surfaces the error without applying the
                // round; retire the lane at its pre-round state.
                self.retire(l);
                continue;
            }
            if self.migs_all[l].is_empty() {
                // Nothing moved: loads are unchanged, `ΔΦ = 0` (the
                // potential row is never `-0.0`, so skipping the `+= 0.0`
                // is bit-identical).
                self.last_migrations[l] = 0;
                continue;
            }
            let mut moved = 0u64;
            for &(from, to, k) in &self.migs_all[l] {
                moved += k;
                self.counts[from.index() * w + l] -= k;
                self.counts[to.index() * w + l] += k;
                self.lane_totals[from.index()] -= k;
                self.lane_totals[to.index()] += k;
                for &r in self.game.strategy(from).resources() {
                    self.loads[r.index() * w + l] -= k;
                }
                for &r in self.game.strategy(to).resources() {
                    self.loads[r.index() * w + l] += k;
                }
            }
            let mut delta = 0.0;
            for r in 0..r_count {
                let old = self.loads_prev[r * w + l];
                let new = self.loads[r * w + l];
                if old != new {
                    delta += potential_delta_for_load_change(
                        self.game,
                        ResourceId::new(r as u32),
                        self.base_loads[r],
                        old,
                        new,
                    );
                }
            }
            self.potentials[l] += delta;
            self.last_migrations[l] = moved;
        }
    }

    /// Run every lane until its stop condition fires, streaming each
    /// lane's recorded rounds into its observer. Each lane goes through
    /// the same run driver as `Simulation::run_observed` — one stop
    /// evaluation and one record cadence (start record, cadence records,
    /// deduplicated stop record) — reading the lane's state, gathered into
    /// scratch at most once per lane-round and only when a record or a
    /// due expensive stop condition needs it. Outputs are returned in lane
    /// (= trial) order.
    ///
    /// # Errors
    ///
    /// If any lane's replica fails, the lowest lane's error is returned as
    /// `(lane, error)` — the error the scalar sequential sweep of the same
    /// trials would surface first. Lanes that already finished are
    /// discarded, exactly as a failing scalar sweep discards its partial
    /// reduction.
    ///
    /// # Panics
    ///
    /// Panics if `observers.len() != self.lanes()`.
    pub fn run_observed<O: Observer>(
        &mut self,
        stop: &StopSpec,
        observers: Vec<O>,
    ) -> Result<Vec<O::Output>, (usize, DynamicsError)> {
        let w = self.lanes;
        assert_eq!(observers.len(), w, "one observer per lane");
        let mut observers: Vec<Option<O>> = observers.into_iter().map(Some).collect();
        let mut outputs: Vec<Option<O::Output>> = (0..w).map(|_| None).collect();
        let driver = RunDriver::new(stop, self.record, self.round);
        let nu = self.protocol.stability_threshold(&self.params);
        loop {
            for l in 0..w {
                if !self.active[l] {
                    continue;
                }
                let at = RoundState {
                    round: self.round,
                    potential: self.potentials[l],
                    migrations: self.last_migrations[l],
                    shock: false,
                    deferred: false,
                    nu,
                };
                let mut view = LaneView {
                    game: self.game,
                    scratch: &mut self.scratch,
                    counts: &self.counts,
                    loads: &self.loads,
                    lanes: w,
                    lane: l,
                    gathered: false,
                };
                let observer = observers[l].as_mut().expect("active lane has its observer");
                if let Some(summary) = driver.visit(&at, &mut view, observer) {
                    let observer = observers[l].take().expect("active lane has its observer");
                    outputs[l] = Some(observer.finish(&summary));
                    self.retire(l);
                }
            }
            if self.num_active == 0 {
                break;
            }
            self.step();
        }
        for l in 0..w {
            if let Some(e) = self.errors[l].take() {
                return Err((l, e));
            }
        }
        Ok(outputs.into_iter().map(|o| o.expect("every non-erroring lane finished")).collect())
    }
}

/// Lane `lane` of a group as the run driver reads it: gathered into the
/// kernel's scratch state on first use, at most once per lane-round.
struct LaneView<'a> {
    game: &'a CongestionGame,
    scratch: &'a mut State,
    counts: &'a [u64],
    loads: &'a [u64],
    lanes: usize,
    lane: usize,
    gathered: bool,
}

impl StateView for LaneView<'_> {
    fn get(&mut self) -> (&CongestionGame, &State) {
        if !self.gathered {
            self.scratch.assign_lane_column(self.counts, self.loads, self.lanes, self.lane);
            self.scratch.ensure_latency_cache(self.game);
            self.scratch.ensure_support_index(self.game);
            self.gathered = true;
        }
        (self.game, self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::protocol::ImitationProtocol;
    use crate::stopping::StopCondition;
    use congames_model::Affine;
    use congames_sampling::{DrawStream, RngMode};

    fn affine_links(n: u64) -> CongestionGame {
        CongestionGame::singleton(
            vec![
                Affine::new(1.0, 4.0).into(),
                Affine::new(2.0, 2.0).into(),
                Affine::new(3.0, 1.0).into(),
                Affine::linear(4.0).into(),
            ],
            n,
        )
        .unwrap()
    }

    #[test]
    fn lanes_match_scalar_counter_runs_bitwise() {
        let game = affine_links(120);
        let start = State::from_counts(&game, vec![60, 30, 20, 10]).unwrap();
        let protocol: Protocol = ImitationProtocol::paper_default().into();
        let base_seed = 20090808;
        let lanes = 8;
        let mut kernel = LaneKernel::new(&game, protocol, &start, base_seed, 3, lanes).unwrap();
        let mut sims: Vec<(Simulation<'_>, DrawStream)> = (0..lanes)
            .map(|l| {
                let sim = Simulation::new(&game, protocol, start.clone()).unwrap();
                let rng = DrawStream::for_trial(RngMode::Counter, base_seed, 3 + l as u64);
                (sim, rng)
            })
            .collect();
        for round in 0..25 {
            kernel.step();
            for (l, (sim, rng)) in sims.iter_mut().enumerate() {
                let stats = sim.step(rng).unwrap();
                assert_eq!(
                    kernel.lane_counts(l),
                    sim.state().counts(),
                    "round {round} lane {l} counts"
                );
                assert_eq!(
                    kernel.lane_potential(l).to_bits(),
                    sim.potential().to_bits(),
                    "round {round} lane {l} potential"
                );
                assert_eq!(
                    kernel.lane_migrations(l),
                    stats.migrations,
                    "round {round} lane {l} migrations"
                );
            }
        }
    }

    #[test]
    fn narrow_tail_group_is_accepted() {
        let game = affine_links(40);
        let start = State::from_counts(&game, vec![20, 10, 6, 4]).unwrap();
        let protocol: Protocol = ImitationProtocol::paper_default().into();
        let mut kernel = LaneKernel::new(&game, protocol, &start, 7, 0, 3).unwrap();
        for _ in 0..5 {
            kernel.step();
        }
        let mut sim = Simulation::new(&game, protocol, start).unwrap();
        let mut rng = DrawStream::for_trial(RngMode::Counter, 7, 2);
        for _ in 0..5 {
            sim.step(&mut rng).unwrap();
        }
        assert_eq!(kernel.lane_counts(2), sim.state().counts());
    }

    #[test]
    fn run_observed_matches_scalar_summaries() {
        use crate::observe::FinalSummary;
        let game = affine_links(80);
        let start = State::from_counts(&game, vec![50, 20, 6, 4]).unwrap();
        let protocol: Protocol = ImitationProtocol::paper_default().into();
        let stop =
            StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(200)])
                .with_check_every(4);
        let mut kernel = LaneKernel::new(&game, protocol, &start, 99, 0, 4).unwrap();
        let outs = kernel.run_observed(&stop, (0..4).map(|_| FinalSummary).collect()).unwrap();
        for (l, out) in outs.iter().enumerate() {
            let mut sim = Simulation::new(&game, protocol, start.clone()).unwrap();
            let mut rng = DrawStream::for_trial(RngMode::Counter, 99, l as u64);
            let scalar = sim.run_observed(&stop, &mut rng, &mut FinalSummary).unwrap();
            assert_eq!(out.reason, scalar.reason, "lane {l}");
            assert_eq!(out.rounds, scalar.rounds, "lane {l}");
            assert_eq!(out.potential.to_bits(), scalar.potential.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn rejects_mismatched_state() {
        let game = affine_links(10);
        let other = affine_links(12);
        let bad = State::from_counts(&other, vec![6, 3, 2, 1]).unwrap();
        let protocol: Protocol = ImitationProtocol::paper_default().into();
        assert!(LaneKernel::new(&game, protocol, &bad, 0, 0, 8).is_err());
    }
}
