//! Deterministic parallel ensembles of simulations.
//!
//! Verifying the paper's statistical claims (the Lemma 2 drift bound,
//! Theorem 7's pseudopolynomial convergence) means running thousands of
//! independent replicas of the same simulation. [`Ensemble`] is the
//! subsystem for that: it runs `trials` replicas of a [`Simulation`] across
//! a pool of scoped threads, deriving the replica seeds with
//! [`congames_sampling::split_seed`], and returns the outcomes **in trial
//! order** — the result is bit-identical for any thread count, because each
//! replica's randomness depends only on `(base_seed, trial_index)` and
//! never on scheduling.
//!
//! Two batch shapes are offered. [`Ensemble::run`] / [`Ensemble::run_with`]
//! materialize one value per replica; [`Ensemble::run_reduced`] streams
//! every replica's observed output into a [`Reducer`] so a 10⁵-trial sweep
//! reduces online in memory independent of the trial count — same
//! bit-identical-across-thread-counts guarantee, via a reduction tree that
//! is a function of the trial count alone.
//!
//! Every reduced sweep runs on one *leaf pipeline*: trials are cut into
//! [`REDUCE_BLOCK`]-trial blocks, workers claim scheduling units (one
//! block, or two for a 64-lane group) in order under a bounded reorder
//! window, each unit runs on the scalar engine or the [`LaneKernel`] — the
//! one place the two kernels part ways — and the block partials (the
//! reduction tree's *leaves*) leave the pipeline in block order.
//! [`Ensemble::run_reduced`] merges them all; [`Ensemble::run_reduced_shard`]
//! returns the leaves of one shard's block range. The same pipeline runs
//! at one thread (on the calling thread) and at many, and it has one
//! failure rule: a failing unit stops all claims past it, the units before
//! it run to completion, and the lowest failing unit's error or panic is
//! what the sweep reports — for every thread and shard count.
//!
//! The lower-level [`run_indexed`] primitive (a panic-transparent indexed
//! parallel map) is exported for harnesses that fan out non-simulation
//! work; `congames-analysis::run_trials` builds on it. All batch entry
//! points share one empty-input contract: zero tasks/trials yield an empty
//! result (for the reducer path, the untouched identity reduction) rather
//! than panicking.

use congames_model::{CongestionGame, State};
use congames_sampling::{split_seed, DrawStream, RngMode};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::engine::{EngineKind, PreparedStart, Simulation};
use crate::error::DynamicsError;
use crate::hook::RoundHook;
use crate::lanes::{LaneKernel, LANE_WIDTHS};
use crate::observe::Observer;
use crate::protocol::Protocol;
use crate::reduce::Reducer;
use crate::stopping::{RunOutcome, StopSpec};
use crate::trajectory::RecordConfig;

/// Trials per reduction block in [`Ensemble::run_reduced`]. The block
/// structure is a function of the trial count alone — never of the thread
/// count, schedule, or shard split — which is what makes reduced results
/// bit-identical across thread counts, and what lets a multi-process
/// sharded sweep ([`Ensemble::run_reduced_shard`] + `congames merge`)
/// replay the same reduction tree and land on the same bits.
pub const REDUCE_BLOCK: usize = 32;

/// Run `f(0), f(1), …, f(tasks − 1)` across up to `threads` scoped worker
/// threads and return the results **in index order**.
///
/// Work is claimed dynamically (an atomic counter), so the schedule adapts
/// to uneven task durations — but because results are written to their own
/// slot, the output never depends on the schedule. Zero tasks return an
/// empty `Vec` — the workspace-wide empty-input contract shared with
/// `congames_analysis::run_trials` and [`Ensemble::run_reduced`] (which
/// returns its identity reduction).
///
/// # Panics
///
/// Panics if `threads == 0`. If a task panics, the remaining workers stop
/// claiming new tasks and the **original panic payload** is re-raised on
/// the calling thread (the lowest-index payload when several tasks panic
/// concurrently), so the root cause is what the caller sees — not a
/// secondary "scoped thread panicked" shell.
pub fn run_indexed<T: Send>(tasks: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(threads > 0, "need at least one thread");
    if tasks == 0 {
        return Vec::new();
    }
    if threads == 1 || tasks == 1 {
        // Sequential fast path: panics already propagate untouched.
        return (0..tasks).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    type Panic = Box<dyn std::any::Any + Send + 'static>;
    let first_panic: Mutex<Option<(usize, Panic)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(tasks) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks || abort.load(Ordering::Relaxed) {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(out) => {
                        let mut slot =
                            slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        *slot = Some(out);
                    }
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut first =
                            first_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        if first.as_ref().map_or(true, |(j, _)| i < *j) {
                            *first = Some((i, payload));
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some((_, payload)) =
        first_panic.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every task index was claimed exactly once")
        })
        .collect()
}

/// A batch of independent simulation replicas: one game, protocol, and
/// start state, run `trials` times with per-trial seeds derived from a
/// base seed, optionally across threads.
///
/// Replica `i` always receives the stream
/// `DrawStream::for_trial(rng_mode, base_seed, i)` — in xoshiro mode the
/// historical `SmallRng::seed_from_u64(split_seed(base_seed, i))` stream,
/// in counter mode the Philox stream keyed by the base seed and addressed
/// by `(trial, round, site, index)` — and its own copy of the start state,
/// so the returned outcomes are **bit-identical regardless of the thread
/// count** and reproducible across runs.
///
/// The start is prepared once, in [`Ensemble::new`]: its latency cache and
/// support index, its Rosenthal potential, the game's protocol parameters
/// and class offsets — plus the explicit player array, built when
/// [`Ensemble::engine`] selects [`EngineKind::PlayerLevel`]. Every
/// trial and every lane group starts from a copy of that preparation
/// instead of recomputing it. All of it is a pure function of the game and
/// the start state, so each trial's bits are those of a standalone
/// [`Simulation::new`] run.
///
/// # Example
///
/// ```
/// use congames_dynamics::{Ensemble, ImitationProtocol, StopSpec};
/// use congames_model::{Affine, CongestionGame, State};
///
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     100,
/// )?;
/// let start = State::from_counts(&game, vec![90, 10])?;
/// let outcomes = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
///     .trials(8)
///     .base_seed(42)
///     .threads(4)
///     .run(&StopSpec::max_rounds(50))?;
/// assert_eq!(outcomes.len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ensemble<'g> {
    game: &'g CongestionGame,
    protocol: Protocol,
    /// The validated start, prepared once; every trial begins from a copy.
    start: PreparedStart,
    engine: EngineKind,
    record: RecordConfig,
    trials: usize,
    base_seed: u64,
    threads: usize,
    rng_mode: RngMode,
    /// Builds one fresh [`RoundHook`] per replica, so every trial replays
    /// the same event schedule against its own simulation. `None` for
    /// stationary ensembles.
    round_hook: Option<std::sync::Arc<dyn Fn() -> Box<dyn RoundHook> + Send + Sync>>,
    /// When set, the reduced paths run trials through the replica-major
    /// [`LaneKernel`] in lockstep groups of at most this width.
    lane_width: Option<usize>,
}

impl std::fmt::Debug for Ensemble<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("game", &self.game)
            .field("protocol", &self.protocol)
            .field("start", &self.start.state)
            .field("engine", &self.engine)
            .field("record", &self.record)
            .field("trials", &self.trials)
            .field("base_seed", &self.base_seed)
            .field("threads", &self.threads)
            .field("rng_mode", &self.rng_mode)
            .field("round_hook", &self.round_hook.as_ref().map(|_| "<factory>"))
            .field("lane_width", &self.lane_width)
            .finish()
    }
}

impl<'g> Ensemble<'g> {
    /// Create an ensemble of simulations of `protocol` on `game` starting
    /// from `start`, with 1 trial, base seed 0, [`Ensemble::default_threads`]
    /// threads, the default engine, and no recording.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Simulation::new`] would: mismatched state, or a
    /// virtual-agent protocol/state disagreement. Validation happens here,
    /// once, together with the start's preparation (see the type docs),
    /// instead of in every replica.
    pub fn new(
        game: &'g CongestionGame,
        protocol: Protocol,
        start: State,
    ) -> Result<Self, DynamicsError> {
        // Validate and prepare the start once (what `Simulation::new` does
        // per call); `make_sim` and the lane kernels copy the result.
        let start = PreparedStart::new(game, &protocol, start)?;
        Ok(Ensemble {
            game,
            protocol,
            start,
            engine: EngineKind::default(),
            record: RecordConfig::disabled(),
            trials: 1,
            base_seed: 0,
            threads: Self::default_threads(),
            rng_mode: RngMode::Xoshiro,
            round_hook: None,
            lane_width: None,
        })
    }

    /// A conservative thread count for trial parallelism: the machine's
    /// available parallelism, capped at 8.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map(|p| p.get().min(8)).unwrap_or(4)
    }

    /// Select the round engine for every replica.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self.start.set_engine(self.game, engine);
        self
    }

    /// Configure trajectory recording for every replica.
    pub fn recording(mut self, record: RecordConfig) -> Self {
        self.record = record;
        self
    }

    /// Set the number of replicas.
    ///
    /// Zero is allowed and uniform across the batch APIs: [`Ensemble::run`]
    /// and [`Ensemble::run_with`] return an empty `Vec`, and
    /// [`Ensemble::run_reduced`] returns the untouched reducer (the
    /// *identity reduction*) — the same contract as [`run_indexed`] with
    /// zero tasks and `congames_analysis::run_trials` with zero trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Set the base seed replica seeds derive from.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Select the RNG backend every replica draws from (default:
    /// [`RngMode::Xoshiro`], the historical sequential stream).
    pub fn rng_mode(mut self, mode: RngMode) -> Self {
        self.rng_mode = mode;
        self
    }

    /// The RNG backend replicas draw from.
    pub fn get_rng_mode(&self) -> RngMode {
        self.rng_mode
    }

    /// Attach a nonstationary scenario: `factory` builds one fresh
    /// [`RoundHook`] per replica (hooks are stateful cursors, so they
    /// cannot be shared), and every replica — including every shard of a
    /// sharded sweep — replays the same event schedule. Hooks are RNG-free
    /// by contract, so all the ensemble's bit-identity guarantees (thread
    /// counts, shard/merge, both RNG backends) carry over unchanged.
    pub fn with_round_hook(
        mut self,
        factory: impl Fn() -> Box<dyn RoundHook> + Send + Sync + 'static,
    ) -> Self {
        self.round_hook = Some(std::sync::Arc::new(factory));
        self
    }

    /// Run the reduced paths through the replica-major [`LaneKernel`]:
    /// trials are grouped into lockstep lane blocks of at most `width`
    /// replicas (one of [`LANE_WIDTHS`]), aligned with the
    /// [`REDUCE_BLOCK`]-trial reduction blocks (widths ≤ 32 slice a block,
    /// width 64 pairs two). Counter mode only: each lane's trajectory is
    /// bit-identical to the scalar counter-mode run of its trial, so
    /// reduced results — and the thread-count and shard/merge identities —
    /// are **byte-identical with the lane kernel on or off**; only
    /// wall-clock changes. Validated when a reduced run starts: the width
    /// must be one of [`LANE_WIDTHS`], with counter-mode RNG, the aggregate
    /// engine, and no round hook.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = Some(width);
        self
    }

    /// The configured lane width, if any.
    pub fn get_lane_width(&self) -> Option<usize> {
        self.lane_width
    }

    /// Check a [`Ensemble::lane_width`] configuration, if one is set: the
    /// width must be one of [`LANE_WIDTHS`], the RNG backend must be
    /// counter mode (lane bit-identity is a property of addressed draws),
    /// the engine must be the aggregate kernel, and no round hook may be
    /// attached (scenario schedules mutate the game, which lanes share).
    fn validate_lane_config(&self) -> Result<(), DynamicsError> {
        let Some(width) = self.lane_width else {
            return Ok(());
        };
        if !LANE_WIDTHS.contains(&width) {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_width",
                message: "lane width must be one of 8, 16, 32, 64",
            });
        }
        if self.rng_mode != RngMode::Counter {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_width",
                message: "the lane kernel requires counter-mode RNG (rng_mode(RngMode::Counter))",
            });
        }
        if self.engine != EngineKind::Aggregate {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_width",
                message: "the lane kernel supports only the aggregate engine",
            });
        }
        if self.round_hook.is_some() {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_width",
                message: "the lane kernel does not support round hooks (nonstationary scenarios)",
            });
        }
        Ok(())
    }

    /// One replica simulation, started from a copy of the prepared start
    /// (nothing is re-validated or recomputed), with the engine, recording,
    /// and (if any) scenario hook attached — the single constructor all
    /// scalar run paths use.
    fn make_sim(&self) -> Simulation<'g> {
        let mut sim = Simulation::from_prepared(self.game, self.protocol, self.start.clone())
            .with_engine(self.engine)
            .with_recording(self.record);
        if let Some(factory) = &self.round_hook {
            sim = sim.with_hook(factory());
        }
        sim
    }

    /// Set the worker-thread budget (clamped to at least 1). The results
    /// are identical for every choice; only wall-clock time changes.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The seed replica `trial` derives its xoshiro stream from
    /// (`split_seed(base_seed, trial)`; see `congames-sampling::seeds`). In
    /// counter mode the trial index addresses the stream directly and this
    /// seed is unused.
    pub fn trial_seed(&self, trial: usize) -> u64 {
        split_seed(self.base_seed, trial as u64)
    }

    /// The replica stream for `trial` — the single constructor all run
    /// paths use (`run_with`, `run_reduced`, sharded runs).
    fn trial_stream(&self, trial: usize) -> DrawStream {
        DrawStream::for_trial(self.rng_mode, self.base_seed, trial as u64)
    }

    /// Run every replica until `stop` fires; outcomes in trial order.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest trial index) replica error, if any.
    pub fn run(&self, stop: &StopSpec) -> Result<Vec<RunOutcome>, DynamicsError> {
        self.run_with(stop, |_, outcome| outcome)
    }

    /// Run every replica and map `(finished simulation, outcome)` through
    /// `f` — use this to extract final-state statistics without cloning
    /// whole trajectories. Results are in trial order.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest trial index) replica error, if any.
    pub fn run_with<T: Send>(
        &self,
        stop: &StopSpec,
        f: impl Fn(&Simulation<'_>, RunOutcome) -> T + Sync,
    ) -> Result<Vec<T>, DynamicsError> {
        if self.lane_width.is_some() {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_width",
                message: "lane groups stream through run_reduced/run_reduced_shard; \
                          run/run_with are scalar-only",
            });
        }
        let results = run_indexed(self.trials, self.threads, |trial| {
            let mut sim = self.make_sim();
            let mut rng = self.trial_stream(trial);
            let outcome = sim.run(stop, &mut rng)?;
            Ok(f(&sim, outcome))
        });
        results.into_iter().collect()
    }

    /// Run every replica and fold the per-trial observer outputs into
    /// `reducer` **online** — the memory-bounded path for large sweeps: no
    /// per-trial `Trajectory`, outcome `Vec`, or any other
    /// `O(trials · rounds)` collection is ever materialized. Live memory is
    /// `O(threads · (observer + reducer partial))`; for the stock
    /// [`RecordSeries`](crate::RecordSeries) →
    /// [`PerRoundStats`](crate::PerRoundStats) pipeline that is
    /// `O(threads · recorded_rounds)`, independent of the trial count.
    ///
    /// `observer_factory(trial)` builds the per-trial observer (give the
    /// ensemble a [`RecordConfig`] via [`Ensemble::recording`] if the
    /// observer wants per-round records; summary-only observers such as
    /// [`FinalSummary`](crate::FinalSummary) need no recording at all).
    ///
    /// # Determinism
    ///
    /// Trials are partitioned into fixed-size consecutive blocks
    /// (currently 32 trials); each block partial starts from
    /// `reducer.identity()`, absorbs its trials in trial order, and the
    /// partials are merged into the accumulator **in block order**. The
    /// reduction tree therefore depends only on the trial count, so the
    /// returned reducer is **bit-identical for every thread count** — the
    /// same contract the outcome-level APIs pin for threads 1/2/8.
    /// Workers claim blocks in order but a bounded reorder window (a small
    /// multiple of the thread count) keeps pending partials — and hence
    /// memory — bounded even when early blocks run long. With a
    /// [`Ensemble::lane_width`] the blocks' trials run in lockstep lane
    /// groups; the per-trial outputs, and so the bits, are the same.
    ///
    /// With zero trials the reducer is returned untouched (the identity
    /// reduction; see [`Ensemble::trials`]).
    ///
    /// # Errors
    ///
    /// An invalid lane configuration is rejected before anything runs,
    /// even with zero trials. A failing scheduling unit (one block, or
    /// the two blocks of a 64-lane group) stops the sweep from claiming
    /// any unit after it, while the units before it run to completion;
    /// the sweep then returns the replica error of the **lowest failing
    /// unit**, or re-raises its panic (replica, observer factory, or
    /// reducer) with the original payload. The reported failure is
    /// therefore a function of the configuration, never of the thread
    /// count.
    ///
    /// # Example
    ///
    /// ```
    /// use congames_dynamics::{
    ///     ConvergenceHistogram, Ensemble, FinalSummary, ImitationProtocol, StopCondition,
    ///     StopReason, StopSpec,
    /// };
    /// use congames_model::{Affine, CongestionGame, State};
    ///
    /// let game = CongestionGame::singleton(
    ///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
    ///     100,
    /// )?;
    /// let start = State::from_counts(&game, vec![80, 20])?;
    /// let stop =
    ///     StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(5_000)]);
    /// let histogram = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
    ///     .trials(64)
    ///     .base_seed(7)
    ///     .run_reduced(&stop, |_trial| FinalSummary, ConvergenceHistogram::new())?;
    /// assert_eq!(histogram.total(), 64);
    /// assert!(histogram.reason(StopReason::ImitationStable).count() > 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_reduced<O, R>(
        &self,
        stop: &StopSpec,
        observer_factory: impl Fn(usize) -> O + Sync,
        reducer: R,
    ) -> Result<R, DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        self.validate_lane_config()?;
        let prototype = reducer.identity();
        let mut acc = reducer;
        let blocks = 0..self.trials.div_ceil(REDUCE_BLOCK);
        self.for_each_leaf(blocks, stop, &observer_factory, &prototype, |leaf| acc.merge(leaf))?;
        Ok(acc)
    }

    /// The global trial range shard `shard` of `num_shards` covers.
    ///
    /// Shard boundaries are **block-aligned**: the sweep's
    /// `trials.div_ceil(REDUCE_BLOCK)` reduction blocks (see
    /// [`REDUCE_BLOCK`]) are split as evenly as possible, shard `s`
    /// getting blocks `[s·B/K, (s+1)·B/K)`. Alignment matters because the
    /// unit a sharded sweep ships to the merger is the block partial —
    /// splitting a block across shards would change the reduction tree and
    /// therefore the merged bits. A shard may cover zero trials when there
    /// are more shards than blocks; that is fine (its partial file simply
    /// carries no blocks).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `shard >= num_shards`.
    pub fn shard_trials(&self, shard: usize, num_shards: usize) -> std::ops::Range<usize> {
        assert!(num_shards > 0, "need at least one shard");
        assert!(shard < num_shards, "shard index {shard} out of range for {num_shards} shards");
        let blocks = self.trials.div_ceil(REDUCE_BLOCK);
        let lo_block = shard * blocks / num_shards;
        let hi_block = (shard + 1) * blocks / num_shards;
        (lo_block * REDUCE_BLOCK).min(self.trials)..(hi_block * REDUCE_BLOCK).min(self.trials)
    }

    /// Run only shard `shard` of `num_shards` and return its reduction-tree
    /// **leaves**: one partial per [`REDUCE_BLOCK`]-trial block, in block
    /// order — exactly the partials [`Ensemble::run_reduced`] would have
    /// produced for those blocks in a single-process sweep.
    ///
    /// Per-trial seeds still derive from `split_seed(base_seed, trial)`
    /// with **global** trial indices, so the shard split cannot change any
    /// trial's stream. A merger that concatenates every shard's leaves in
    /// shard order and folds them with
    /// [`merge_partials`](crate::merge_partials) replays the single
    /// process's left-deep merge chain and is therefore **bit-identical**
    /// to `run_reduced` for any shard count — the leaves are returned
    /// unmerged precisely because floating-point merges (Welford/Chan) are
    /// not bitwise associative, so pre-merging per shard would change the
    /// final bits. Live memory is `O(shard blocks)` partials.
    ///
    /// The leaves come off the same pipeline as [`Ensemble::run_reduced`]'s,
    /// restricted to this shard's block range.
    ///
    /// # Errors
    ///
    /// Rejects an invalid lane configuration, even for an empty shard.
    /// Otherwise fails as [`Ensemble::run_reduced`] does, over this
    /// shard's units: the lowest failing unit's replica error is returned.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `shard >= num_shards`; the lowest
    /// failing unit's replica, observer, or reducer panic is re-raised with
    /// its original payload.
    pub fn run_reduced_shard<O, R>(
        &self,
        shard: usize,
        num_shards: usize,
        stop: &StopSpec,
        observer_factory: impl Fn(usize) -> O + Sync,
        reducer: &R,
    ) -> Result<Vec<R>, DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        let range = self.shard_trials(shard, num_shards);
        self.validate_lane_config()?;
        let lo = range.start / REDUCE_BLOCK;
        let blocks = lo..lo + range.len().div_ceil(REDUCE_BLOCK);
        let mut leaves = Vec::with_capacity(blocks.len());
        self.for_each_leaf(blocks, stop, &observer_factory, reducer, |leaf| leaves.push(leaf))?;
        Ok(leaves)
    }

    /// The leaf pipeline both reduced entry points run on: run reduce
    /// blocks `blocks` and hand each block's partial (a reduction-tree
    /// *leaf*) to `sink`, **in block order**.
    ///
    /// Workers claim *units* in order — one reduce block, or two for a
    /// 64-lane group, which fills both partials in one lockstep run — and
    /// run each through [`Ensemble::run_unit`]. Finished partials are
    /// parked and drained in block order, so the sink sees the same leaf
    /// sequence for every thread count. A unit is only claimed while it is
    /// within a reorder window of `threads · 2` units of the drain point,
    /// which bounds the parked partials however uneven units run. One
    /// worker runs on the calling thread and `threads − 1` are spawned.
    ///
    /// One `catch_unwind` per unit covers everything user code does for
    /// it — observer factory, `identity`, `absorb`, the kernel, and the
    /// sink — so a panic never strands the pipeline. A failing unit stops
    /// all claims past it; units before it run to completion; the failure
    /// of the lowest failing unit is returned (its error, or its panic
    /// re-raised with the original payload). The outcome is therefore a
    /// function of the configuration alone, never of the thread or shard
    /// count.
    fn for_each_leaf<O, R>(
        &self,
        blocks: std::ops::Range<usize>,
        stop: &StopSpec,
        observer_factory: &(impl Fn(usize) -> O + Sync),
        prototype: &R,
        sink: impl FnMut(R) + Send,
    ) -> Result<(), DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        enum Failure {
            Error(DynamicsError),
            Panic(Box<dyn std::any::Any + Send + 'static>),
        }
        struct Pipeline<R, S> {
            next_unit: usize,
            /// The lowest failed unit (`units` while none has): no unit
            /// from here on is claimed.
            failed_unit: usize,
            failure: Option<Failure>,
            /// Leaves handed to the sink so far (block offset into `blocks`).
            drained: usize,
            /// Finished partials waiting for their in-order turn.
            pending: BTreeMap<usize, R>,
            sink: S,
        }
        // A unit spans the blocks one lane group covers (a scalar "group"
        // is one trial wide).
        let unit_blocks = self.lane_width.unwrap_or(1).div_ceil(REDUCE_BLOCK);
        let units = blocks.len().div_ceil(unit_blocks);
        let threads = self.threads.min(units).max(1);
        let window = threads * 2 * unit_blocks;
        let state = Mutex::new(Pipeline {
            next_unit: 0,
            failed_unit: units,
            failure: None,
            drained: 0,
            pending: BTreeMap::new(),
            sink,
        });
        let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
        let cv = Condvar::new();
        let worker = || loop {
            let unit = {
                let mut st = lock();
                while st.next_unit < st.failed_unit
                    && st.next_unit * unit_blocks >= st.drained + window
                {
                    st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.next_unit >= st.failed_unit {
                    return;
                }
                st.next_unit += 1;
                st.next_unit - 1
            };
            let b0 = unit * unit_blocks;
            let b1 = (b0 + unit_blocks).min(blocks.len());
            let first_trial = (blocks.start + b0) * REDUCE_BLOCK;
            let trials = first_trial..((blocks.start + b1) * REDUCE_BLOCK).min(self.trials);
            let mut ran = false;
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut partials: Vec<R> = (b0..b1).map(|_| prototype.identity()).collect();
                self.run_unit(trials, stop, observer_factory, |trial, out| {
                    partials[(trial - first_trial) / REDUCE_BLOCK].absorb(out);
                })?;
                ran = true;
                let mut guard = lock();
                let st = &mut *guard;
                st.pending.extend((b0..).zip(partials));
                let before = st.drained;
                while let Some(leaf) = st.pending.remove(&st.drained) {
                    (st.sink)(leaf);
                    st.drained += 1;
                }
                if st.drained > before {
                    cv.notify_all();
                }
                Ok(())
            }));
            let failure = match result {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => Failure::Error(e),
                Err(payload) => Failure::Panic(payload),
            };
            let mut st = lock();
            // A panic after the unit's trials ran came from the sink, while
            // it drained leaf `drained` — that leaf's unit is the one failing.
            let failed = if ran { st.drained / unit_blocks } else { unit };
            if failed < st.failed_unit {
                st.failed_unit = failed;
                st.failure = Some(failure);
            }
            cv.notify_all();
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        });
        match state.into_inner().unwrap_or_else(PoisonError::into_inner).failure {
            None => Ok(()),
            Some(Failure::Error(e)) => Err(e),
            Some(Failure::Panic(payload)) => resume_unwind(payload),
        }
    }

    /// Run `trials` — one scheduling unit — and feed each trial's observed
    /// output to `absorb` in trial order. This is the only place the scalar
    /// and lane kernels part ways; per-trial outputs are bit-identical
    /// either way, so everything above it is shared.
    fn run_unit<O: Observer>(
        &self,
        trials: std::ops::Range<usize>,
        stop: &StopSpec,
        observer_factory: &impl Fn(usize) -> O,
        mut absorb: impl FnMut(usize, O::Output),
    ) -> Result<(), DynamicsError> {
        let Some(width) = self.lane_width else {
            for trial in trials {
                let mut sim = self.make_sim();
                let mut rng = self.trial_stream(trial);
                let mut observer = observer_factory(trial);
                let summary = sim.run_observed(stop, &mut rng, &mut observer)?;
                absorb(trial, observer.finish(&summary));
            }
            return Ok(());
        };
        // One kernel serves every lane group of the unit: `reset` re-points
        // the stream/state buffers at the next group without reallocating
        // (a tail group resets to a narrower lane count).
        let mut kernel: Option<LaneKernel<'_>> = None;
        for t in trials.clone().step_by(width) {
            let lanes = width.min(trials.end - t);
            let kernel = match kernel.as_mut() {
                Some(k) => {
                    k.reset(t as u64, lanes);
                    k
                }
                None => kernel.insert(
                    LaneKernel::from_prepared(
                        self.game,
                        self.protocol,
                        &self.start,
                        self.base_seed,
                        t as u64,
                        lanes,
                    )
                    .with_recording(self.record),
                ),
            };
            let observers = (t..t + lanes).map(observer_factory).collect();
            let outputs = kernel.run_observed(stop, observers).map_err(|(_, e)| e)?;
            for (trial, out) in (t..).zip(outputs) {
                absorb(trial, out);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ImitationProtocol;
    use crate::stopping::{StopCondition, StopReason};
    use congames_model::Affine;

    fn two_links(n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], n)
            .unwrap()
    }

    #[test]
    fn run_indexed_orders_results() {
        let out = run_indexed(16, 4, |i| i * 3);
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(run_indexed(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(run_indexed(0, 2, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "task 7 says hi")]
    fn run_indexed_propagates_original_panic() {
        run_indexed(32, 4, |i| {
            if i == 7 {
                panic!("task 7 says hi");
            }
            i
        });
    }

    #[test]
    fn ensemble_is_thread_count_invariant() {
        let game = two_links(200);
        let start = State::from_counts(&game, vec![150, 50]).unwrap();
        let stop =
            StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(2_000)]);
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(12)
                .base_seed(99)
                .threads(threads)
                .run_with(&stop, |sim, out| {
                    (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                })
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert!(one.iter().all(|(r, _, _)| *r < 2_000));
    }

    #[test]
    fn ensemble_validates_eagerly() {
        let game = two_links(4);
        let other = two_links(6);
        let bad = State::from_counts(&other, vec![3, 3]).unwrap();
        assert!(Ensemble::new(&game, ImitationProtocol::paper_default().into(), bad).is_err());
    }

    #[test]
    fn run_reduced_is_thread_count_invariant_and_matches_trial_order() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        // 70 trials = 3 reduction blocks, so the merge path is exercised.
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .threads(threads)
                .run_reduced(
                    &stop,
                    |_trial| FinalSummary,
                    MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
                )
                .unwrap()
                .into_inner()
        };
        let one = run(1);
        assert_eq!(one, run(2), "2 threads changed the reduction");
        assert_eq!(one, run(8), "8 threads changed the reduction");
        assert_eq!(one.count(), 70);
        // The collecting reducer preserves trial order exactly.
        let collected: Vec<u64> =
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .threads(4)
                .run_reduced(
                    &stop,
                    |_trial| FinalSummary,
                    MapItem::new(|s: RunSummary| s.rounds, Vec::new()),
                )
                .unwrap()
                .into_inner();
        let reference: Vec<u64> =
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .run_with(&stop, |_, out| out.rounds)
                .unwrap();
        assert_eq!(collected, reference);
    }

    #[test]
    fn run_reduced_zero_trials_is_the_identity_reduction() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        let game = two_links(10);
        let start = State::from_counts(&game, vec![5, 5]).unwrap();
        let out = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .unwrap()
            .trials(0)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                ConvergenceHistogram::new(),
            )
            .unwrap();
        assert_eq!(out.total(), 0);
        // The materializing APIs agree: zero trials → empty Vec.
        assert!(Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(0)
            .run(&StopSpec::max_rounds(5))
            .unwrap()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "observer factory exploded")]
    fn run_reduced_propagates_original_panic() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let _ = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(80)
            .threads(4)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |trial| {
                    if trial == 41 {
                        panic!("observer factory exploded");
                    }
                    FinalSummary
                },
                ConvergenceHistogram::new(),
            );
    }

    /// A reducer that panics inside `absorb` (here: a `MapItem` projection)
    /// must neither hang the in-order merge pipeline nor surface as the
    /// scope's generic panic — the original payload is re-raised.
    #[test]
    #[should_panic(expected = "absorb exploded")]
    fn run_reduced_propagates_reducer_panics() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, Welford};
        use crate::stopping::RunSummary;
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let _ = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(80)
            .threads(4)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                MapItem::new(
                    |s: RunSummary| {
                        if s.rounds <= 5 {
                            panic!("absorb exploded");
                        }
                        s.potential
                    },
                    Welford::new(),
                ),
            );
    }

    /// A sweep reports the failure of its lowest failing unit: unit 0's
    /// trial-3 panic — not unit 1's trial-32 panic, which another worker
    /// hits first — for every thread count, the sharded entry point, and
    /// both kernels.
    #[test]
    fn the_lowest_failing_unit_is_reported_for_every_thread_count() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        use std::time::{Duration, Instant};
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let stop = StopSpec::max_rounds(5);
        let sweep = |lanes: Option<usize>, threads: usize, sharded: bool| -> String {
            let mut e =
                Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                    .unwrap()
                    .trials(64)
                    .threads(threads)
                    .rng_mode(RngMode::Counter);
            if let Some(w) = lanes {
                e = e.lane_width(w);
            }
            let failed_32 = AtomicBool::new(false);
            let factory = |trial: usize| {
                if trial == 2 && threads > 1 {
                    // Hold unit 0 until unit 1 (on the other worker) has
                    // failed, so the later unit's failure comes first.
                    let since = Instant::now();
                    while !failed_32.load(Ordering::SeqCst) && since.elapsed().as_secs() < 10 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                if trial == 3 || trial == 32 {
                    failed_32.fetch_or(trial == 32, Ordering::SeqCst);
                    panic!("observer factory failed at trial {trial}");
                }
                FinalSummary
            };
            let histogram = ConvergenceHistogram::new();
            let panic = catch_unwind(AssertUnwindSafe(|| {
                let _ = if sharded {
                    e.run_reduced_shard(0, 1, &stop, factory, &histogram).map(|_| ())
                } else {
                    e.run_reduced(&stop, factory, histogram.clone()).map(|_| ())
                };
            }))
            .expect_err("the sweep must fail");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for lanes in [None, Some(32)] {
            for threads in [1, 2, 8] {
                assert_eq!(
                    sweep(lanes, threads, false),
                    "observer factory failed at trial 3",
                    "lanes {lanes:?} threads {threads}"
                );
            }
            assert_eq!(
                sweep(lanes, 8, true),
                "observer factory failed at trial 3",
                "lanes {lanes:?} shard 0 of 1"
            );
        }
    }

    #[test]
    fn sharded_leaves_merge_bit_identical_to_run_reduced() {
        use crate::observe::FinalSummary;
        use crate::reduce::{merge_partials, MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        let ensemble = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .threads(threads)
        };
        let reducer = || MapItem::new(|s: RunSummary| s.potential, ScalarStats::new());
        let single =
            ensemble(2).run_reduced(&stop, |_trial| FinalSummary, reducer()).unwrap().into_inner();
        // 70 trials = 3 blocks; split them over every shard count that
        // exercises empty shards, one-block shards, and multi-block shards.
        for num_shards in [1usize, 2, 3, 5] {
            let mut leaves = Vec::new();
            let mut covered = 0;
            for shard in 0..num_shards {
                let e = ensemble(2);
                let range = e.shard_trials(shard, num_shards);
                assert_eq!(range.start, covered, "shard ranges must be contiguous");
                covered = range.end;
                leaves.extend(
                    e.run_reduced_shard(
                        shard,
                        num_shards,
                        &stop,
                        |_trial| FinalSummary,
                        &reducer(),
                    )
                    .unwrap(),
                );
            }
            assert_eq!(covered, 70);
            let merged = merge_partials(reducer(), leaves).into_inner();
            assert_eq!(merged, single, "{num_shards} shards changed the reduction bits");
        }
    }

    #[test]
    fn run_reduced_survives_non_finite_samples() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(40);
        let start = State::from_counts(&game, vec![30, 10]).unwrap();
        // Inject a NaN "latency" for one trial of a multi-block sweep: the
        // sweep must complete and report the bad sample instead of aborting.
        let stats = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(40)
            .threads(4)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                MapItem::new(
                    |s: RunSummary| if s.rounds == 5 { s.potential } else { f64::NAN },
                    ScalarStats::new(),
                ),
            )
            .unwrap()
            .into_inner();
        assert_eq!(stats.count() + stats.non_finite(), 40);
    }

    #[test]
    fn lane_reduced_is_bit_identical_to_scalar_for_every_width_and_thread_count() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        // 70 trials = 3 blocks: W=64 exercises a two-block unit plus a
        // narrow tail group, W=8..32 exercise sub-block groups.
        let run = |lanes: Option<usize>, threads: usize| {
            let mut e =
                Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                    .unwrap()
                    .trials(70)
                    .base_seed(5)
                    .threads(threads)
                    .rng_mode(RngMode::Counter);
            if let Some(w) = lanes {
                e = e.lane_width(w);
            }
            e.run_reduced(
                &stop,
                |_trial| FinalSummary,
                MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
            )
            .unwrap()
            .into_inner()
        };
        let scalar = run(None, 1);
        for width in LANE_WIDTHS {
            for threads in [1, 2, 8] {
                assert_eq!(
                    scalar,
                    run(Some(width), threads),
                    "lanes={width} threads={threads} changed the reduction bits"
                );
            }
        }
    }

    #[test]
    fn lane_sharded_leaves_merge_bit_identical_to_scalar_run_reduced() {
        use crate::observe::FinalSummary;
        use crate::reduce::{merge_partials, MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        let ensemble = |lanes: Option<usize>| {
            let mut e =
                Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                    .unwrap()
                    .trials(70)
                    .base_seed(5)
                    .threads(2)
                    .rng_mode(RngMode::Counter);
            if let Some(w) = lanes {
                e = e.lane_width(w);
            }
            e
        };
        let reducer = || MapItem::new(|s: RunSummary| s.potential, ScalarStats::new());
        let single = ensemble(None)
            .run_reduced(&stop, |_trial| FinalSummary, reducer())
            .unwrap()
            .into_inner();
        // W=64 lane groups re-anchor at each shard's first block; the
        // leaves must still be the single-process leaves bit for bit.
        for num_shards in [1usize, 2, 3, 5] {
            let mut leaves = Vec::new();
            for shard in 0..num_shards {
                leaves.extend(
                    ensemble(Some(64))
                        .run_reduced_shard(
                            shard,
                            num_shards,
                            &stop,
                            |_trial| FinalSummary,
                            &reducer(),
                        )
                        .unwrap(),
                );
            }
            let merged = merge_partials(reducer(), leaves).into_inner();
            assert_eq!(merged, single, "{num_shards} lane shards changed the reduction bits");
        }
    }

    #[test]
    fn lane_width_is_validated() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let stop = StopSpec::max_rounds(5);
        let base = || {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(8)
        };
        // Width must be one of LANE_WIDTHS.
        let err = base()
            .rng_mode(RngMode::Counter)
            .lane_width(12)
            .run_reduced(&stop, |_t| FinalSummary, ConvergenceHistogram::new())
            .unwrap_err();
        assert!(err.to_string().contains("8, 16, 32, 64"), "got: {err}");
        // Counter mode is required (xoshiro streams are draw-order serial).
        let err = base()
            .rng_mode(RngMode::Xoshiro)
            .lane_width(8)
            .run_reduced(&stop, |_t| FinalSummary, ConvergenceHistogram::new())
            .unwrap_err();
        assert!(err.to_string().contains("counter-mode RNG"), "got: {err}");
        // Sharded entry point validates too, even for an empty shard.
        let err = base()
            .rng_mode(RngMode::Xoshiro)
            .lane_width(8)
            .run_reduced_shard(0, 1, &stop, |_t| FinalSummary, &ConvergenceHistogram::new())
            .unwrap_err();
        assert!(err.to_string().contains("counter-mode RNG"), "got: {err}");
        // A zero-trial sweep validates too, exactly as an empty shard does.
        let err = base()
            .trials(0)
            .rng_mode(RngMode::Xoshiro)
            .lane_width(8)
            .run_reduced(&stop, |_t| FinalSummary, ConvergenceHistogram::new())
            .unwrap_err();
        assert!(err.to_string().contains("counter-mode RNG"), "got: {err}");
        // The materializing path is scalar-only.
        let err = base().rng_mode(RngMode::Counter).lane_width(8).run(&stop).unwrap_err();
        assert!(err.to_string().contains("scalar-only"), "got: {err}");
    }

    #[test]
    fn ensemble_outcomes_carry_stop_reasons() {
        let game = two_links(50);
        let start = State::from_counts(&game, vec![25, 25]).unwrap();
        let outcomes = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(3)
            .run(&StopSpec::new(vec![StopCondition::ImitationStable]))
            .unwrap();
        assert!(outcomes.iter().all(|o| o.reason == StopReason::ImitationStable && o.rounds == 0));
    }
}
