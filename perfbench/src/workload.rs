//! The four workloads, their set-up, and every way the benchmark runs a
//! sweep of one: the untraced operations it times, and the single-thread
//! replays it counts and traces.
//!
//! Every path reduces the same trials with the same reducer and the same
//! block-wise merge, so they must all land on the same bits; the digest
//! of the reduced result's `encode_partial` bytes is the output check.

use std::ops::Range;
use std::sync::Arc;

use congames_bench::games::{poly_links, random_state, skewed_two_hot};
use congames_dynamics::wire::{
    decode_shard_file, encode_shard_file, fnv1a64, validate_shard_sequence, ShardHeader, WireReduce,
};
use congames_dynamics::{
    merge_partials, EngineKind, Ensemble, FinalSummary, ImitationProtocol, LaneKernel, MapItem,
    Observer, PerRoundStats, Protocol, RecordConfig, RecordSeries, Reducer, RoundRecord,
    RunSummary, ScalarStats, Simulation, StopCondition, StopSpec, REDUCE_BLOCK,
};
use congames_model::{CongestionGame, State};
use congames_sampling::{split_seed, CounterRng, RngMode};
use congames_scenario::{Schedule, ScheduleCursor, ScheduledEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Probe, TracedHook, TracedReducer, TracedRng, TrialSpan};

/// Shards of a sharded sweep.
pub const SHARDS: usize = 3;

/// Record cadence of the `mean` reducer (the CLI's `rounds / 64` at the
/// shocked workload's cap of 1024).
const MEAN_CADENCE: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Start {
    /// `skewed_two_hot`: 3:1 on the first two links, the rest empty.
    TwoHot,
    /// Each player on a uniformly random link (full support).
    Uniform,
}

/// One workload: a game, a start, a trial count and a run path.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub engine: EngineKind,
    pub links: usize,
    pub players: u64,
    pub start: Start,
    pub trials: usize,
    pub cap: u64,
    pub lanes: Option<usize>,
    /// Replays the seeded shock schedule and reduces with `mean` through
    /// `SHARDS` shards and the wire format.
    pub shocked: bool,
    /// Digest of the reduced result at `DEFAULT_SEED`.
    pub pinned: u64,
}

/// The seed whose digests are pinned in [`WORKLOADS`].
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "transient",
        engine: EngineKind::Aggregate,
        links: 8,
        players: 10_000,
        start: Start::TwoHot,
        trials: 8192,
        cap: 1024,
        lanes: None,
        shocked: false,
        pinned: 0x205cc3c17775e96b,
    },
    Spec {
        name: "tail_lanes",
        engine: EngineKind::Aggregate,
        links: 16,
        players: 100_000,
        start: Start::Uniform,
        trials: 256,
        cap: 256,
        lanes: Some(32),
        shocked: false,
        pinned: 0xf1abfcf3a2a44920,
    },
    Spec {
        name: "player_level",
        engine: EngineKind::PlayerLevel,
        links: 8,
        players: 1_000,
        start: Start::Uniform,
        trials: 96,
        cap: 1024,
        lanes: None,
        shocked: false,
        pinned: 0xc84d9c671509c8dd,
    },
    Spec {
        name: "shocked_sharded",
        engine: EngineKind::Aggregate,
        links: 8,
        players: 5_000,
        start: Start::Uniform,
        trials: 384,
        cap: 1024,
        lanes: None,
        shocked: true,
        pinned: 0x1a251beb6767aca9,
    },
];

pub fn protocol() -> Protocol {
    ImitationProtocol::paper_default().into()
}

/// The CLI's stop rule: imitation-stable or the round cap, checked every
/// 4 rounds.
pub fn stop(cap: u64) -> StopSpec {
    StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(cap)])
        .with_check_every(4)
}

/// What a sweep observes per trial and how it reduces.
pub trait Pipeline: Sync {
    type Obs: Observer;
    type Red: WireReduce<Item = <Self::Obs as Observer>::Output> + Clone + Send + Sync;
    fn observer(&self) -> Self::Obs;
    fn reducer(&self) -> Self::Red;
    fn record(&self) -> RecordConfig;
}

fn summary_rounds(s: RunSummary) -> f64 {
    s.rounds as f64
}

fn summary_potential(s: RunSummary) -> f64 {
    s.potential
}

type Quantiles = (
    MapItem<RunSummary, fn(RunSummary) -> f64, ScalarStats>,
    MapItem<RunSummary, fn(RunSummary) -> f64, ScalarStats>,
);

/// The CLI's `quantiles` reduction: convergence-round and final-potential
/// sketches from each trial's `RunSummary`; nothing recorded.
#[derive(Debug)]
pub struct QuantilesPipeline;

impl Pipeline for QuantilesPipeline {
    type Obs = FinalSummary;
    type Red = Quantiles;

    fn observer(&self) -> FinalSummary {
        FinalSummary
    }

    fn reducer(&self) -> Quantiles {
        (
            MapItem::new(summary_rounds as fn(RunSummary) -> f64, ScalarStats::new()),
            MapItem::new(summary_potential as fn(RunSummary) -> f64, ScalarStats::new()),
        )
    }

    fn record(&self) -> RecordConfig {
        RecordConfig::disabled()
    }
}

fn on_cadence(records: Vec<RoundRecord>) -> Vec<RoundRecord> {
    records.into_iter().filter(|r| r.round % MEAN_CADENCE == 0).collect()
}

type Mean = MapItem<Vec<RoundRecord>, fn(Vec<RoundRecord>) -> Vec<RoundRecord>, PerRoundStats>;

/// The CLI's `mean` reduction: per-round statistics over on-cadence
/// records.
#[derive(Debug)]
pub struct MeanPipeline;

impl Pipeline for MeanPipeline {
    type Obs = RecordSeries;
    type Red = Mean;

    fn observer(&self) -> RecordSeries {
        RecordSeries::new()
    }

    fn reducer(&self) -> Mean {
        MapItem::new(on_cadence as fn(Vec<RoundRecord>) -> Vec<RoundRecord>, PerRoundStats::new())
    }

    fn record(&self) -> RecordConfig {
        RecordConfig::every(MEAN_CADENCE)
    }
}

/// `fnv1a64` over the reduced result's `encode_partial` bytes.
pub fn digest<R: WireReduce>(reduced: &R) -> u64 {
    let mut bytes = Vec::new();
    reduced.encode_partial(&mut bytes);
    fnv1a64(&bytes)
}

/// A set-up workload: everything a sweep needs, built from the seed.
#[derive(Debug)]
pub struct Setup {
    pub spec: &'static Spec,
    pub game: CongestionGame,
    pub start: State,
    pub schedule: Option<Arc<Schedule>>,
    pub base_seed: u64,
}

impl Setup {
    /// Build the game, the start state and the shock schedule from `seed`.
    pub fn new(spec: &'static Spec, seed: u64) -> Setup {
        let mut rng = SmallRng::seed_from_u64(split_seed(seed, 0));
        let game = poly_links(spec.links, 2, spec.players);
        let start = match spec.start {
            Start::TwoHot => skewed_two_hot(&game),
            Start::Uniform => random_state(&game, &mut rng),
        };
        let schedule = spec.shocked.then(|| Arc::new(shock_schedule(spec, &mut rng)));
        Setup { spec, game, start, schedule, base_seed: split_seed(seed, 1) }
    }

    /// The sweep's ensemble at `threads`, on the lane path where the
    /// workload has one.
    pub fn ensemble(&self, threads: usize, record: RecordConfig) -> Ensemble<'_> {
        let spec = self.spec;
        let mut ensemble = Ensemble::new(&self.game, protocol(), self.start.clone())
            .expect("workload start states belong to their games")
            .engine(spec.engine)
            .rng_mode(RngMode::Counter)
            .trials(spec.trials)
            .base_seed(self.base_seed)
            .threads(threads)
            .recording(record);
        if let Some(w) = spec.lanes {
            ensemble = ensemble.lane_width(w);
        }
        if let Some(schedule) = &self.schedule {
            let schedule = Arc::clone(schedule);
            ensemble = ensemble
                .with_round_hook(move || Box::new(ScheduleCursor::new(Arc::clone(&schedule))));
        }
        ensemble
    }

    /// The lane kernel of the workload's first lane group, if it has a
    /// lane path (part of set-up: the ensemble builds the same one).
    pub fn lane_kernel(&self) -> Option<LaneKernel<'_>> {
        let w = self.spec.lanes?;
        let kernel = LaneKernel::new(&self.game, protocol(), &self.start, self.base_seed, 0, w)
            .expect("workload start states belong to their games");
        Some(kernel)
    }

    fn stop(&self) -> StopSpec {
        stop(self.spec.cap)
    }

    fn blocks(&self) -> usize {
        self.spec.trials.div_ceil(REDUCE_BLOCK)
    }

    /// Scheduling units of one ensemble sweep (a 64-lane group spans two
    /// reduce blocks).
    pub fn units(&self) -> usize {
        let unit_blocks = self.spec.lanes.map_or(1, |w| w.div_ceil(REDUCE_BLOCK));
        self.blocks().div_ceil(unit_blocks)
    }

    fn header(&self, shard: usize, range: Range<usize>, reducer_id: String) -> ShardHeader {
        ShardHeader {
            base_seed: self.base_seed,
            trials: self.spec.trials as u64,
            trial_lo: range.start as u64,
            trial_hi: range.end as u64,
            shard: shard as u32,
            num_shards: SHARDS as u32,
            rng_mode: RngMode::Counter,
            reducer_id,
            config: format!("perfbench;workload={}", self.spec.name),
        }
    }
}

/// The seeded shock schedule: four latency doublings on seeded links
/// (each undone 16 rounds later) interleaved with a two-cycle demand
/// square wave between `n` and `n + n/8`.
fn shock_schedule(spec: &Spec, rng: &mut SmallRng) -> Schedule {
    let mut events = Vec::new();
    for k in 0..4u64 {
        let resource = rng.gen_range(0..spec.links as u32);
        events.push((16 + 32 * k, ScheduledEvent::ScaleLatency { resource, factor: 2.0 }));
        events.push((32 + 32 * k, ScheduledEvent::ScaleLatency { resource, factor: 0.5 }));
    }
    let (low, high) = (spec.players, spec.players + spec.players / 8);
    for i in 0..4u64 {
        let players = if i % 2 == 0 { high } else { low };
        events.push((24 + 24 * i, ScheduledEvent::SetDemand { class: 0, players }));
    }
    Schedule::new(events).expect("generated events are valid")
}

/// One in-process `run_reduced` sweep.
pub fn reduced<P: Pipeline, O: Observer<Output = <P::Obs as Observer>::Output>>(
    setup: &Setup,
    p: &P,
    threads: usize,
    observer: impl Fn(usize) -> O + Sync,
) -> Result<P::Red, String> {
    setup
        .ensemble(threads, p.record())
        .run_reduced(&setup.stop(), observer, p.reducer())
        .map_err(|e| e.to_string())
}

/// One sharded sweep: `SHARDS` × `run_reduced_shard`, each shard's leaves
/// through `encode_shard_file`, then `decode_shard_file` and
/// `merge_partials` in shard order, as `congames shard` / `merge` do.
pub fn sharded<P: Pipeline, O: Observer<Output = <P::Obs as Observer>::Output>>(
    setup: &Setup,
    p: &P,
    threads: usize,
    observer: impl Fn(usize) -> O + Sync,
) -> Result<P::Red, String> {
    let ensemble = setup.ensemble(threads, p.record());
    let reducer = p.reducer();
    let stop = setup.stop();
    let mut files = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let blocks = ensemble
            .run_reduced_shard(shard, SHARDS, &stop, &observer, &reducer)
            .map_err(|e| e.to_string())?;
        let header = setup.header(shard, ensemble.shard_trials(shard, SHARDS), reducer.wire_id());
        files.push(encode_shard_file(&header, &blocks));
    }
    merge_files(&reducer, &files)
}

/// Decode shard files, validate them as one sweep, and merge their leaves
/// in shard order.
fn merge_files<R: WireReduce>(prototype: &R, files: &[Vec<u8>]) -> Result<R, String> {
    let mut headers = Vec::with_capacity(files.len());
    let mut leaves = Vec::new();
    for bytes in files {
        let (header, blocks) = decode_shard_file(prototype, bytes).map_err(|e| e.to_string())?;
        headers.push(header);
        leaves.extend(blocks);
    }
    validate_shard_sequence(&headers).map_err(|e| e.to_string())?;
    Ok(merge_partials(prototype.identity(), leaves))
}

/// The workload's timed operation: a sharded sweep for `shocked_sharded`,
/// an in-process reduced sweep (on the lane path where there is one)
/// otherwise.
pub fn operation<P: Pipeline, O: Observer<Output = <P::Obs as Observer>::Output>>(
    setup: &Setup,
    p: &P,
    threads: usize,
    observer: impl Fn(usize) -> O + Sync,
) -> Result<P::Red, String> {
    if setup.spec.shocked {
        sharded(setup, p, threads, observer)
    } else {
        reduced(setup, p, threads, observer)
    }
}

/// The untraced operation with the pipeline's stock observer.
pub fn plain_operation<P: Pipeline>(
    setup: &Setup,
    p: &P,
    threads: usize,
) -> Result<P::Red, String> {
    operation(setup, p, threads, |_| p.observer())
}

/// The operation with one `trial` span per trial under a `sweep` span;
/// returns the sweep's wall time with the result.
pub fn spanned_operation<P: Pipeline>(
    setup: &Setup,
    p: &P,
    threads: usize,
) -> Result<(P::Red, u64, u64), String> {
    let sweep = trace::open("sweep.nproc", 0);
    let id = sweep.id();
    let swept = operation(setup, p, threads, |_| TrialSpan::new(p.observer(), id))?;
    let wall = sweep.close();
    Ok((swept, id, wall))
}

/// Block leaves of a single-thread scalar replay: the ensemble's per-trial
/// simulation (same start, engine, recording, hook and counter stream)
/// driven directly, each trial through the tracing wrappers, absorbed into
/// its reduce block in trial order.
///
/// With `census`, the simulation records every round and the probe counts
/// on each record, forwarding only what the pipeline's cadence would.
pub fn replay_scalar<P: Pipeline>(
    setup: &Setup,
    p: &P,
    census: bool,
    parent: u64,
) -> Result<Leaves<P::Red>, String> {
    let spec = setup.spec;
    let stop = setup.stop();
    let record = if census { RecordConfig::every_round() } else { p.record() };
    let prototype = TracedReducer(p.reducer());
    let mut leaves = Vec::with_capacity(setup.blocks());
    for block in 0..setup.blocks() {
        let span = trace::open("block", parent);
        let mut partial = prototype.identity();
        for trial in block * REDUCE_BLOCK..((block + 1) * REDUCE_BLOCK).min(spec.trials) {
            let trial_span = trace::open("trial", span.id());
            let mut sim = Simulation::new(&setup.game, protocol(), setup.start.clone())
                .map_err(|e| e.to_string())?
                .with_engine(spec.engine)
                .with_recording(record);
            if let Some(schedule) = &setup.schedule {
                sim =
                    sim.with_hook(Box::new(TracedHook(ScheduleCursor::new(Arc::clone(schedule)))));
            }
            let mut rng = TracedRng::new(CounterRng::for_trial(setup.base_seed, trial as u64));
            let mut probe = if census {
                Probe::census(p.observer(), p.record().every)
            } else {
                Probe::traced(p.observer())
            };
            let summary =
                sim.run_observed(&stop, &mut rng, &mut probe).map_err(|e| e.to_string())?;
            partial.absorb(probe.finish(&summary));
            trial_span.close();
        }
        leaves.push(partial);
        span.close();
    }
    Ok(leaves)
}

/// A replay's reduce-block partials, in block order.
pub type Leaves<R> = Vec<TracedReducer<R>>;

/// Lane-group counts of a lane replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct LaneStats {
    pub groups: u64,
    pub lockstep_rounds: u64,
    /// Σ over groups of lanes × lockstep rounds: the lane-rounds the
    /// groups stepped, useful or not.
    pub lane_slots: u64,
    pub ns: u64,
}

/// Block leaves of a single-thread lane replay: one `LaneKernel` group per
/// reduce block (the workload's width is `REDUCE_BLOCK`), observers
/// through the probe.
pub fn replay_lanes<P: Pipeline>(
    setup: &Setup,
    p: &P,
    parent: u64,
) -> Result<(Leaves<P::Red>, LaneStats), String> {
    let spec = setup.spec;
    assert_eq!(spec.lanes, Some(REDUCE_BLOCK), "lane replays run one group per reduce block");
    let stop = setup.stop();
    let prototype = TracedReducer(p.reducer());
    let mut stats = LaneStats::default();
    let mut kernel: Option<LaneKernel<'_>> = None;
    let mut leaves = Vec::with_capacity(setup.blocks());
    for block in 0..setup.blocks() {
        let t0 = block * REDUCE_BLOCK;
        let lanes = REDUCE_BLOCK.min(spec.trials - t0);
        let kernel = match kernel.as_mut() {
            Some(k) => {
                k.reset(t0 as u64, lanes);
                k
            }
            None => kernel.insert(
                LaneKernel::new(&setup.game, protocol(), &setup.start, setup.base_seed, 0, lanes)
                    .map_err(|e| e.to_string())?
                    .with_recording(p.record()),
            ),
        };
        let span = trace::open("lane_group", parent);
        let observers = (0..lanes).map(|_| Probe::traced(p.observer())).collect();
        let outputs = kernel
            .run_observed(&stop, observers)
            .map_err(|(lane, e)| format!("lane {lane}: {e}"))?;
        stats.ns += span.close();
        stats.groups += 1;
        stats.lockstep_rounds += kernel.round();
        stats.lane_slots += lanes as u64 * kernel.round();
        let mut partial = prototype.identity();
        for out in outputs {
            partial.absorb(out);
        }
        leaves.push(partial);
    }
    Ok((leaves, stats))
}

/// What folding a replay's leaves produced.
pub struct Folded<R> {
    /// The in-process block merge, as `run_reduced` does it.
    pub reduced: R,
    /// The same leaves shipped as `SHARDS` shard files and merged back.
    pub via_wire: R,
    pub wire_bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub merge_ns: u64,
}

/// Merge a replay's leaves twice: in process (block order, from the
/// reducer's identity), and through shard files split as
/// `Ensemble::shard_trials` splits them.
pub fn fold<P: Pipeline>(
    setup: &Setup,
    p: &P,
    leaves: Leaves<P::Red>,
    parent: u64,
) -> Result<Folded<P::Red>, String> {
    let prototype = TracedReducer(p.reducer());
    let ensemble = setup.ensemble(1, p.record());
    let span = trace::open("wire.encode", parent);
    let files: Vec<Vec<u8>> = (0..SHARDS)
        .map(|shard| {
            let range = ensemble.shard_trials(shard, SHARDS);
            let blocks = &leaves[range.start / REDUCE_BLOCK..range.end.div_ceil(REDUCE_BLOCK)];
            encode_shard_file(&setup.header(shard, range, prototype.wire_id()), blocks)
        })
        .collect();
    let encode_ns = span.close();
    let span = trace::open("wire.decode", parent);
    let mut decoded = Vec::with_capacity(leaves.len());
    let mut headers = Vec::with_capacity(SHARDS);
    for bytes in &files {
        let (header, blocks) = decode_shard_file(&prototype, bytes).map_err(|e| e.to_string())?;
        headers.push(header);
        decoded.extend(blocks.into_iter().map(|b| b.0));
    }
    validate_shard_sequence(&headers).map_err(|e| e.to_string())?;
    let decode_ns = span.close();
    let span = trace::open("wire.merge", parent);
    let via_wire = merge_partials(p.reducer(), decoded);
    let merge_ns = span.close();
    let span = trace::open("reduce.merge", parent);
    let reduced = merge_partials(prototype, leaves).0;
    span.close();
    Ok(Folded {
        reduced,
        via_wire,
        wire_bytes: files.iter().map(|f| f.len() as u64).sum(),
        encode_ns,
        decode_ns,
        merge_ns,
    })
}
