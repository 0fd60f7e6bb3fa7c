//! An [`Ensemble`] prepares its start state once — latency cache, support
//! index, Rosenthal potential, protocol parameters, class offsets and (for
//! the player-level engine) the player array — and starts every trial from
//! a copy. The copy must be invisible: every trial of every run path is
//! bit-identical to a standalone `Simulation::new` run on the same
//! [`DrawStream`], and the preparation really happens once per ensemble.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use congames::dynamics::{
    EngineKind, Ensemble, ExplorationProtocol, FinalSummary, ImitationProtocol, Observer, Protocol,
    RecordConfig, RecordSeries, RoundHook, RoundRecord, RunSummary, Simulation, StopCondition,
    StopReason, StopSpec,
};
use congames::model::{Affine, CongestionGame, Latency, LatencyFn, State};
use congames::sampling::{DrawStream, RngMode};
use congames::scenario::{Schedule, ScheduleCursor, ScheduledEvent};
use congames_testutil::games;

/// Trials per sweep: more than one 32-trial reduce block, with a tail.
const TRIALS: usize = 40;
const BASE_SEED: u64 = 0x5eed_0015;

/// Everything a record carries, floats as bits.
type RecordKey = (u64, u64, u64, u64, u64, u64, usize, Option<u64>, bool);
/// Stop reason, rounds and final potential bits.
type SummaryKey = (StopReason, u64, u64);

fn record_key(r: &RoundRecord) -> RecordKey {
    (
        r.round,
        r.potential.to_bits(),
        r.l_av.to_bits(),
        r.l_av_plus.to_bits(),
        r.max_latency.to_bits(),
        r.migrations,
        r.support,
        r.unsatisfied_fraction.map(f64::to_bits),
        r.shock,
    )
}

fn summary_key(s: &RunSummary) -> SummaryKey {
    (s.reason, s.rounds, s.potential.to_bits())
}

/// Observer output of one trial: every record, then the summary.
type Observed = (Vec<RecordKey>, SummaryKey);

#[derive(Default)]
struct Records(RecordSeries);

impl Observer for Records {
    type Output = Observed;

    fn observe(&mut self, record: &RoundRecord) {
        self.0.observe(record);
    }

    fn finish(self, summary: &RunSummary) -> Observed {
        (self.0.finish(summary).iter().map(record_key).collect(), summary_key(summary))
    }
}

struct Case {
    name: String,
    game: CongestionGame,
    start: State,
    protocol: Protocol,
}

/// Imitation and combined protocols, virtual agents off and on (base loads
/// enter the potential), on a one-class and a two-class game.
fn cases() -> Vec<Case> {
    let imitation = ImitationProtocol::paper_default();
    let virtual_imitation = imitation.with_virtual_agents(true);
    let combined = |imit: ImitationProtocol| {
        Protocol::combined(imit, ExplorationProtocol::paper_default(), 0.25)
            .expect("valid combined protocol")
    };
    let one = games::affine_singleton(200);
    let two = games::two_class_overlap(120, 80);
    let one_start = games::geometric_state(&one);
    let two_start = games::piled_state(&two);
    let mut cases = Vec::new();
    for (name, game, start) in [("one-class", &one, &one_start), ("two-class", &two, &two_start)] {
        let virtual_start = start.clone().with_virtual_agents(game);
        for (protocol, start, label) in [
            (imitation.into(), start, "imitation"),
            (combined(imitation), start, "combined"),
            (virtual_imitation.into(), &virtual_start, "imitation+virtual"),
            (combined(virtual_imitation), &virtual_start, "combined+virtual"),
        ] {
            cases.push(Case {
                name: format!("{name}/{label}"),
                game: game.clone(),
                start: start.clone(),
                protocol,
            });
        }
    }
    cases
}

fn stop() -> StopSpec {
    StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(60)])
}

/// A latency shock and a demand change, both inside the run.
fn hook_factory() -> impl Fn() -> Box<dyn RoundHook> + Send + Sync + 'static {
    let schedule = Arc::new(
        Schedule::new(vec![
            (3, ScheduledEvent::ScaleLatency { resource: 0, factor: 2.5 }),
            (7, ScheduledEvent::SetDemand { class: 0, players: 90 }),
        ])
        .expect("valid schedule"),
    );
    move || Box::new(ScheduleCursor::new(Arc::clone(&schedule))) as Box<dyn RoundHook>
}

/// Trial `trial` run standalone: a fresh `Simulation::new` on the stream
/// the ensemble hands that trial. Returns the records, the summary and the
/// final counts.
fn standalone(
    case: &Case,
    engine: EngineKind,
    mode: RngMode,
    hooked: bool,
    trial: usize,
) -> (Observed, Vec<u64>) {
    let mut sim = Simulation::new(&case.game, case.protocol, case.start.clone())
        .expect("valid simulation")
        .with_engine(engine)
        .with_recording(RecordConfig::every_round());
    if hooked {
        sim = sim.with_hook(hook_factory()());
    }
    let mut rng = DrawStream::for_trial(mode, BASE_SEED, trial as u64);
    let mut observer = Records::default();
    let summary = sim.run_observed(&stop(), &mut rng, &mut observer).expect("standalone run");
    (observer.finish(&summary), sim.state().counts().to_vec())
}

fn ensemble(case: &Case, engine: EngineKind, mode: RngMode, hooked: bool) -> Ensemble<'_> {
    let mut e = Ensemble::new(&case.game, case.protocol, case.start.clone())
        .expect("valid ensemble")
        .engine(engine)
        .rng_mode(mode)
        .recording(RecordConfig::every_round())
        .trials(TRIALS)
        .base_seed(BASE_SEED)
        .threads(2);
    if hooked {
        e = e.with_round_hook(hook_factory());
    }
    e
}

/// `run` and `run_reduced` on both engines, both RNG backends, with and
/// without a `ScaleLatency`/`SetDemand` hook; `run_reduced` with
/// `lane_width(8)` where the lane kernel applies.
#[test]
fn every_ensemble_trial_matches_a_standalone_simulation() {
    for case in cases() {
        for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
            for mode in [RngMode::Xoshiro, RngMode::Counter] {
                for hooked in [false, true] {
                    let label = format!("{} {engine:?} {mode:?} hooked={hooked}", case.name);
                    let expected: Vec<(Observed, Vec<u64>)> = (0..TRIALS)
                        .map(|trial| standalone(&case, engine, mode, hooked, trial))
                        .collect();
                    let e = ensemble(&case, engine, mode, hooked);
                    let run = e
                        .run_with(&stop(), |sim, out| {
                            let records = out.trajectory.records().iter().map(record_key);
                            let summary = (out.reason, out.rounds, out.potential.to_bits());
                            ((records.collect(), summary), sim.state().counts().to_vec())
                        })
                        .expect("ensemble run");
                    for (trial, (got, want)) in run.iter().zip(&expected).enumerate() {
                        assert_eq!(got, want, "{label}: run, trial {trial}");
                    }
                    let expected: Vec<Observed> =
                        expected.into_iter().map(|(observed, _)| observed).collect();
                    let reduced = e
                        .run_reduced(&stop(), |_| Records::default(), Vec::new())
                        .expect("reduced run");
                    assert_eq!(reduced, expected, "{label}: run_reduced");
                    if engine == EngineKind::Aggregate && mode == RngMode::Counter && !hooked {
                        let lanes = e
                            .lane_width(8)
                            .run_reduced(&stop(), |_| Records::default(), Vec::new())
                            .expect("lane run");
                        assert_eq!(lanes, expected, "{label}: run_reduced, lane_width(8)");
                    }
                }
            }
        }
    }
}

/// A latency that counts its `sum_range` calls (the Rosenthal potential
/// sums one range per resource) and forwards every call.
#[derive(Debug)]
struct CountingSums {
    inner: LatencyFn,
    sums: Arc<AtomicU64>,
}

impl Latency for CountingSums {
    fn value(&self, load: u64) -> f64 {
        self.inner.value(load)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        self.inner.eval_range_into(base, range, out);
    }

    fn sum_range(&self, base: u64, range: Range<u64>) -> f64 {
        self.sums.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_range(base, range)
    }

    fn elasticity_bound(&self, max_load: u64) -> f64 {
        self.inner.elasticity_bound(max_load)
    }

    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        self.inner.max_step(lo, hi)
    }

    fn value_at(&self, load: f64) -> f64 {
        self.inner.value_at(load)
    }

    fn integral_to(&self, load: f64) -> f64 {
        self.inner.integral_to(load)
    }
}

/// A 64-trial sweep that stops before its first round does no dynamics, so
/// every `sum_range` call is start-potential work: it must happen once for
/// the whole ensemble (in `Ensemble::new`), not once per trial or lane
/// group.
#[test]
fn a_sweep_sums_the_start_potential_once() {
    let sums = Arc::new(AtomicU64::new(0));
    let game = CongestionGame::singleton(
        vec![
            Arc::new(CountingSums { inner: Affine::new(2.0, 1.0).into(), sums: Arc::clone(&sums) })
                as LatencyFn,
        ],
        500,
    )
    .expect("valid game");
    let start = State::from_counts(&game, vec![500]).expect("valid start");
    let stop = StopSpec::max_rounds(0);
    for lane_width in [None, Some(8)] {
        sums.store(0, Ordering::Relaxed);
        let mut e = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .rng_mode(RngMode::Counter)
            .trials(64)
            .threads(2);
        if let Some(width) = lane_width {
            e = e.lane_width(width);
        }
        let prepared = sums.load(Ordering::Relaxed);
        assert_eq!(prepared, 1, "one resource: one sum for the start potential");
        let summaries =
            e.run_reduced(&stop, |_| FinalSummary, Vec::new()).expect("zero-round sweep");
        assert_eq!(summaries.len(), 64);
        assert_eq!(
            sums.load(Ordering::Relaxed),
            prepared,
            "lane width {lane_width:?}: trials re-summed the start potential"
        );
    }
}
