//! Replica-major lane kernel: bit-identity property tests.
//!
//! The contract under test is absolute, not statistical: every lane of a
//! [`LaneKernel`] must realize **bit for bit** the trajectory the scalar
//! aggregate engine realizes for the same trial in counter mode. The suite
//! sweeps every supported lane width on one- and two-class fixtures,
//! re-derives the frozen `[28, 14, 8]` counter-kernel pin through the lane
//! kernel, and checks that `Ensemble::lane_width` leaves reduced sweeps
//! byte-identical for every lane width × thread count combination.

use congames::dynamics::{
    EngineKind, Ensemble, FinalSummary, ImitationProtocol, LaneKernel, MapItem, Observer, Protocol,
    RecordConfig, RoundRecord, RunSummary, ScalarStats, Simulation, StopCondition, StopReason,
    StopSpec, LANE_WIDTHS,
};
use congames::model::{ApproxEquilibrium, CongestionGame, State};
use congames::sampling::{DrawStream, RngMode};
use congames_testutil::games;
use congames_testutil::rng::fixture_seed;

/// Rounds per lockstep comparison: enough mixing that a drifting lane
/// diverges visibly, short enough to keep the width sweep fast.
const ROUNDS: u64 = 15;

/// Step every lane of a fresh kernel `ROUNDS` times and require each lane's
/// counts, potential bits, and migration tally to equal the scalar
/// counter-mode run of its trial.
fn assert_lanes_match_scalar(label: &str, game: &CongestionGame, start: &State, width: usize) {
    let base_seed = fixture_seed(label, 0);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let mut kernel =
        LaneKernel::new(game, protocol, start, base_seed, 0, width).expect("valid lane kernel");
    for _ in 0..ROUNDS {
        kernel.step();
    }
    for lane in 0..width {
        let mut sim = Simulation::new(game, protocol, start.clone()).expect("valid simulation");
        let mut rng = DrawStream::for_trial(RngMode::Counter, base_seed, lane as u64);
        let mut migrations = 0;
        for _ in 0..ROUNDS {
            migrations = sim.step(&mut rng).expect("scalar step").migrations;
        }
        assert_eq!(
            kernel.lane_counts(lane),
            sim.state().counts(),
            "{label}: lane {lane} of {width} diverged from the scalar counts"
        );
        assert_eq!(
            kernel.lane_potential(lane).to_bits(),
            sim.potential().to_bits(),
            "{label}: lane {lane} of {width} diverged from the scalar potential bits"
        );
        assert_eq!(
            kernel.lane_migrations(lane),
            migrations,
            "{label}: lane {lane} of {width} diverged from the scalar migration count"
        );
    }
}

#[test]
fn every_lane_width_matches_scalar_on_a_single_class_fixture() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    for width in LANE_WIDTHS {
        assert_lanes_match_scalar("lanes/affine", &game, &start, width);
    }
}

#[test]
fn every_lane_width_matches_scalar_on_a_two_class_fixture() {
    // Two player classes over overlapping strategy sets: exercises the
    // per-class pair walk, the union origin/destination sets, and per-class
    // exploration scaling inside the lane kernel.
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    for width in LANE_WIDTHS {
        assert_lanes_match_scalar("lanes/two-class", &game, &start, width);
    }
}

/// The frozen counter-kernel pin from `engine_equivalence`: trial 7 of the
/// `eq/kernel-pin` fixture reaches counts `[28, 14, 8]` after 30 rounds.
/// The lane kernel must re-derive those exact bits when trial 7 rides as
/// lane 0 of a lane group.
#[test]
fn lane_kernel_reproduces_the_pinned_counter_trajectory() {
    let game = games::linear_singleton(3, 50);
    let start = games::geometric_state(&game);
    let mut kernel = LaneKernel::new(
        &game,
        ImitationProtocol::paper_default().into(),
        &start,
        fixture_seed("eq/kernel-pin", 0),
        7,
        8,
    )
    .expect("valid lane kernel");
    for _ in 0..30 {
        kernel.step();
    }
    assert_eq!(
        kernel.lane_counts(0),
        &[28, 14, 8],
        "lane 0 (trial 7) drifted from the pinned counter trajectory"
    );
}

/// `Ensemble::lane_width` is pure scheduling: for every lane width × thread
/// count, a reduced sweep over a two-class game must produce the scalar
/// sweep's bits, and per-trial outputs must arrive in trial order.
#[test]
fn lane_ensembles_are_bit_identical_for_every_width_and_thread_count() {
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(40)])
        .with_check_every(4);
    let run = |lanes: Option<usize>, threads: usize| -> Vec<u64> {
        let mut e = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .engine(EngineKind::Aggregate)
            .rng_mode(RngMode::Counter)
            .trials(70)
            .base_seed(fixture_seed("lanes/ensemble", 0))
            .threads(threads);
        if let Some(w) = lanes {
            e = e.lane_width(w);
        }
        e.run_reduced(
            &stop,
            |_trial| FinalSummary,
            MapItem::new(|s: RunSummary| s.potential.to_bits(), Vec::new()),
        )
        .expect("reduced run succeeds")
        .into_inner()
    };
    let scalar = run(None, 1);
    assert_eq!(scalar.len(), 70);
    for width in LANE_WIDTHS {
        for threads in [1, 2, 8] {
            assert_eq!(
                scalar,
                run(Some(width), threads),
                "lanes={width} threads={threads} changed per-trial potential bits"
            );
        }
    }
}

/// The quantile sketch path (the CLI's `--reduce quantiles`) through lanes:
/// summary statistics of a lane sweep equal the scalar sweep exactly.
#[test]
fn lane_quantile_reductions_match_scalar_bits() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(25);
    let run = |lanes: Option<usize>| {
        let mut e = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .rng_mode(RngMode::Counter)
            .trials(80)
            .base_seed(2024)
            .threads(4);
        if let Some(w) = lanes {
            e = e.lane_width(w);
        }
        e.run_reduced(
            &stop,
            |_trial| FinalSummary,
            MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
        )
        .expect("reduced run succeeds")
        .into_inner()
    };
    let scalar = run(None);
    for width in LANE_WIDTHS {
        assert_eq!(scalar, run(Some(width)), "lanes={width} changed the quantile sketch");
    }
}

/// A run's observable output, bit for bit: every record the observer saw
/// (floats as raw bits) plus the final summary.
type RunBits = (Vec<[u64; 9]>, (StopReason, u64, u64));

/// Observer that keeps the full record stream and the summary.
struct Tape(Vec<[u64; 9]>);

impl Observer for Tape {
    type Output = RunBits;

    fn observe(&mut self, r: &RoundRecord) {
        self.0.push([
            r.round,
            r.potential.to_bits(),
            r.l_av.to_bits(),
            r.l_av_plus.to_bits(),
            r.max_latency.to_bits(),
            r.migrations,
            r.support as u64,
            r.unsatisfied_fraction.map_or(u64::MAX, f64::to_bits),
            r.shock as u64,
        ]);
    }

    fn finish(self, s: &RunSummary) -> RunBits {
        (self.0, (s.reason, s.rounds, s.potential.to_bits()))
    }
}

/// Lanes and scalar counter-mode runs share one stop/record contract: for
/// every stop-condition kind, record cadence (off, 1, 3 — so stop records
/// fall off the cadence) and `check_every` (1, 4), each lane's record
/// stream and summary equal the scalar run of its trial, at widths 8 and
/// 64.
#[test]
fn lane_records_and_summaries_match_scalar_for_every_stop_kind_and_cadence() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let base_seed = fixture_seed("lanes/stop-record", 0);
    let cap = 60;
    // A potential target some lanes reach mid-run: trial 0's at round 5.
    let target = {
        let mut sim = Simulation::new(&game, protocol, start.clone()).expect("valid simulation");
        let mut rng = DrawStream::for_trial(RngMode::Counter, base_seed, 0);
        sim.run(&StopSpec::max_rounds(5), &mut rng).expect("scalar run").potential
    };
    let eq = ApproxEquilibrium::new(0.05, 0.05, 0.0).expect("valid approx equilibrium");
    let kinds = [
        StopCondition::MaxRounds(cap),
        StopCondition::PotentialAtMost(target),
        StopCondition::ImitationStable,
        StopCondition::ApproxEquilibrium(eq),
        StopCondition::NashEquilibrium { tol: 0.5 },
    ];
    let mut reasons = Vec::new();
    let mut off_cadence_stops = 0;
    for kind in kinds {
        let approx = matches!(kind, StopCondition::ApproxEquilibrium(_)).then_some(eq);
        for every in [0, 1, 3] {
            let record = RecordConfig { every, approx: approx.filter(|_| every > 0) };
            for check_every in [1, 4] {
                let stop = StopSpec::new(vec![kind, StopCondition::MaxRounds(cap)])
                    .with_check_every(check_every);
                let scalar: Vec<RunBits> = (0..64)
                    .map(|trial| {
                        let mut sim = Simulation::new(&game, protocol, start.clone())
                            .expect("valid simulation")
                            .with_recording(record);
                        let mut rng = DrawStream::for_trial(RngMode::Counter, base_seed, trial);
                        let mut tape = Tape(Vec::new());
                        let summary =
                            sim.run_observed(&stop, &mut rng, &mut tape).expect("scalar run");
                        tape.finish(&summary)
                    })
                    .collect();
                for width in [8, 64] {
                    let mut kernel = LaneKernel::new(&game, protocol, &start, base_seed, 0, width)
                        .expect("valid lane kernel")
                        .with_recording(record);
                    let lanes = kernel
                        .run_observed(&stop, (0..width).map(|_| Tape(Vec::new())).collect())
                        .expect("lane run");
                    assert_eq!(
                        lanes,
                        scalar[..width],
                        "{kind:?} record every {every} check_every {check_every} width {width}"
                    );
                }
                for (records, (reason, rounds, _)) in &scalar {
                    reasons.push(*reason);
                    if every == 3 && rounds % 3 != 0 {
                        assert_eq!(records.last().map(|r| r[0]), Some(*rounds));
                        off_cadence_stops += 1;
                    }
                }
            }
        }
    }
    // The fixture must exercise what the pin guards: every stop reason
    // fires somewhere, and stop records do fall off the cadence.
    for reason in [
        StopReason::MaxRounds,
        StopReason::PotentialReached,
        StopReason::ImitationStable,
        StopReason::ApproxEquilibrium,
        StopReason::NashEquilibrium,
    ] {
        assert!(reasons.contains(&reason), "no run stopped with {reason:?}");
    }
    assert!(off_cadence_stops > 0, "no stop record fell off the cadence");
}
