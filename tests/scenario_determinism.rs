//! The determinism contract extended to nonstationary runs: attaching a
//! scenario schedule to an ensemble must leave every bit-identity
//! guarantee intact. Shocked sweeps are compared across thread counts
//! 1/2/8 under both RNG backends, a shocked shard×3 wire merge is checked
//! bitwise against the single-process reduction, and mixed-scenario shard
//! headers (differing only in their `scenario=` config digest) must be
//! rejected per file.
//!
//! Scenario hooks are RNG-free by contract — they fire as a function of
//! the round number alone — which is exactly why every stationary
//! guarantee carries over unchanged.

use congames::dynamics::{
    merge_partials, EngineKind, Ensemble, FinalSummary, ImitationProtocol, MapItem, RoundHook,
    ScalarStats, StopSpec,
};
use congames::sampling::RngMode;
use congames::scenario::{generate::step_shock, Schedule, ScheduleCursor, ScheduledEvent};
use congames_testutil::games;
use std::sync::Arc;

/// A schedule that exercises every cache-breaking event family: a latency
/// shock, a demand change (support churn), and an arrival/departure pair.
fn churn_schedule() -> Arc<Schedule> {
    Arc::new(
        Schedule::new(vec![
            (6, ScheduledEvent::ScaleLatency { resource: 0, factor: 3.0 }),
            (12, ScheduledEvent::SetDemand { class: 0, players: 150 }),
            (18, ScheduledEvent::AddPlayers { strategy: 1, count: 10 }),
            (22, ScheduledEvent::RemovePlayers { strategy: 1, count: 5 }),
        ])
        .expect("valid churn schedule"),
    )
}

fn shocked_ensemble<'a>(
    game: &'a congames::CongestionGame,
    start: &congames::State,
    engine: EngineKind,
    rng: RngMode,
    threads: usize,
    schedule: Option<Arc<Schedule>>,
) -> Ensemble<'a> {
    let mut e = Ensemble::new(game, ImitationProtocol::paper_default().into(), start.clone())
        .expect("valid ensemble")
        .engine(engine)
        .rng_mode(rng)
        .trials(16)
        .base_seed(2026)
        .threads(threads);
    if let Some(schedule) = schedule {
        e = e.with_round_hook(move || {
            Box::new(ScheduleCursor::new(Arc::clone(&schedule))) as Box<dyn RoundHook>
        });
    }
    e
}

/// Shocked ensembles are bit-identical for thread counts 1/2/8, under
/// both engines and both RNG backends — and actually shocked (the hook
/// changes the outcome versus the stationary run).
#[test]
fn shocked_ensemble_identical_across_threads_and_rng_modes() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(30);
    let schedule = churn_schedule();
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        for rng in [RngMode::Xoshiro, RngMode::Counter] {
            let run = |threads: usize, sched: Option<Arc<Schedule>>| {
                shocked_ensemble(&game, &start, engine, rng, threads, sched)
                    .run_with(&stop, |sim, out| {
                        (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                    })
                    .expect("ensemble run succeeds")
            };
            let reference = run(1, Some(Arc::clone(&schedule)));
            for threads in [2, 8] {
                assert_eq!(
                    reference,
                    run(threads, Some(Arc::clone(&schedule))),
                    "{engine:?}/{rng}: shocked ensemble changed with {threads} threads"
                );
            }
            // The events moved demand from 120 to 150 (+10 −5): every
            // trial's final counts must total 155, never the original 120.
            for (_, _, counts) in &reference {
                assert_eq!(counts.iter().sum::<u64>(), 155, "{engine:?}/{rng}");
            }
            assert_ne!(
                reference,
                run(1, None),
                "{engine:?}/{rng}: the schedule had no observable effect"
            );
        }
    }
}

/// A shocked shard×3 run, pushed through the wire encoding and merged in
/// shard order, is bit-identical to the single-process shocked reduction.
#[test]
fn shocked_shard_merge_identical_to_single_process() {
    use congames::dynamics::wire::{decode_shard_file, encode_shard_file, WireReduce};
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(30);
    let schedule = step_shock(9, 0, 4.0).map(Arc::new).expect("valid step shock");
    let scalar =
        || MapItem::new(|s: congames::dynamics::RunSummary| s.potential, ScalarStats::new());
    for rng in [RngMode::Xoshiro, RngMode::Counter] {
        let ensemble = || {
            shocked_ensemble(
                &game,
                &start,
                EngineKind::Aggregate,
                rng,
                2,
                Some(Arc::clone(&schedule)),
            )
        };
        let single = ensemble()
            .run_reduced(&stop, |_t| FinalSummary, scalar())
            .expect("single-process run succeeds");
        let mut leaves = Vec::new();
        for shard in 0..3 {
            let blocks = ensemble()
                .run_reduced_shard(shard, 3, &stop, |_t| FinalSummary, &scalar())
                .expect("shard run succeeds");
            // Round-trip the leaves through the wire format, as the CLI
            // shard files do.
            let header = congames::dynamics::wire::ShardHeader {
                base_seed: 2026,
                trials: 16,
                trial_lo: ensemble().shard_trials(shard, 3).start as u64,
                trial_hi: ensemble().shard_trials(shard, 3).end as u64,
                shard: shard as u32,
                num_shards: 3,
                rng_mode: rng,
                reducer_id: scalar().wire_id(),
                config: format!("scenario={}", schedule.digest()),
            };
            let bytes = encode_shard_file(&header, &blocks);
            let (_, decoded) = decode_shard_file(&scalar(), &bytes).expect("shard file decodes");
            leaves.extend(decoded);
        }
        let merged = merge_partials(scalar(), leaves);
        assert_eq!(
            merged.inner(),
            single.inner(),
            "{rng}: shocked 3-shard wire merge changed the reduction bits"
        );
    }
}

/// Shard headers that differ only in their `scenario=` digest are a
/// different run configuration and must not merge.
#[test]
fn mixed_scenario_shard_sets_are_rejected() {
    use congames::dynamics::wire::{validate_shard_sequence, ShardHeader, WireError};
    let shock = step_shock(9, 0, 4.0).expect("valid step shock");
    let other = step_shock(10, 0, 4.0).expect("valid step shock");
    assert_ne!(shock.digest(), other.digest());
    let header = |shard: u32, digest: &str| ShardHeader {
        base_seed: 2026,
        trials: 64,
        trial_lo: u64::from(shard) * 32,
        trial_hi: u64::from(shard + 1) * 32,
        shard,
        num_shards: 2,
        rng_mode: RngMode::Counter,
        reducer_id: "welford".into(),
        config: format!("links=1,2;scenario={digest}"),
    };
    let headers = vec![header(0, &shock.digest()), header(1, &other.digest())];
    let err = validate_shard_sequence(&headers).expect_err("mixed scenarios must not merge");
    assert!(matches!(err, WireError::ConfigMismatch { shard: 1, .. }), "{err:?}");
    assert!(err.to_string().contains("different run configuration"), "{err}");
    // Uniform-scenario sets stay mergeable.
    let ok = vec![header(0, &shock.digest()), header(1, &shock.digest())];
    validate_shard_sequence(&ok).expect("uniform-scenario shards merge");
}

/// Fire rounds of [`beta_schedule`], in order.
const BETA_FIRE_ROUNDS: [u64; 7] = [4, 9, 11, 14, 17, 20, 23];

/// `[d, ν, β, ℓ_min]` bits of `Simulation::params` after each firing of
/// [`beta_schedule`]. The parameters depend on the game alone, so both
/// engines must reach the same values.
const BETA_PARAMS_PIN: [[u64; 4]; 7] = [
    [0x403af881df881df9, 0x4043e00000000000, 0x407c140000000000, 0x3fe8000000000000],
    [0x403af881df881df9, 0x403bd33333333330, 0x4073a79999999a00, 0x3fe0cccccccccccc],
    [0x403af881df881df9, 0x403bd33333333330, 0x4073a79999999a00, 0x3fe0cccccccccccc],
    [0x403af881df881df9, 0x403bd33333333330, 0x4081058000000000, 0x3fe0cccccccccccc],
    [0x403af881df881df9, 0x403bd33333333330, 0x4085e0b333333340, 0x3fe0cccccccccccc],
    [0x403af881df881df9, 0x403bd33333333330, 0x4083624ccccccd00, 0x3fe0cccccccccccc],
    [0x4000000000000000, 0x3ff9333333333332, 0x4070d53333333380, 0x3fe0cccccccccccc],
];

/// Final counts and potential bits at round 30: aggregate, then player.
const BETA_FINAL_PIN: [([u64; 4], u64); 2] =
    [([4, 55, 118, 80], 0x40e217aa7cc404a8), ([15, 52, 107, 83], 0x40def0ca1ef95eb0)];

/// Four links whose β comes from different places: a closed-form affine
/// link, a monomial that the schedule wraps in `Scaled`, and two
/// `FnLatency` links whose slopes are scanned. The kinked link's largest
/// step sits at full load, so β moves with every demand change; the
/// square-root link's sits at the first step.
fn beta_game() -> congames::CongestionGame {
    use congames::model::{Affine, FnLatency, Monomial};
    congames::CongestionGame::singleton(
        vec![
            Affine::new(1.0, 2.0).into(),
            Monomial::new(0.5, 2).into(),
            FnLatency::new("kinked", |x| {
                let x = x as f64;
                let over = (x - 280.0).max(0.0);
                1.0 + 0.75 * x + 2.0 * over * over
            })
            .into(),
            FnLatency::new("sqrtish", |x| 3.0 * ((x as f64) + 1.0).sqrt()).into(),
        ],
        300,
    )
    .expect("valid game")
}

/// Nested `ScaleLatency` (×1.5 then ×0.7) on the monomial and the kinked
/// link, demand up and back down, and an arrival and a departure in
/// between. The last demand, 257, puts the scaled monomial's largest
/// step (its last) one load into a second 256-load scan window.
fn beta_schedule() -> Arc<Schedule> {
    Arc::new(
        Schedule::new(vec![
            (4, ScheduledEvent::ScaleLatency { resource: 1, factor: 1.5 }),
            (4, ScheduledEvent::ScaleLatency { resource: 2, factor: 1.5 }),
            (9, ScheduledEvent::ScaleLatency { resource: 1, factor: 0.7 }),
            (11, ScheduledEvent::ScaleLatency { resource: 2, factor: 0.7 }),
            (14, ScheduledEvent::SetDemand { class: 0, players: 410 }),
            (17, ScheduledEvent::AddPlayers { strategy: 2, count: 37 }),
            (20, ScheduledEvent::RemovePlayers { strategy: 0, count: 19 }),
            (23, ScheduledEvent::SetDemand { class: 0, players: 257 }),
        ])
        .expect("valid beta schedule"),
    )
}

/// The combined protocol reads β (through its exploration half), so every
/// firing's re-derived `GameParams` steers the rest of the run. Pinned
/// bits: the parameters after each firing, and the final counts and
/// potential, under both engines in counter mode.
#[test]
fn combined_protocol_params_after_each_firing_are_pinned() {
    use congames::dynamics::{Protocol, Simulation};
    use congames::sampling::DrawStream;
    let game = beta_game();
    let start = congames::State::from_counts(&game, vec![90, 80, 70, 60]).expect("valid start");
    let mut observed_params = Vec::new();
    let mut observed_final = Vec::new();
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let mut sim = Simulation::new(&game, Protocol::combined_default(), start.clone())
            .expect("valid simulation")
            .with_engine(engine)
            .with_hook(Box::new(ScheduleCursor::new(beta_schedule())));
        let mut rng = DrawStream::for_trial(RngMode::Counter, 0x5eed_0016, 3);
        let mut params = Vec::new();
        for round in BETA_FIRE_ROUNDS {
            // A run to `MaxRounds(round)` fires that round's events before
            // it stops, so the parameters read here are the rebuilt ones.
            sim.run_observed(&StopSpec::max_rounds(round), &mut rng, &mut FinalSummary)
                .expect("segment runs");
            assert_eq!(sim.round(), round, "{engine:?}: segment stopped off its fire round");
            let p = sim.params();
            params.push([p.d.to_bits(), p.nu.to_bits(), p.beta.to_bits(), p.ell_min.to_bits()]);
        }
        let summary = sim
            .run_observed(&StopSpec::max_rounds(30), &mut rng, &mut FinalSummary)
            .expect("final segment runs");
        let counts: [u64; 4] = sim.state().counts().try_into().expect("four strategies");
        assert_eq!(counts.iter().sum::<u64>(), 257, "{engine:?}: final demand");
        observed_final.push((counts, summary.potential.to_bits()));
        observed_params.push(params);
    }
    assert_eq!(observed_params[0], observed_params[1], "params depend on the game alone");
    assert_eq!(
        observed_params[0], BETA_PARAMS_PIN,
        "re-derived GameParams drifted; observed {:#x?}",
        observed_params[0]
    );
    assert_eq!(
        observed_final, BETA_FINAL_PIN,
        "final state drifted; observed {observed_final:#x?}"
    );
}
