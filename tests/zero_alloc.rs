//! Steady-state allocation pin for the round kernels.
//!
//! The scratch-buffer engine design promises **zero heap allocations per
//! round in steady state** for both kernels: all per-round working memory
//! (CSR pair buffer, multinomial counts, μ memo, move/commit buffers,
//! the state's latency cache, migration scratch) is owned by the
//! [`Simulation`] and reused. This test installs a counting global
//! allocator, warms a simulation past its buffer high-water marks, and then
//! asserts that further rounds perform no allocation at all. Both engines
//! are checked under both RNG modes: counter-mode player-level rounds also
//! build the movable-origin mask, which lives in the same reused scratch.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! perturb the global counter.

use congames::dynamics::{EngineKind, ImitationProtocol, NuRule, Protocol, Simulation};
use congames::model::{Affine, CongestionGame, State};
use congames::sampling::{DrawRng, DrawStream, RngMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

// Per-thread counter so the measurement is immune to allocations the test
// harness performs concurrently on other threads (a real, observed source
// of flaky counts with a process-global counter). The `const` initializer
// keeps TLS access allocation-free; `try_with` tolerates thread teardown.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to `System`, only incrementing a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed by the *current* thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Eight asymmetric linear links with a heavily skewed start: the dynamics
/// churn for a few hundred rounds before freezing, so a window placed
/// right after warm-up exercises every kernel code path (pair enumeration,
/// multinomials, the μ memo, the commit sort, migration application)
/// while buffers are already at their high-water marks — the largest
/// flows happen in the *first* rounds.
fn game() -> CongestionGame {
    CongestionGame::singleton(
        (0..8).map(|i| Affine::linear(1.0 + 0.25 * i as f64).into()).collect(),
        4096,
    )
    .expect("valid game")
}

fn skewed_start(game: &CongestionGame) -> State {
    let mut counts = vec![64u64; game.num_strategies()];
    counts[0] = 4096 - 7 * 64;
    State::from_counts(game, counts).expect("valid start")
}

fn assert_steady_state_alloc_free(
    engine: EngineKind,
    protocol: Protocol,
    label: &str,
    require_steady_migrations: bool,
    mut rng: impl DrawRng,
) {
    let game = game();
    let mut sim = Simulation::new(&game, protocol, skewed_start(&game))
        .expect("valid simulation")
        .with_engine(engine);
    // Warm-up: the first rounds carry the largest flows, so 50 rounds
    // drive every scratch buffer to its high-water mark.
    let mut migrated = 0u64;
    for _ in 0..50 {
        migrated += sim.step(&mut rng).expect("warm-up round").migrations;
    }
    assert!(migrated > 0, "{label}: warm-up must exercise the migration path");
    let before = allocations();
    let mut migrated = 0u64;
    for _ in 0..100 {
        migrated += sim.step(&mut rng).expect("steady-state round").migrations;
    }
    let after = allocations();
    if require_steady_migrations {
        // All positive-gain dynamics eventually freeze (the potential is a
        // supermartingale), so only configurations whose churn provably
        // outlasts the window assert ongoing migrations.
        assert!(migrated > 0, "{label}: the measured window must still migrate");
    }
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations in 100 measured rounds",
        after - before
    );
}

/// Big-flow aggregate rounds: 2¹⁶ players on 8 links, so the early rounds
/// migrate thousands of players per resource and every `ΔΦ` update walks
/// more than 10³ intermediate loads through the batched
/// `Latency::sum_range` (which must chunk through its fixed stack buffer,
/// never the heap).
fn assert_big_flow_rounds_alloc_free() {
    let game = CongestionGame::singleton(
        (0..8).map(|i| Affine::linear(1.0 + 0.25 * i as f64).into()).collect(),
        1 << 16,
    )
    .expect("valid game");
    let mut counts = vec![1024u64; 8];
    counts[0] = (1 << 16) - 7 * 1024;
    let start = State::from_counts(&game, counts).expect("valid start");
    let mut sim = Simulation::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        start,
    )
    .expect("valid simulation")
    .with_engine(EngineKind::Aggregate);
    let mut rng = SmallRng::seed_from_u64(77);
    // Warm-up: round 1 carries the single largest flow, so two rounds put
    // every scratch buffer at its high-water mark.
    for _ in 0..2 {
        sim.step(&mut rng).expect("warm-up round");
    }
    let mut prev_loads = sim.state().loads().to_vec();
    let before = allocations();
    let mut max_delta = 0u64;
    for _ in 0..10 {
        sim.step(&mut rng).expect("big-flow round");
        for (o, &n) in prev_loads.iter_mut().zip(sim.state().loads()) {
            max_delta = max_delta.max(o.abs_diff(n));
            *o = n;
        }
    }
    let after = allocations();
    assert!(
        max_delta > 1_000,
        "big-flow window must walk >10³ intermediate loads per ΔΦ (got {max_delta})"
    );
    assert_eq!(
        after - before,
        0,
        "big-flow aggregate rounds: {} heap allocations in 10 measured rounds",
        after - before
    );
}

/// Full latency-cache rebuilds (invalidate + `ensure_latency_cache`) on a
/// warmed state: the batched per-resource pair evaluation and the
/// cleared-then-refilled cache vectors must reuse their capacity.
fn assert_cache_rebuild_alloc_free() {
    use congames::model::Monomial;
    let lats = (0..64)
        .map(|i| -> congames::model::LatencyFn {
            if i % 2 == 0 {
                Affine::linear(1.0 + i as f64).into()
            } else {
                Monomial::new(1.0 + i as f64, 2).into()
            }
        })
        .collect();
    let game = CongestionGame::singleton(lats, 4096).expect("valid game");
    let mut counts = vec![64u64; 64];
    counts[0] = 4096 - 63 * 64;
    let mut state = State::from_counts(&game, counts).expect("valid state");
    state.ensure_latency_cache(&game); // warm: allocates the tables once
    let before = allocations();
    for _ in 0..100 {
        state.invalidate_latency_cache();
        state.ensure_latency_cache(&game);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "latency-cache rebuild: {} heap allocations in 100 rebuilds",
        after - before
    );
}

/// Support-index maintenance in steady state: once
/// `ensure_support_index` has built the per-class occupied lists (full
/// class capacity reserved up front), migration batches that repeatedly
/// push strategies *out of and back into* the support — the worst case
/// for the sorted-insert maintenance — must not touch the heap.
fn assert_support_index_maintenance_alloc_free() {
    use congames::model::Migration;
    use congames::model::StrategyId;
    let game = game();
    let mut counts = vec![0u64; 8];
    counts[0] = 4096;
    let mut state = State::from_counts(&game, counts).expect("valid state");
    state.ensure_support_index(&game);
    let sid = StrategyId::new;
    // Warm-up: first batch sizes the internal outflow scratch.
    state.apply_migrations(&game, &[Migration::new(sid(0), sid(1), 8)]).expect("warm-up batch");
    let before = allocations();
    for i in 0..100u32 {
        // Occupy a rotating strategy, then drain it again: one insert and
        // one remove per batch, at shifting positions in the sorted list.
        let s = sid(2 + (i % 6));
        state
            .apply_migrations(&game, &[Migration::new(sid(0), s, 16), Migration::new(sid(1), s, 4)])
            .expect("occupy batch");
        state
            .apply_migrations(&game, &[Migration::new(s, sid(0), 16), Migration::new(s, sid(1), 4)])
            .expect("drain batch");
        assert_eq!(state.support_size(), 2, "support must be back to {{0, 1}}");
    }
    let after = allocations();
    assert!(state.support_consistent(&game));
    assert_eq!(
        after - before,
        0,
        "support-index maintenance: {} heap allocations in 200 toggling batches",
        after - before
    );
}

/// Steady-state replica-major lane rounds: once the kernel's SoA blocks,
/// union latency window, per-lane CSR pair buffers, and draw scratch have
/// hit their high-water marks, stepping 16 lockstep replicas must not
/// touch the heap — the lane kernel holds the same zero-allocation
/// contract as the scalar engines it replays, under **every** SIMD
/// dispatch arm (the vector arms share the kernel's preallocated scratch;
/// forcing an arm the CPU lacks resolves to the next-best one, so the
/// check is meaningful on any host).
fn assert_lane_rounds_alloc_free(dispatch: congames::sampling::Dispatch) {
    use congames::dynamics::LaneKernel;
    let game = game();
    let start = skewed_start(&game);
    let mut kernel = LaneKernel::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        &start,
        20090808,
        0,
        16,
    )
    .expect("valid lane kernel")
    .with_dispatch(dispatch);
    // Warm-up: the first rounds carry the largest flows across every lane.
    for _ in 0..50 {
        kernel.step();
    }
    assert!((0..16).all(|l| kernel.lane_active(l)), "no lane may retire in this fixture");
    let before = allocations();
    for _ in 0..100 {
        kernel.step();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lane kernel ({dispatch:?}): {} heap allocations in 100 measured lockstep rounds",
        after - before
    );
}

#[test]
fn round_kernels_do_not_allocate_in_steady_state() {
    let base = ImitationProtocol::paper_default().with_nu_rule(NuRule::None);
    let imitation: Protocol = base.into();
    let combined =
        Protocol::combined(base, congames::dynamics::ExplorationProtocol::paper_default(), 0.25)
            .expect("valid combined protocol");
    for (protocol, name, steady) in [(imitation, "imitation", true), (combined, "combined", true)] {
        for (engine, kernel) in
            [(EngineKind::Aggregate, "aggregate"), (EngineKind::PlayerLevel, "player-level")]
        {
            let label = format!("{kernel}/{name}");
            assert_steady_state_alloc_free(
                engine,
                protocol,
                &label,
                steady,
                SmallRng::seed_from_u64(1234),
            );
            // Counter mode: addressed draws, so player-level rounds also
            // build the movable-origin mask and skip unmovable players.
            assert_steady_state_alloc_free(
                engine,
                protocol,
                &format!("{label}/counter"),
                steady,
                DrawStream::for_trial(RngMode::Counter, 1234, 0),
            );
        }
    }
    // The batched-latency paths this repo's perf story now rests on:
    // big-flow ΔΦ walks and full cache rebuilds stay off the heap too.
    assert_big_flow_rounds_alloc_free();
    assert_cache_rebuild_alloc_free();
    // Incremental support-index maintenance (inserts/removes as counts
    // cross zero) is likewise allocation-free once built.
    assert_support_index_maintenance_alloc_free();
    // Replica-major lane rounds reuse the same scratch discipline, in
    // both the scalar and the vector dispatch arms.
    use congames::sampling::Dispatch;
    assert_lane_rounds_alloc_free(Dispatch::Scalar);
    assert_lane_rounds_alloc_free(Dispatch::Avx512.resolve());
}
