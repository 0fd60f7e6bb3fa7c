//! Isolated unit costs: each layer primitive timed alone, on the
//! workload's own game and state where it has one. The cost model
//! multiplies these by census counts.

use std::hint::black_box;
use std::time::Instant;

use congames_model::{potential_delta_for_load_change, ResourceId};
use congames_sampling::{binomial, counter_blocks, CounterRng, Dispatch};
use rand::RngCore;

use crate::workload::Setup;

/// Batches per unit cost; the median batch is reported.
const BATCHES: usize = 7;

/// Median over `BATCHES` of the ns per unit of `batch`, which does its
/// work and returns how many units it did.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let units = batch();
            t0.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One word off a `CounterRng` site walk (`begin_site` + 8 draws).
    pub philox_ns_per_word: f64,
    /// One word of `counter_blocks` over 32 lanes.
    pub batched_ns_per_word: f64,
    /// One `binomial` draw with mean 3.2 (n = 64, p = 0.05).
    pub binomial_small_ns: f64,
    /// One `binomial` draw with mean 3·10⁴ (n = 10⁵, p = 0.3).
    pub binomial_large_ns: f64,
    /// `invalidate_latency_cache` + `ensure_latency_cache` on the start.
    pub cache_rebuild_ns: f64,
    /// `potential_delta_for_load_change` per unit of load moved.
    pub delta_walk_ns_per_unit: f64,
}

pub fn measure(setup: &Setup, seed: u64) -> UnitCosts {
    let mut rng = CounterRng::for_trial(seed, 0);
    let mut site = 0u64;
    let philox_ns_per_word = ns_per_unit(|| {
        let mut acc = 0u64;
        for _ in 0..20_000 {
            rng.begin_site(site);
            site += 1;
            for _ in 0..8 {
                acc ^= rng.next_u64();
            }
        }
        black_box(acc);
        160_000
    });

    let trials: Vec<u64> = (0..32).collect();
    let mut blocks = vec![[0u64; 4]; 32];
    let dispatch = Dispatch::global();
    let mut round = 0u64;
    let batched_ns_per_word = ns_per_unit(|| {
        for s in 0..2_000 {
            counter_blocks(dispatch, seed, round, s, 0, &trials, &mut blocks);
            black_box(&blocks);
        }
        round += 1;
        2_000 * 32 * 4
    });

    let mut rng = CounterRng::for_trial(seed, 1);
    let mut binomial_ns = |n: u64, p: f64, reps: u64| {
        ns_per_unit(|| {
            for _ in 0..reps {
                black_box(binomial(&mut rng, n, p).expect("valid binomial parameters"));
            }
            reps
        })
    };
    let binomial_small_ns = binomial_ns(64, 0.05, 20_000);
    let binomial_large_ns = binomial_ns(100_000, 0.3, 20_000);

    let game = &setup.game;
    let mut state = setup.start.clone();
    let cache_rebuild_ns = ns_per_unit(|| {
        for _ in 0..5_000 {
            state.invalidate_latency_cache();
            state.ensure_latency_cache(game);
            black_box(&state);
        }
        5_000
    });

    let r = ResourceId::new(0);
    let load = setup.start.load(r);
    let step = (setup.spec.players / 100).max(1);
    let delta_walk_ns_per_unit = ns_per_unit(|| {
        let mut acc = 0.0;
        for i in 0..200 {
            let old = load.saturating_sub(step) + i % 2;
            acc += potential_delta_for_load_change(game, r, 0, old, old + step);
        }
        black_box(acc);
        200 * step
    });

    UnitCosts {
        philox_ns_per_word,
        batched_ns_per_word,
        binomial_small_ns,
        binomial_large_ns,
        cache_rebuild_ns,
        delta_walk_ns_per_unit,
    }
}
