//! Property pins for the batched latency-evaluation layer.
//!
//! The batched layer (`Latency::eval_range_into` / `Latency::sum_range`)
//! promises **bit-identical semantics**: batching changes the cost of
//! evaluating a load window, never the result. This suite pins that
//! promise for every latency family over random `(base, lo, hi)` windows:
//!
//! * `eval_range_into` matches pointwise `value()` **bit-for-bit**;
//! * the default `sum_range` (left-to-right summation of the batch
//!   output, [`sum_range_via_eval`]) matches the scalar accumulation loop
//!   it replaced **bit-for-bit**;
//! * the closed-form overrides (`Constant`, `Affine`) match the default
//!   within 1e-12 relative (they are mathematically exact, so they may
//!   differ from the `|range| − 1` sequential roundings by a few ulps);
//! * splitting a window at any interior point and adding the two
//!   `sum_range` halves agrees with the single-pass default over the
//!   whole window within 1e-12 relative;
//! * the batched *defaults* of `max_step`, `sum_range`, and `integral_to`
//!   (exercised through a wrapper that keeps each family's tight
//!   `eval_range_into` loops but drops its closed-form overrides) match
//!   scalar reference loops bit-for-bit;
//! * the lane-parallel default `max_step` matches the serial
//!   `best.max(v − prev)` loop bit-for-bit on the latencies that reach it
//!   in a game — 1–4 nested `Scaled` layers with non-power-of-two
//!   factors, `FnLatency`, latencies saturating to `+∞` (whose later steps
//!   are `∞ − ∞ = NaN`) — over windows that straddle its 256-load window.
//!
//! Window lengths are capped at 2048 so the 1e-12 relative tolerance
//! dominates the worst-case `(n−1)·u` error of sequential summation.
//! Seeds in `proptest-regressions/prop_latency_batch.txt` replay pinned
//! cases before the random ones on every run.

use congames::model::latency::sum_range_via_eval;
use congames::model::{
    Affine, Bpr, Constant, FnLatency, Latency, LatencyFn, Monomial, Polynomial, Scaled,
};
use proptest::prelude::*;
use std::ops::Range;

/// Forwarding wrapper that inherits the wrapped family's `value` and tight
/// `eval_range_into` loops but **keeps the trait defaults** for
/// `sum_range`, `max_step`, `elasticity_bound`, `value_at`, and
/// `integral_to` — the probe for "the batched defaults preserve the exact
/// operation order of the scalar loops they replaced".
#[derive(Debug)]
struct DefaultsOf(LatencyFn);

impl Latency for DefaultsOf {
    fn value(&self, load: u64) -> f64 {
        self.0.value(load)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        self.0.eval_range_into(base, range, out);
    }
}

/// A random instance of every latency family; the flag says whether the
/// family overrides `sum_range` with a closed form (`Constant`/`Affine`).
fn arb_latency() -> impl Strategy<Value = (LatencyFn, bool)> {
    (0u32..6, 1u32..=6, (1u32..=40, 0u32..=30), proptest::collection::vec(0u32..=5, 1..=5))
        .prop_map(|(tag, k, (a, b), mut coeffs)| -> (LatencyFn, bool) {
            let af = a as f64 * 0.25;
            match tag {
                0 => (Constant::new(af).into(), true),
                1 => (Affine::new(af, b as f64 * 0.5).into(), true),
                2 => (Monomial::new(0.125 + af, k).into(), false),
                3 => {
                    // Coefficients may be all-zero; force one positive.
                    coeffs.push(1 + a);
                    let coeffs = coeffs.into_iter().map(|c| c as f64 * 0.25).collect();
                    (Polynomial::new(coeffs).into(), false)
                }
                4 => (Bpr::new(0.5 + af, 0.15, 10.0 + b as f64, k).into(), false),
                _ => {
                    let scale = 1.0 + af;
                    (
                        FnLatency::new("sqrtish", move |x| scale * ((x as f64) + 1.0).sqrt())
                            .into(),
                        false,
                    )
                }
            }
        })
}

/// Random evaluation window: base load, start, and a length that stays
/// below the summation-error budget of the 1e-12 relative tolerance.
fn arb_window() -> impl Strategy<Value = (u64, u64, u64)> {
    (0u64..1_000_000, 0u64..3_000, 0u64..=2_048).prop_map(|(base, lo, len)| (base, lo, lo + len))
}

/// Scale factors for nested `Scaled` layers. None is a power of two, so
/// every layer rounds: a closed form `factor · inner.max_step` would not
/// reproduce the scanned bits.
const SCALE_FACTORS: [f64; 4] = [1.5, 0.7, 3.3, 0.45];

/// The default `max_step` scans `STEP_WINDOW` loads per window.
const STEP_WINDOW: u64 = 256;

/// `+∞` from load `cap` on, linear below it: every step past `cap` is
/// `∞ − ∞ = NaN`, and the step into `cap` is `+∞`.
fn saturating(cap: u64) -> LatencyFn {
    FnLatency::new(
        "saturating",
        move |x| if x >= cap { f64::INFINITY } else { 1.0 + 0.5 * x as f64 },
    )
    .into()
}

/// A latency whose `max_step` is the trait default: any family from
/// [`arb_latency`], a saturating `FnLatency`, wrapped in 1–4 nested
/// `Scaled` layers with [`SCALE_FACTORS`].
fn arb_scanned_latency() -> impl Strategy<Value = LatencyFn> {
    (arb_latency(), 0u32..3, 0u64..4_000, proptest::collection::vec(0usize..4, 1..=4)).prop_map(
        |((inner, _), kind, cap, layers)| {
            let base = if kind == 0 { saturating(cap) } else { inner };
            layers.into_iter().fold(base, |l, i| Scaled::new(l, SCALE_FACTORS[i]).into())
        },
    )
}

/// A scan `lo ..= hi` whose length is either random or within one load
/// of a multiple of the scan window (255, 256, 257, 511, …, 1025).
fn arb_scan() -> impl Strategy<Value = (u64, u64)> {
    (0u64..3_000, 0u32..2, 1u64..=4, 0u64..=2, 0u64..=2_048).prop_map(
        |(lo, straddle, windows, jitter, len)| {
            let len = if straddle == 0 { len } else { windows * STEP_WINDOW + jitter - 1 };
            (lo, lo + len)
        },
    )
}

/// The pre-lane reference: the serial `best.max(v − prev)` loop over
/// `value(lo ..= hi)`, pointwise.
fn serial_max_step(l: &dyn Latency, lo: u64, hi: u64) -> f64 {
    let mut best = 0.0_f64;
    let mut prev = l.value(lo);
    for x in lo + 1..=hi {
        let v = l.value(x);
        best = best.max(v - prev);
        prev = v;
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// One batched virtual call returns exactly the pointwise values.
    #[test]
    fn eval_range_matches_pointwise_bitwise(
        (l, _) in arb_latency(),
        (base, lo, hi) in arb_window(),
    ) {
        let mut out = vec![0.0; (hi - lo) as usize];
        l.eval_range_into(base, lo..hi, &mut out);
        for (j, &v) in out.iter().enumerate() {
            let expect = l.value(base + lo + j as u64);
            prop_assert!(
                v.to_bits() == expect.to_bits(),
                "{l:?} batch/pointwise mismatch at load {}",
                base + lo + j as u64
            );
        }
    }

    /// The definitional `sum_range` (left-to-right over the batch output)
    /// reproduces the scalar accumulation loop bit-for-bit; families
    /// without a closed-form override serve exactly that from `sum_range`.
    #[test]
    fn default_sum_matches_scalar_loop_bitwise(
        (l, has_closed_form) in arb_latency(),
        (base, lo, hi) in arb_window(),
    ) {
        let mut scalar = 0.0_f64;
        for i in lo..hi {
            scalar += l.value(base + i);
        }
        let via_eval = sum_range_via_eval(&*l, base, lo..hi);
        prop_assert!(via_eval.to_bits() == scalar.to_bits(), "{l:?} default sum drifted");
        if !has_closed_form {
            prop_assert!(
                l.sum_range(base, lo..hi).to_bits() == scalar.to_bits(),
                "{l:?} sum_range must serve the default bit-identically"
            );
        }
    }

    /// Closed-form overrides agree with the definitional summation to
    /// 1e-12 relative (they are exact, the default rounds sequentially).
    #[test]
    fn closed_forms_match_default_within_tolerance(
        (l, has_closed_form) in arb_latency(),
        (base, lo, hi) in arb_window(),
    ) {
        prop_assume!(has_closed_form);
        let fast = l.sum_range(base, lo..hi);
        let default = sum_range_via_eval(&*l, base, lo..hi);
        let tol = 1e-12 * default.abs().max(1.0);
        prop_assert!((fast - default).abs() <= tol, "{l:?}: {fast} vs {default}");
    }

    /// Merging adjacent windows: `sum_range(a..b) + sum_range(b..c)`
    /// agrees with the single-pass default over `a..c`.
    #[test]
    fn adjacent_ranges_merge(
        (l, _) in arb_latency(),
        (base, a, c) in arb_window(),
        split in 0u64..=2_048,
    ) {
        let b = (a + split.min(c - a)).min(c);
        let merged = l.sum_range(base, a..b) + l.sum_range(base, b..c);
        let single = sum_range_via_eval(&*l, base, a..c);
        let tol = 1e-12 * single.abs().max(1.0);
        prop_assert!((merged - single).abs() <= tol, "{l:?}: {merged} vs {single} (split {b})");
    }

    /// The batched defaults of `max_step`, `sum_range`, and `integral_to`
    /// preserve the scalar reference loops bit-for-bit for every family's
    /// tight `eval_range_into` loops (closed-form overrides stripped).
    #[test]
    fn batched_defaults_match_scalar_references(
        (l, _) in arb_latency(),
        (_, lo, hi) in arb_window(),
    ) {
        let defaults = DefaultsOf(l.clone());
        // max_step: the pre-batching scan over value(lo ..= hi).
        let mut best = 0.0_f64;
        let mut prev = l.value(lo);
        for x in lo + 1..=hi {
            let v = l.value(x);
            best = best.max(v - prev);
            prev = v;
        }
        prop_assert!(
            defaults.max_step(lo, hi).to_bits() == best.to_bits(),
            "{l:?} batched max_step default drifted"
        );
        // integral_to at an integer load: the pre-batching trapezoid loop.
        let whole = (hi - lo).min(300);
        let mut acc = 0.0_f64;
        let mut prev = l.value(0);
        for x in 1..=whole {
            let v = l.value(x);
            acc += 0.5 * (prev + v);
            prev = v;
        }
        prop_assert!(
            defaults.integral_to(whole as f64).to_bits() == acc.to_bits(),
            "{l:?} batched integral_to default drifted"
        );
        // sum_range default on a closed-form family equals the scalar loop.
        let mut scalar = 0.0_f64;
        for i in lo..hi {
            scalar += l.value(i);
        }
        prop_assert!(
            defaults.sum_range(0, lo..hi).to_bits() == scalar.to_bits(),
            "{l:?} default sum_range (overrides stripped) drifted"
        );
    }

    /// The lane-parallel default `max_step` returns the serial loop's
    /// bits on nested `Scaled`, `FnLatency` and saturating latencies,
    /// including NaN steps and scans that straddle the window width.
    #[test]
    fn lane_max_step_matches_serial_loop_bitwise(
        l in arb_scanned_latency(),
        (lo, hi) in arb_scan(),
    ) {
        let serial = serial_max_step(&*l, lo, hi);
        prop_assert!(
            l.max_step(lo, hi).to_bits() == serial.to_bits(),
            "{l:?} lane max_step({lo}, {hi}) drifted from the serial loop"
        );
    }
}

/// Fixed cases the property may miss: every scan length from one window
/// short to one load past two windows, a scan that crosses into
/// saturation (β = +∞), and one that starts past it, where every step is
/// NaN and the result is the serial loop's `+0.0`.
#[test]
fn lane_max_step_edge_cases_match_serial_loop() {
    let deep = SCALE_FACTORS
        .iter()
        .fold(LatencyFn::from(Monomial::new(0.3, 3)), |l, &f| Scaled::new(l, f).into());
    let sqrtish: LatencyFn = FnLatency::new("sqrtish", |x| 2.5 * ((x as f64) + 1.0).sqrt()).into();
    for l in [&deep, &sqrtish] {
        for len in STEP_WINDOW - 1..=2 * STEP_WINDOW + 1 {
            for lo in [0, 7] {
                let serial = serial_max_step(&**l, lo, lo + len);
                assert_eq!(l.max_step(lo, lo + len).to_bits(), serial.to_bits(), "{l:?} len {len}");
            }
        }
    }
    let sat = Scaled::new(saturating(300), 0.7);
    assert_eq!(sat.max_step(0, 600), f64::INFINITY);
    assert_eq!(serial_max_step(&sat, 0, 600), f64::INFINITY);
    let past = sat.max_step(301, 900);
    assert_eq!(past.to_bits(), 0.0_f64.to_bits(), "all-NaN scan returns +0.0");
    assert_eq!(past.to_bits(), serial_max_step(&sat, 301, 900).to_bits());
}
