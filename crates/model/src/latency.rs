//! Latency functions and their analytic bounds.
//!
//! The paper works with non-decreasing, differentiable latency functions
//! `ℓ_e : R≥0 → R≥0` with `ℓ_e(x) > 0` for `x > 0`. Three derived quantities
//! drive the protocols:
//!
//! * the **elasticity** `d ≥ sup_x ℓ'(x)·x / ℓ(x)` (Section 2.2), which damps
//!   the imitation migration probability (`μ = λ/d · gain/ℓ_P`),
//! * the **slope on almost-empty resources**
//!   `ν_e = max_{x ∈ 1..⌈d⌉} ℓ(x) − ℓ(x−1)`, which bounds probabilistic
//!   effects on lightly loaded resources and defines the `ν` threshold of the
//!   IMITATION PROTOCOL,
//! * the **maximum slope** `β ≥ max_x ℓ(x) − ℓ(x−1)`, used by the
//!   EXPLORATION PROTOCOL (Section 6).
//!
//! Each standard family implements these analytically ([`Constant`],
//! [`Affine`], [`Monomial`], [`Polynomial`], the traffic-engineering
//! [`Bpr`] function); [`FnLatency`] wraps a closure and estimates them
//! numerically.
//!
//! # Batched evaluation & exactness
//!
//! Every hot path that walks consecutive loads — Rosenthal-potential
//! windows, `ΔΦ` walks over the intermediate loads of a big migration, the
//! per-round latency-cache rebuild — goes through the batched layer:
//!
//! * [`Latency::eval_range_into`] evaluates `value(base + i)` for a whole
//!   range of `i` behind **one** virtual call. Each family overrides it
//!   with a tight, branch-free inner loop that the compiler can
//!   auto-vectorize; the results are **bit-identical** to pointwise
//!   [`Latency::value`] calls for every family (pinned by
//!   `tests/prop_latency_batch.rs`). Batching never changes a result bit,
//!   only the cost of producing it.
//! * [`Latency::sum_range`] is the latency sum over a load window. Its
//!   default is *defined* as left-to-right summation of the
//!   `eval_range_into` output ([`sum_range_via_eval`]), which makes it
//!   bit-identical to the scalar accumulation loops it replaced — fixing
//!   the summation order is what lets the engine-equivalence RNG and
//!   potential pins survive the batched rewiring unchanged.
//! * [`Constant`] and [`Affine`] override `sum_range` with **closed
//!   forms** (`|range|·c`; the triangular-number identity). These are
//!   mathematically exact: the integer count/index sums are computed in
//!   integer arithmetic and convert to `f64` without rounding while they
//!   are below 2⁵³, leaving at most three correctly rounded float
//!   operations. They can therefore differ from the default's `|range|−1`
//!   sequential roundings by a few ulps (property-tested at 1e-12
//!   relative); [`Monomial`], [`Polynomial`], [`Bpr`], and [`FnLatency`]
//!   keep the bit-identical default.
//!
//! The batched defaults of [`Latency::max_step`],
//! [`Latency::elasticity_bound`] (via [`estimate_elasticity_batched`]),
//! and [`Latency::integral_to`] chunk their scans through a fixed stack
//! buffer, so they allocate nothing and return the exact bits of the
//! scalar loops they replaced. The sum and elasticity scans keep those
//! loops' operation order; `max_step` splits its maximum over independent
//! lanes, which is exact because a maximum does not depend on order (see
//! its docs).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Chunk length (`f64` slots) of the stack buffers behind the batched
/// default implementations ([`sum_range_via_eval`],
/// [`Latency::integral_to`], [`estimate_elasticity_batched`]): 64 slots =
/// 512 bytes of stack, wide enough for full-width SIMD while keeping the
/// defaults heap-allocation-free (pinned by `tests/zero_alloc.rs`).
const BATCH_CHUNK: usize = 64;

/// Window length (loads) of the default [`Latency::max_step`] scan: 256
/// slots = 2 KiB of stack. Its steps fold into independent lanes rather
/// than one serial chain, so a wider window than [`BATCH_CHUNK`] pays for
/// fewer virtual calls without lengthening any dependency chain.
const STEP_WINDOW: usize = 256;

/// Independent running maxima in the default [`Latency::max_step`] scan:
/// step `j` of a window raises lane `j % STEP_LANES`.
const STEP_LANES: usize = 8;

/// Panic unless `out` has exactly one slot per range element.
#[inline]
fn check_range_len(range: &Range<u64>, out: &[f64]) {
    let len = range.end.saturating_sub(range.start);
    assert_eq!(
        out.len() as u64,
        len,
        "eval_range_into: output buffer length must equal the range length"
    );
}

/// Drive `f` over the values `l.value(x)` for `x ∈ lo ..= hi` in order,
/// batched through one fixed `W`-slot stack chunk per
/// [`Latency::eval_range_into`] call; `f` receives each chunk's starting
/// load and its values.
///
/// The shared scan behind every batched default (`sum_range_via_eval`,
/// `max_step`, `integral_to`, `estimate_elasticity_batched`). The chunk
/// start is passed as the `base` of `eval_range_into` with a `0..n` index
/// range, so no half-open end `hi + 1` is ever formed — unlike a naive
/// `lo..hi + 1` conversion, the scan is overflow-safe up to and including
/// `hi == u64::MAX`, matching the inclusive-range scalar loops it
/// replaced. (`base + i` is the same exact integer either way, so the
/// produced values stay bit-identical.)
fn scan_values_inclusive<const W: usize, L: Latency + ?Sized>(
    l: &L,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, &[f64]),
) {
    debug_assert!(lo <= hi, "inclusive scan requires lo <= hi");
    let mut buf = [0.0_f64; W];
    let mut start = lo;
    loop {
        // `hi - start + 1` may overflow exactly when the remaining span
        // covers all of u64, so bound the chunk without forming it.
        let span = hi - start;
        let n = span.min(W as u64 - 1) as usize + 1;
        l.eval_range_into(start, 0..n as u64, &mut buf[..n]);
        f(start, &buf[..n]);
        if span < W as u64 {
            return; // this chunk reached hi
        }
        start += n as u64;
    }
}

/// Raise `lanes[j % STEP_LANES]` to the step `values[j + 1] − values[j]`
/// for every `j`. A NaN step compares false and leaves its lane alone, as
/// `f64::max` skips NaN. The lanes carry no dependency on each other, so
/// the loop runs as packed compare-and-select instead of one serial chain.
///
/// `values` must be non-empty (a scan window always is).
#[inline]
fn raise_step_lanes(values: &[f64], lanes: &mut [f64; STEP_LANES]) {
    let mut acc = *lanes;
    let mut prev = values[..values.len() - 1].chunks_exact(STEP_LANES);
    let mut next = values[1..].chunks_exact(STEP_LANES);
    for (p, q) in (&mut prev).zip(&mut next) {
        for k in 0..STEP_LANES {
            let d = q[k] - p[k];
            if d > acc[k] {
                acc[k] = d;
            }
        }
    }
    for (k, (p, q)) in prev.remainder().iter().zip(next.remainder()).enumerate() {
        let d = q - p;
        if d > acc[k] {
            acc[k] = d;
        }
    }
    *lanes = acc;
}

/// A non-decreasing latency function evaluated at integer congestion values.
///
/// Implementations must be non-decreasing and non-negative; the protocols in
/// `congames-dynamics` additionally assume `value(x) > 0` for `x > 0`
/// (as the paper does). All implementations in this module satisfy both when
/// constructed with non-negative parameters.
///
/// # Example
///
/// ```
/// use congames_model::{Latency, Monomial};
/// let l = Monomial::new(2.0, 3); // 2·x³
/// assert_eq!(l.value(2), 16.0);
/// assert_eq!(l.elasticity_bound(100), 3.0);
/// ```
pub trait Latency: fmt::Debug + Send + Sync {
    /// Latency at integer congestion `load`.
    fn value(&self, load: u64) -> f64;

    /// Evaluate `value(base + i)` for every `i ∈ range` into `out`
    /// (`out[j] = value(base + range.start + j)`).
    ///
    /// This is the batched evaluation layer: **one** virtual call per load
    /// range instead of one per load, so each family can run a tight,
    /// auto-vectorizable inner loop. Implementations (including the
    /// default, which loops over [`Latency::value`]) must be bit-identical
    /// to pointwise evaluation; `tests/prop_latency_batch.rs` pins this
    /// for every family in the crate.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the range length.
    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        for (slot, i) in out.iter_mut().zip(range) {
            *slot = self.value(base + i);
        }
    }

    /// The latency sum `Σ_{i ∈ range} value(base + i)`; empty ranges
    /// (`range.end <= range.start`) sum to `0.0`.
    ///
    /// The default is *defined* as left-to-right summation of the
    /// [`Latency::eval_range_into`] output (see [`sum_range_via_eval`]),
    /// which makes it bit-identical to the scalar accumulation loops it
    /// replaced — Rosenthal-potential windows and `ΔΦ` walks keep their
    /// exact historical values. [`Constant`] and [`Affine`] override it
    /// with mathematically exact closed forms (see the module docs for
    /// the exactness guarantees); the other families keep the default.
    ///
    /// # Example
    ///
    /// ```
    /// use congames_model::{Affine, Latency};
    /// let l = Affine::linear(2.0);
    /// // Σ_{i ∈ 3..6} 2·i = 2·(3 + 4 + 5)
    /// assert_eq!(l.sum_range(0, 3..6), 24.0);
    /// let mut out = [0.0; 3];
    /// l.eval_range_into(10, 0..3, &mut out);
    /// assert_eq!(out, [20.0, 22.0, 24.0]);
    /// ```
    fn sum_range(&self, base: u64, range: Range<u64>) -> f64 {
        sum_range_via_eval(self, base, range)
    }

    /// An upper bound on the elasticity `ℓ'(x)·x / ℓ(x)` over `(0, max_load]`.
    ///
    /// The default implementation estimates the bound numerically from the
    /// integer samples `value(0..=max_load)` using forward differences
    /// (batched through [`estimate_elasticity_batched`]); exact families
    /// override it.
    fn elasticity_bound(&self, max_load: u64) -> f64 {
        estimate_elasticity_batched(self, max_load)
    }

    /// The maximum increment `value(x) − value(x−1)` over `x ∈ lo+1 ..= hi`.
    ///
    /// Used for the `ν_e` bound (with `hi = ⌈d⌉`) and the `β` bound (with
    /// `hi = n`). Convex families override with the closed form
    /// `value(hi) − value(hi−1)`.
    ///
    /// The default is a lane-parallel scan. It evaluates each 256-load
    /// window once via [`Latency::eval_range_into`], carrying the last
    /// value across windows, and raises 8 independent running maxima
    /// (`if d > lane { lane = d }`) that fold into one at the end. The
    /// result is bit-identical to the serial `best = best.max(v − prev)`
    /// loop over `value(lo ..= hi)`:
    ///
    /// * each step `v(x) − v(x−1)` is the same float whatever the window
    ///   split, because batched evaluation equals pointwise evaluation;
    /// * the maximum over the non-NaN steps does not depend on the order
    ///   they are taken in;
    /// * NaN steps (`∞ − ∞` on a saturated latency) compare false and are
    ///   skipped, as `f64::max` skips them;
    /// * every lane and the fold start from `+0.0`, the serial loop's
    ///   start, so a scan without a positive step returns that same zero.
    ///
    /// The serial loop is one dependency chain with a `max` per load.
    /// `GameParams::of` runs this scan for every `Scaled` or [`FnLatency`]
    /// resource each time a shock re-derives `β`, so breaking the chain is
    /// what makes a shock cheap.
    ///
    /// **Empty-scan contract:** `lo >= hi` leaves nothing to scan (the
    /// increments run over `lo+1 ..= hi`) and returns `0.0` — both the
    /// default and every override honor this explicitly.
    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mut lanes = [0.0_f64; STEP_LANES];
        let mut prev = self.value(lo);
        scan_values_inclusive::<STEP_WINDOW, _>(self, lo + 1, hi, |_, window| {
            // The step into the window, then the steps inside it.
            let d = window[0] - prev;
            if d > lanes[0] {
                lanes[0] = d;
            }
            raise_step_lanes(window, &mut lanes);
            prev = window[window.len() - 1];
        });
        lanes.into_iter().fold(0.0, |best, lane| if lane > best { lane } else { best })
    }

    /// Latency at a *fractional* congestion (non-atomic / Wardrop model).
    ///
    /// The default linearly interpolates between the neighbouring integer
    /// values; analytic families override with the exact formula.
    fn value_at(&self, load: f64) -> f64 {
        debug_assert!(load >= 0.0 && load.is_finite(), "fractional load must be ≥ 0");
        let lo = load.floor();
        let frac = load - lo;
        let v_lo = self.value(lo as u64);
        if frac == 0.0 {
            return v_lo;
        }
        let v_hi = self.value(lo as u64 + 1);
        v_lo + frac * (v_hi - v_lo)
    }

    /// The primitive `∫_0^load ℓ(u) du` (the Beckmann / continuous Rosenthal
    /// potential contribution of one resource).
    ///
    /// The default integrates the interpolated [`Latency::value_at`] by the
    /// trapezoid rule over unit intervals (exact for the default
    /// interpolation), evaluating the integer samples in chunks via
    /// [`Latency::eval_range_into`]; analytic families override with
    /// closed forms.
    fn integral_to(&self, load: f64) -> f64 {
        debug_assert!(load >= 0.0 && load.is_finite(), "fractional load must be ≥ 0");
        let whole = load.floor() as u64;
        let mut acc = 0.0;
        let mut prev = self.value(0);
        if whole > 0 {
            scan_values_inclusive::<BATCH_CHUNK, _>(self, 1, whole, |_, chunk| {
                for &v in chunk {
                    acc += 0.5 * (prev + v);
                    prev = v;
                }
            });
        }
        let frac = load - whole as f64;
        if frac > 0.0 {
            acc += 0.5 * frac * (prev + self.value_at(load));
        }
        acc
    }
}

/// Numerically estimate an elasticity upper bound from integer samples.
///
/// For a differentiable non-decreasing `ℓ`, the elasticity at `x` is
/// `ℓ'(x)·x/ℓ(x)`; we bound `ℓ'` on `[x, x+1]` by the forward difference and
/// evaluate at the right end, adding a small safety margin. This is a *bound
/// estimate*, not an exact supremum; standard families use closed forms.
pub fn estimate_elasticity(f: &dyn Fn(u64) -> f64, max_load: u64) -> f64 {
    let mut best = 0.0_f64;
    let mut prev = f(0);
    for x in 1..=max_load.max(1) {
        let v = f(x);
        if v > 0.0 {
            // slope on [x-1, x] by forward difference, evaluated at (x, f(x)).
            let slope = v - prev;
            best = best.max(slope * x as f64 / v);
        }
        prev = v;
    }
    best
}

/// Left-to-right summation of the [`Latency::eval_range_into`] output,
/// chunked through a fixed stack buffer (no heap allocation).
///
/// This *is* the default body of [`Latency::sum_range`], exposed as a free
/// function so the closed-form overrides can be property-tested against
/// the definitional summation order. The result is bit-identical to the
/// scalar accumulation loop `let mut s = 0.0; for i in range { s +=
/// l.value(base + i); }` (and, for non-empty ranges, to
/// `range.map(…).sum::<f64>()`, whose *empty* sum is `-0.0`).
pub fn sum_range_via_eval<L: Latency + ?Sized>(l: &L, base: u64, range: Range<u64>) -> f64 {
    if range.end <= range.start {
        return 0.0;
    }
    // Scan the absolute loads `base + range.start ..= base + range.end - 1`
    // (formed without computing `base + range.end`, which could overflow).
    let lo = base + range.start;
    let hi = lo + (range.end - range.start - 1);
    let mut acc = 0.0;
    scan_values_inclusive::<BATCH_CHUNK, _>(l, lo, hi, |_, chunk| {
        for &v in chunk {
            acc += v;
        }
    });
    acc
}

/// Batched sibling of [`estimate_elasticity`]: the same forward-difference
/// scan in the same order (bit-identical result), but sampling through
/// [`Latency::eval_range_into`] so one virtual call covers a whole chunk.
/// The trait's default [`Latency::elasticity_bound`] uses this.
pub fn estimate_elasticity_batched<L: Latency + ?Sized>(l: &L, max_load: u64) -> f64 {
    let mut best = 0.0_f64;
    let mut prev = l.value(0);
    scan_values_inclusive::<BATCH_CHUNK, _>(l, 1, max_load.max(1), |start, chunk| {
        for (j, &v) in chunk.iter().enumerate() {
            if v > 0.0 {
                // slope on [x-1, x] by forward difference, at (x, f(x)).
                let slope = v - prev;
                best = best.max(slope * (start + j as u64) as f64 / v);
            }
            prev = v;
        }
    });
    best
}

/// A shared, type-erased latency function.
///
/// `CongestionGame` stores latencies as `LatencyFn` so games are cheap to
/// clone and can mix families.
pub type LatencyFn = Arc<dyn Latency>;

/// A latency function scaled by a positive factor: `ℓ(x) = factor·inner(x)`.
///
/// The family-agnostic form of link degradation/re-provisioning (the
/// `ScaleLatency` scenario event): it wraps whatever function a resource
/// already carries without knowing its family. Batched evaluation delegates
/// to the inner function and then applies exactly one `factor·v` rounding
/// per value — the same single rounding pointwise [`Scaled::value`] calls
/// perform — so the batch==pointwise bit-identity every family guarantees
/// is preserved through the wrapper. The elasticity bound is inherited
/// unchanged: `(c·ℓ)'·x / (c·ℓ) = ℓ'·x / ℓ` for `c > 0`.
#[derive(Debug, Clone)]
pub struct Scaled {
    inner: LatencyFn,
    factor: f64,
}

impl Scaled {
    /// Scale `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive (a non-positive factor
    /// would break the non-decreasing/positive latency contract). Callers
    /// needing a fallible path validate first — see
    /// `CongestionGame::scale_latency`.
    pub fn new(inner: LatencyFn, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "latency scale factor must be finite and positive"
        );
        Scaled { inner, factor }
    }

    /// The scale factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The wrapped latency function.
    pub fn inner(&self) -> &LatencyFn {
        &self.inner
    }
}

impl Latency for Scaled {
    fn value(&self, load: u64) -> f64 {
        self.factor * self.inner.value(load)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        self.inner.eval_range_into(base, range, out);
        for v in out {
            *v *= self.factor;
        }
    }

    fn elasticity_bound(&self, max_load: u64) -> f64 {
        // Scale-invariant for positive factors; inherit the inner (possibly
        // closed-form) bound instead of re-estimating numerically.
        self.inner.elasticity_bound(max_load)
    }

    fn value_at(&self, load: f64) -> f64 {
        self.factor * self.inner.value_at(load)
    }

    fn integral_to(&self, load: f64) -> f64 {
        self.factor * self.inner.integral_to(load)
    }
}

impl From<Scaled> for LatencyFn {
    fn from(l: Scaled) -> LatencyFn {
        Arc::new(l)
    }
}

/// A constant latency `ℓ(x) = c`.
///
/// Elasticity 0, slope 0. Useful for modeling fixed-delay links (e.g. the
/// constant link of the overshooting instance in Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    c: f64,
}

impl Constant {
    /// Create the constant latency `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or not finite.
    pub fn new(c: f64) -> Self {
        assert!(c.is_finite() && c >= 0.0, "constant latency must be finite and non-negative");
        Constant { c }
    }

    /// The constant value.
    pub fn value_const(&self) -> f64 {
        self.c
    }
}

impl Latency for Constant {
    fn value(&self, _load: u64) -> f64 {
        self.c
    }

    fn eval_range_into(&self, _base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        out.fill(self.c);
    }

    /// Closed form `|range| · c`.
    ///
    /// Exactness: the count converts to `f64` without rounding below 2⁵³,
    /// so the result is the correctly rounded true sum — one rounding
    /// total, versus `|range| − 1` sequential roundings in the default.
    fn sum_range(&self, _base: u64, range: Range<u64>) -> f64 {
        if range.end <= range.start {
            return 0.0;
        }
        (range.end - range.start) as f64 * self.c
    }

    fn elasticity_bound(&self, _max_load: u64) -> f64 {
        0.0
    }

    fn max_step(&self, _lo: u64, _hi: u64) -> f64 {
        0.0
    }

    fn value_at(&self, _load: f64) -> f64 {
        self.c
    }

    fn integral_to(&self, load: f64) -> f64 {
        self.c * load
    }
}

impl From<Constant> for LatencyFn {
    fn from(l: Constant) -> LatencyFn {
        Arc::new(l)
    }
}

/// An affine latency `ℓ(x) = a·x + b` with `a, b ≥ 0`.
///
/// Elasticity `a·x/(a·x+b) ≤ 1`; slope `a` everywhere. The linear case
/// (`b = 0`) is the setting of the Price-of-Imitation analysis (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    a: f64,
    b: f64,
}

impl Affine {
    /// Create `ℓ(x) = a·x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is negative or not finite.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a.is_finite() && a >= 0.0, "affine coefficient must be finite and non-negative");
        assert!(b.is_finite() && b >= 0.0, "affine offset must be finite and non-negative");
        Affine { a, b }
    }

    /// Create the linear latency `ℓ(x) = a·x` (no offset).
    pub fn linear(a: f64) -> Self {
        Affine::new(a, 0.0)
    }

    /// The slope `a`.
    pub fn slope(&self) -> f64 {
        self.a
    }

    /// The offset `b`.
    pub fn offset(&self) -> f64 {
        self.b
    }

    /// The player-normalized version `ℓ(x/n) = (a/n)·x + b` used by
    /// Theorem 9 (players of weight `1/n`).
    pub fn scaled_by_players(&self, n: u64) -> Affine {
        assert!(n > 0, "scaling requires at least one player");
        Affine::new(self.a / n as f64, self.b)
    }
}

impl Latency for Affine {
    fn value(&self, load: u64) -> f64 {
        self.a * load as f64 + self.b
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        // Tiny windows (the converged lane kernel's two-entry case) skip
        // the dispatch machinery; the loop is the vector arms' own scalar
        // tail, so the bits are unchanged.
        if out.len() < 8 {
            let start = base + range.start;
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = self.a * (start + j as u64) as f64 + self.b;
            }
            return;
        }
        // Across-window vector arm (AVX2 when available, bit-identical
        // scalar fallback otherwise): each element is the same
        // `a·x + b` sequence as `value`, with the exact `u64 → f64`
        // index conversion.
        congames_simd::affine_fill(
            congames_simd::Dispatch::global(),
            self.a,
            self.b,
            base + range.start,
            out,
        );
    }

    /// Closed form `a·Σ_{i ∈ range}(base + i) + b·|range|`, the index sum
    /// by the triangular-number identity in `u128`.
    ///
    /// Exactness: the integer index sum and the count convert to `f64`
    /// without rounding while below 2⁵³, leaving three correctly rounded
    /// float operations — versus `2·|range|` multiply-adds and
    /// `|range| − 1` sequential additions in the default, so the two agree
    /// to a few ulps (property-tested at 1e-12 relative). Astronomical
    /// windows whose index sum exceeds `u128` (≥ 2¹²⁸ ≈ 3.4e38) fall back
    /// to evaluating the same identity in `f64` — far beyond the 2⁵³
    /// threshold where conversion rounding dominates either way.
    fn sum_range(&self, base: u64, range: Range<u64>) -> f64 {
        let (lo, hi) = (range.start, range.end);
        if hi <= lo {
            return 0.0;
        }
        let count = hi - lo;
        let tri = |m: u128| m * (m + 1) / 2;
        let tri_sum = tri(hi as u128 - 1) - if lo == 0 { 0 } else { tri(lo as u128 - 1) };
        let idx_sum =
            (count as u128).checked_mul(base as u128).and_then(|s| s.checked_add(tri_sum));
        let idx_sum = match idx_sum {
            Some(s) => s as f64,
            None => {
                let tri_f = |m: u64| m as f64 * (m as f64 + 1.0) * 0.5;
                count as f64 * base as f64 + tri_f(hi - 1)
                    - if lo == 0 { 0.0 } else { tri_f(lo - 1) }
            }
        };
        self.a * idx_sum + self.b * count as f64
    }

    fn elasticity_bound(&self, max_load: u64) -> f64 {
        if self.a == 0.0 {
            return 0.0;
        }
        if self.b == 0.0 {
            return 1.0;
        }
        let x = max_load.max(1) as f64;
        self.a * x / (self.a * x + self.b)
    }

    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        if hi > lo {
            self.a
        } else {
            0.0
        }
    }

    fn value_at(&self, load: f64) -> f64 {
        self.a * load + self.b
    }

    fn integral_to(&self, load: f64) -> f64 {
        0.5 * self.a * load * load + self.b * load
    }
}

impl From<Affine> for LatencyFn {
    fn from(l: Affine) -> LatencyFn {
        Arc::new(l)
    }
}

/// A monomial latency `ℓ(x) = a·x^k` with `a ≥ 0`, integer degree `k ≥ 1`.
///
/// Elasticity exactly `k` — the canonical example from Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Monomial {
    a: f64,
    k: u32,
}

impl Monomial {
    /// Create `ℓ(x) = a·x^k`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is negative or not finite, or if `k == 0` (use
    /// [`Constant`] for degree zero).
    pub fn new(a: f64, k: u32) -> Self {
        assert!(a.is_finite() && a >= 0.0, "monomial coefficient must be finite and non-negative");
        assert!(k >= 1, "monomial degree must be at least 1; use Constant for degree 0");
        Monomial { a, k }
    }

    /// The coefficient `a`.
    pub fn coefficient(&self) -> f64 {
        self.a
    }

    /// The degree `k`.
    pub fn degree(&self) -> u32 {
        self.k
    }

    /// The player-normalized version `ℓ(x/n) = (a/n^k)·x^k` (Theorem 9).
    pub fn scaled_by_players(&self, n: u64) -> Monomial {
        assert!(n > 0, "scaling requires at least one player");
        Monomial::new(self.a / (n as f64).powi(self.k as i32), self.k)
    }
}

impl Latency for Monomial {
    fn value(&self, load: u64) -> f64 {
        self.a * (load as f64).powi(self.k as i32)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        let a = self.a;
        // Degrees ≤ 4 run the across-window vector arm with the exact
        // multiply chains that `powi` with a *runtime* exponent produces
        // (square-and-multiply), staying bit-identical to `value`; higher
        // degrees — and tiny windows, where the dispatch machinery would
        // dominate — keep the per-element `powi`.
        match self.k {
            k @ 1..=4 if out.len() >= 8 => congames_simd::monomial_fill(
                congames_simd::Dispatch::global(),
                a,
                k,
                base + range.start,
                out,
            ),
            k => {
                for (slot, i) in out.iter_mut().zip(range) {
                    *slot = a * ((base + i) as f64).powi(k as i32);
                }
            }
        }
    }

    fn elasticity_bound(&self, _max_load: u64) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            self.k as f64
        }
    }

    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        // x^k is convex for k ≥ 1, so the largest step is the last one.
        if hi > lo {
            self.value(hi) - self.value(hi - 1)
        } else {
            0.0
        }
    }

    fn value_at(&self, load: f64) -> f64 {
        self.a * load.powi(self.k as i32)
    }

    fn integral_to(&self, load: f64) -> f64 {
        self.a * load.powi(self.k as i32 + 1) / (self.k as f64 + 1.0)
    }
}

impl From<Monomial> for LatencyFn {
    fn from(l: Monomial) -> LatencyFn {
        Arc::new(l)
    }
}

/// A polynomial latency `ℓ(x) = Σ_k a_k·x^k` with non-negative coefficients.
///
/// With non-negative coefficients the elasticity is bounded by the maximum
/// degree with a non-zero coefficient, and the function is convex, so both
/// bounds have closed forms.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// `coeffs[k]` is the coefficient of `x^k`.
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Create a polynomial from coefficients (`coeffs[k]` multiplies `x^k`).
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or not finite, or if all
    /// coefficients are zero.
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(
            coeffs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "polynomial coefficients must be finite and non-negative"
        );
        assert!(coeffs.iter().any(|c| *c > 0.0), "polynomial must have a positive coefficient");
        Polynomial { coeffs }
    }

    /// Coefficients (`[k]` multiplies `x^k`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Highest degree with a non-zero coefficient.
    pub fn degree(&self) -> u32 {
        self.coeffs.iter().rposition(|c| *c > 0.0).unwrap_or(0) as u32
    }

    /// The player-normalized version `ℓ(x/n)` (coefficient of `x^k` divided
    /// by `n^k`), as used by Theorem 9.
    pub fn scaled_by_players(&self, n: u64) -> Polynomial {
        assert!(n > 0, "scaling requires at least one player");
        let coeffs =
            self.coeffs.iter().enumerate().map(|(k, a)| a / (n as f64).powi(k as i32)).collect();
        Polynomial::new(coeffs)
    }
}

impl Latency for Polynomial {
    fn value(&self, load: u64) -> f64 {
        let x = load as f64;
        // Horner's rule.
        self.coeffs.iter().rev().fold(0.0, |acc, c| acc * x + c)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        // Horner with the coefficient loop outside and the element loop
        // inside: each element sees exactly the `value` fold's operation
        // sequence (bit-identical), but the inner loop auto-vectorizes.
        out.fill(0.0);
        let start = range.start;
        for &c in self.coeffs.iter().rev() {
            for (j, slot) in out.iter_mut().enumerate() {
                let x = (base + start + j as u64) as f64;
                *slot = *slot * x + c;
            }
        }
    }

    fn elasticity_bound(&self, _max_load: u64) -> f64 {
        // For Σ a_k x^k with a_k ≥ 0: ℓ'(x)·x = Σ k·a_k·x^k ≤ d·ℓ(x).
        self.degree() as f64
    }

    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        // Convex (non-negative coefficients) ⇒ the last step is the largest.
        if hi > lo {
            self.value(hi) - self.value(hi - 1)
        } else {
            0.0
        }
    }

    fn value_at(&self, load: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, c| acc * load + c)
    }

    fn integral_to(&self, load: f64) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .map(|(k, a)| a * load.powi(k as i32 + 1) / (k as f64 + 1.0))
            .sum()
    }
}

impl From<Polynomial> for LatencyFn {
    fn from(l: Polynomial) -> LatencyFn {
        Arc::new(l)
    }
}

/// The Bureau of Public Roads (BPR) travel-time function
/// `ℓ(x) = t0·(1 + α·(x/c)^k)`: free-flow time `t0`, practical capacity
/// `c`, and the classic parameters `α = 0.15`, `k = 4`.
///
/// The standard of traffic-assignment practice; a polynomial with positive
/// offset, so its elasticity is strictly below `k` and the protocols damp
/// less than for pure monomials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bpr {
    t0: f64,
    alpha: f64,
    capacity: f64,
    k: u32,
}

impl Bpr {
    /// Create a BPR latency with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `t0 > 0`, `α ≥ 0`, `capacity > 0`, `k ≥ 1` (all
    /// finite).
    pub fn new(t0: f64, alpha: f64, capacity: f64, k: u32) -> Self {
        assert!(t0.is_finite() && t0 > 0.0, "free-flow time must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be non-negative");
        assert!(capacity.is_finite() && capacity > 0.0, "capacity must be positive");
        assert!(k >= 1, "BPR exponent must be at least 1");
        Bpr { t0, alpha, capacity, k }
    }

    /// The standard parametrization `α = 0.15`, `k = 4`.
    pub fn standard(t0: f64, capacity: f64) -> Self {
        Bpr::new(t0, 0.15, capacity, 4)
    }

    /// Free-flow travel time `t0`.
    pub fn free_flow(&self) -> f64 {
        self.t0
    }

    /// Practical capacity `c`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

impl Latency for Bpr {
    fn value(&self, load: u64) -> f64 {
        self.value_at(load as f64)
    }

    fn eval_range_into(&self, base: u64, range: Range<u64>, out: &mut [f64]) {
        check_range_len(&range, out);
        let (t0, alpha, cap) = (self.t0, self.alpha, self.capacity);
        // Same runtime-`powi` multiply chains as `Monomial` (k ≤ 4 covers
        // the classic k = 4 parametrization); bit-identical to `value`.
        match self.k {
            1 => {
                for (slot, i) in out.iter_mut().zip(range) {
                    let r = (base + i) as f64 / cap;
                    *slot = t0 * (1.0 + alpha * r);
                }
            }
            2 => {
                for (slot, i) in out.iter_mut().zip(range) {
                    let r = (base + i) as f64 / cap;
                    *slot = t0 * (1.0 + alpha * (r * r));
                }
            }
            3 => {
                for (slot, i) in out.iter_mut().zip(range) {
                    let r = (base + i) as f64 / cap;
                    let r2 = r * r;
                    *slot = t0 * (1.0 + alpha * (r * r2));
                }
            }
            4 => {
                for (slot, i) in out.iter_mut().zip(range) {
                    let r = (base + i) as f64 / cap;
                    let r2 = r * r;
                    *slot = t0 * (1.0 + alpha * (r2 * r2));
                }
            }
            k => {
                for (slot, i) in out.iter_mut().zip(range) {
                    let r = (base + i) as f64 / cap;
                    *slot = t0 * (1.0 + alpha * r.powi(k as i32));
                }
            }
        }
    }

    fn value_at(&self, load: f64) -> f64 {
        self.t0 * (1.0 + self.alpha * (load / self.capacity).powi(self.k as i32))
    }

    fn elasticity_bound(&self, _max_load: u64) -> f64 {
        // ℓ'(x)·x/ℓ(x) = k·α·r^k/(1 + α·r^k) < k with r = x/c.
        self.k as f64
    }

    fn max_step(&self, lo: u64, hi: u64) -> f64 {
        // Convex for k ≥ 1 ⇒ last step is largest.
        if hi > lo {
            self.value(hi) - self.value(hi - 1)
        } else {
            0.0
        }
    }

    fn integral_to(&self, load: f64) -> f64 {
        let r = load / self.capacity;
        self.t0
            * (load
                + self.alpha * self.capacity * r.powi(self.k as i32 + 1) / (self.k as f64 + 1.0))
    }
}

impl From<Bpr> for LatencyFn {
    fn from(l: Bpr) -> LatencyFn {
        Arc::new(l)
    }
}

/// A latency defined by an arbitrary closure, with user-supplied or
/// numerically estimated bounds.
///
/// Prefer the analytic families when possible; this type exists for custom
/// experiments (e.g. piecewise or capped latencies).
#[derive(Clone)]
pub struct FnLatency {
    f: Arc<dyn Fn(u64) -> f64 + Send + Sync>,
    elasticity: Option<f64>,
    label: &'static str,
}

impl FnLatency {
    /// Wrap a closure, estimating the elasticity numerically on demand.
    ///
    /// The closure must be non-decreasing and non-negative; this is the
    /// caller's responsibility (checked only in debug builds, lazily).
    pub fn new(label: &'static str, f: impl Fn(u64) -> f64 + Send + Sync + 'static) -> Self {
        FnLatency { f: Arc::new(f), elasticity: None, label }
    }

    /// Wrap a closure with a known elasticity upper bound.
    pub fn with_elasticity(
        label: &'static str,
        elasticity: f64,
        f: impl Fn(u64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(elasticity.is_finite() && elasticity >= 0.0, "elasticity bound must be ≥ 0");
        FnLatency { f: Arc::new(f), elasticity: Some(elasticity), label }
    }
}

impl fmt::Debug for FnLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnLatency")
            .field("label", &self.label)
            .field("elasticity", &self.elasticity)
            .finish()
    }
}

impl Latency for FnLatency {
    fn value(&self, load: u64) -> f64 {
        (self.f)(load)
    }

    fn elasticity_bound(&self, max_load: u64) -> f64 {
        match self.elasticity {
            Some(d) => d,
            None => estimate_elasticity_batched(self, max_load),
        }
    }
}

impl From<FnLatency> for LatencyFn {
    fn from(l: FnLatency) -> LatencyFn {
        Arc::new(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn constant_basics() {
        let c = Constant::new(4.5);
        assert_close(c.value(0), 4.5);
        assert_close(c.value(100), 4.5);
        assert_close(c.elasticity_bound(100), 0.0);
        assert_close(c.max_step(0, 10), 0.0);
        assert_close(c.value_const(), 4.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_rejects_negative() {
        let _ = Constant::new(-1.0);
    }

    #[test]
    fn affine_values_and_bounds() {
        let l = Affine::new(2.0, 3.0);
        assert_close(l.value(0), 3.0);
        assert_close(l.value(5), 13.0);
        assert_close(l.max_step(0, 7), 2.0);
        assert!(l.elasticity_bound(10) < 1.0);
        let lin = Affine::linear(2.0);
        assert_close(lin.elasticity_bound(10), 1.0);
        assert_close(lin.value(4), 8.0);
    }

    #[test]
    fn affine_elasticity_monotone_in_load() {
        let l = Affine::new(1.0, 10.0);
        assert!(l.elasticity_bound(2) < l.elasticity_bound(100));
        assert!(l.elasticity_bound(100) < 1.0);
    }

    #[test]
    fn affine_scaling_divides_slope() {
        let l = Affine::new(3.0, 1.0).scaled_by_players(3);
        assert_close(l.value(3), 4.0); // 1·3 + 1
        assert_close(l.offset(), 1.0);
        assert_close(l.slope(), 1.0);
    }

    #[test]
    fn monomial_elasticity_is_degree() {
        for k in 1..6 {
            let l = Monomial::new(1.5, k);
            assert_close(l.elasticity_bound(1000), k as f64);
        }
    }

    #[test]
    fn monomial_max_step_is_last_step() {
        let l = Monomial::new(1.0, 3);
        // steps: 1, 7, 19, 37 for x = 1..4
        assert_close(l.max_step(0, 4), 37.0);
        assert_close(l.max_step(0, 1), 1.0);
        assert_close(l.max_step(2, 2), 0.0);
    }

    #[test]
    fn monomial_scaled_matches_continuous_form() {
        // ℓ(x) = 2 x², n = 4 ⇒ ℓⁿ(x) = 2 (x/4)² = x²/8
        let l = Monomial::new(2.0, 2).scaled_by_players(4);
        assert_close(l.value(4), 2.0);
        assert_close(l.value(8), 8.0);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn monomial_rejects_degree_zero() {
        let _ = Monomial::new(1.0, 0);
    }

    #[test]
    fn polynomial_horner_matches_naive() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 4.0]);
        for x in 0..10u64 {
            let xf = x as f64;
            let naive = 1.0 + 2.0 * xf + 4.0 * xf.powi(3);
            assert_close(p.value(x), naive);
        }
    }

    #[test]
    fn polynomial_degree_ignores_trailing_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_close(p.elasticity_bound(100), 1.0);
    }

    #[test]
    fn polynomial_elasticity_bound_dominates_numeric_estimate() {
        let p = Polynomial::new(vec![0.5, 1.0, 2.0, 3.0]);
        let analytic = p.elasticity_bound(50);
        let numeric = estimate_elasticity(&|x| p.value(x), 50);
        // The analytic degree bound must dominate the numeric estimate
        // (forward differences over-estimate slope slightly on convex
        // functions, so allow a small margin).
        assert!(numeric <= analytic + 0.51, "numeric {numeric} vs analytic {analytic}");
    }

    #[test]
    fn polynomial_scaling() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]).scaled_by_players(2);
        // 1 + 2(x/2) + 3(x/2)^2 = 1 + x + 0.75 x²
        assert_close(p.value(2), 1.0 + 2.0 + 3.0);
    }

    #[test]
    fn fn_latency_numeric_elasticity_close_to_true() {
        // ℓ(x) = x² has elasticity 2.
        let l = FnLatency::new("square", |x| (x as f64).powi(2));
        let e = l.elasticity_bound(200);
        assert!((1.9..=2.6).contains(&e), "estimated elasticity {e}");
    }

    #[test]
    fn fn_latency_with_declared_elasticity() {
        let l = FnLatency::with_elasticity("cube", 3.0, |x| (x as f64).powi(3));
        assert_close(l.elasticity_bound(10), 3.0);
        assert!(format!("{l:?}").contains("cube"));
    }

    #[test]
    fn max_step_default_scans_range() {
        // A concave-ish step function: steps 5, 1, 1, ...
        let l = FnLatency::new("steps", |x| if x == 0 { 0.0 } else { 4.0 + x as f64 });
        assert_close(l.max_step(0, 5), 5.0);
        assert_close(l.max_step(1, 5), 1.0);
    }

    #[test]
    fn fractional_values_match_analytic_forms() {
        let a = Affine::new(2.0, 1.0);
        assert_close(a.value_at(2.5), 6.0);
        assert_close(a.integral_to(2.0), 6.0); // x² + x at 2
        let m = Monomial::new(3.0, 2);
        assert_close(m.value_at(0.5), 0.75);
        assert_close(m.integral_to(2.0), 8.0); // x³ at 2
        let p = Polynomial::new(vec![1.0, 0.0, 3.0]);
        assert_close(p.value_at(1.5), 1.0 + 3.0 * 2.25);
        assert_close(p.integral_to(1.0), 1.0 + 1.0); // x + x³ at 1
        let c = Constant::new(4.0);
        assert_close(c.value_at(3.7), 4.0);
        assert_close(c.integral_to(2.5), 10.0);
    }

    #[test]
    fn default_interpolation_and_integral_are_consistent() {
        // FnLatency uses the trait defaults: interpolation is piecewise
        // linear, and the trapezoid integral is exact for it.
        let l = FnLatency::new("square", |x| (x as f64).powi(2));
        assert_close(l.value_at(2.0), 4.0);
        assert_close(l.value_at(2.5), 6.5); // midpoint of 4 and 9
                                            // ∫ of the interpolant over [0,3]: 0.5(0+1) + 0.5(1+4) + 0.5(4+9)
        assert_close(l.integral_to(3.0), 9.5);
        // Partial interval: ∫_0^2.5 = 0.5(0+1) + 0.5(1+4) + 0.5·0.5·(4+6.5)
        assert_close(l.integral_to(2.5), 3.0 + 2.625);
    }

    #[test]
    fn integral_is_monotone_and_superadditive_for_convex() {
        let m = Monomial::new(1.0, 3);
        let mut prev = 0.0;
        for i in 1..10 {
            let x = i as f64 * 0.7;
            let v = m.integral_to(x);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn bpr_values_and_bounds() {
        let l = Bpr::standard(10.0, 100.0);
        assert_close(l.value(0), 10.0);
        // At capacity: t0·(1 + 0.15) = 11.5.
        assert_close(l.value(100), 11.5);
        assert_close(l.elasticity_bound(1000), 4.0);
        assert!(l.max_step(0, 200) > l.max_step(0, 100));
        assert_close(l.free_flow(), 10.0);
        assert_close(l.capacity(), 100.0);
    }

    #[test]
    fn bpr_integral_matches_closed_form() {
        let l = Bpr::new(2.0, 0.5, 10.0, 2);
        // ∫ 2(1 + 0.5(x/10)²) = 2x + x³/300
        let x = 20.0;
        assert_close(l.integral_to(x), 2.0 * x + x.powi(3) / 300.0);
    }

    #[test]
    fn bpr_elasticity_below_exponent_numerically() {
        let l = Bpr::standard(5.0, 50.0);
        let est = estimate_elasticity(&|x| l.value(x), 500);
        assert!(est < 4.0, "numeric elasticity {est} should be below k = 4");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bpr_rejects_zero_capacity() {
        let _ = Bpr::standard(1.0, 0.0);
    }

    #[test]
    fn latency_fn_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LatencyFn>();
    }

    fn all_families() -> Vec<LatencyFn> {
        vec![
            Constant::new(3.25).into(),
            Affine::new(2.0, 1.5).into(),
            Monomial::new(1.5, 1).into(),
            Monomial::new(0.5, 2).into(),
            Monomial::new(1.25, 3).into(),
            Monomial::new(2.0, 4).into(),
            Monomial::new(1.0, 6).into(),
            Polynomial::new(vec![1.0, 0.5, 2.0]).into(),
            Bpr::standard(10.0, 100.0).into(),
            FnLatency::new("sq", |x| (x as f64).powi(2)).into(),
        ]
    }

    /// Documented contract: `max_step(lo, hi)` with `lo >= hi` scans the
    /// empty increment range `lo+1 ..= hi` and returns exactly `0.0`, for
    /// the batched default and every closed-form override alike.
    #[test]
    fn max_step_empty_range_returns_zero() {
        for l in &all_families() {
            for (lo, hi) in [(0u64, 0u64), (5, 5), (7, 3), (u64::MAX, 0)] {
                assert_eq!(l.max_step(lo, hi), 0.0, "{l:?} max_step({lo}, {hi})");
            }
        }
    }

    /// Batched evaluation is bit-identical to pointwise `value`, across
    /// chunk boundaries (the range is longer than one stack chunk).
    #[test]
    fn eval_range_matches_pointwise_values_bitwise() {
        let mut out = vec![0.0; 200];
        for l in &all_families() {
            for base in [0u64, 17, 100_000] {
                l.eval_range_into(base, 3..203, &mut out);
                for (j, v) in out.iter().enumerate() {
                    let expect = l.value(base + 3 + j as u64);
                    assert_eq!(v.to_bits(), expect.to_bits(), "{l:?} at {}", base + 3 + j as u64);
                }
            }
        }
    }

    /// The default `sum_range` (via `sum_range_via_eval`) reproduces the
    /// scalar left-to-right loop bit-for-bit; closed forms agree to 1e-12
    /// relative; empty ranges sum to zero everywhere.
    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the reversed range *is* the case under test
    fn sum_range_default_is_scalar_loop_and_closed_forms_agree() {
        for l in &all_families() {
            for (base, lo, hi) in [(0u64, 1u64, 130u64), (40, 0, 97), (1_000, 5, 5), (9, 8, 3)] {
                // Definitional reference: scalar left-to-right accumulation
                // from +0.0 (unlike `Iterator::sum`, whose empty sum is
                // `-0.0`).
                let mut scalar = 0.0_f64;
                for i in lo..hi.max(lo) {
                    scalar += l.value(base + i);
                }
                let default = sum_range_via_eval(&**l, base, lo..hi);
                assert_eq!(default.to_bits(), scalar.to_bits(), "{l:?} default sum");
                let fast = l.sum_range(base, lo..hi);
                let tol = 1e-12 * scalar.abs().max(1.0);
                assert!((fast - scalar).abs() <= tol, "{l:?}: {fast} vs {scalar}");
            }
            assert_eq!(l.sum_range(3, 10..10), 0.0);
            assert_eq!(l.sum_range(3, 10..2), 0.0);
        }
    }

    /// The affine closed form is exact for integer-parameter games: with
    /// integer slope/offset and windows whose index sums stay below 2⁵³,
    /// it equals the scalar loop bit-for-bit (integer f64 arithmetic).
    #[test]
    fn affine_closed_form_is_exact_on_integer_parameters() {
        let l = Affine::new(3.0, 7.0);
        for (base, lo, hi) in [(0u64, 1u64, 5_001u64), (123, 0, 4_000), (10, 2, 3)] {
            let scalar: f64 = (lo..hi).map(|i| l.value(base + i)).sum();
            assert_eq!(l.sum_range(base, lo..hi).to_bits(), scalar.to_bits());
        }
    }

    /// The chunked default scans are overflow-safe at the top of the u64
    /// domain (the pre-batching inclusive-range loops were), and the
    /// affine closed form degrades to the f64 identity instead of
    /// wrapping when the integer index sum exceeds `u128`.
    #[test]
    fn batched_scans_survive_extreme_ranges() {
        let l = FnLatency::new("const", |_| 1.5);
        // max_step default scan up to and including u64::MAX.
        assert_eq!(l.max_step(u64::MAX - 200, u64::MAX), 0.0);
        // sum_range default over a window whose last load is u64::MAX.
        assert_eq!(l.sum_range(u64::MAX - 199, 0..200), 1.5 * 200.0);
        // Affine closed form on an astronomical window: count·base
        // overflows u128, so the f64 fallback must carry the identity.
        let a = Affine::linear(1.0);
        let s = a.sum_range(u64::MAX, 0..u64::MAX);
        let m = u64::MAX as f64;
        let expect = m * m + (m - 1.0) * m * 0.5;
        assert!(
            s.is_finite() && (s - expect).abs() <= 1e-9 * expect,
            "astronomical affine sum {s} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "range length")]
    fn eval_range_rejects_wrong_buffer_length() {
        let mut out = [0.0; 2];
        Constant::new(1.0).eval_range_into(0, 0..3, &mut out);
    }

    /// The batched elasticity estimator is bit-identical to the original
    /// closure-based scan.
    #[test]
    fn batched_elasticity_matches_closure_estimator() {
        for l in &all_families() {
            let batched = estimate_elasticity_batched(&**l, 150);
            let scalar = estimate_elasticity(&|x| l.value(x), 150);
            assert_eq!(batched.to_bits(), scalar.to_bits(), "{l:?}");
        }
    }
}
