//! In-memory tracing for the traced run.
//!
//! Two kinds of record, both kept in memory and written out when the run
//! ends:
//!
//! * **Spans** (`name`, `start`, `end`, `parent`, thread) around the calls
//!   the benchmark makes into a layer: a sweep, a reduce block, a trial, a
//!   lane group, a shard encode/decode.
//! * **Counters** for the calls the library makes back into the public
//!   traits it is generic over. [`TracedRng`] (`DrawRng`), [`TracedHook`]
//!   (`RoundHook`), [`Probe`] (`Observer`) and [`TracedReducer`]
//!   (`Reducer`, `WireReduce`) wrap the stock implementations, forward
//!   every call unchanged, and add counts and self time to a per-thread
//!   accumulator. Per-round events are too many to keep one span each, so
//!   they are summed where they happen.
//!
//! The wrappers only forward, so a traced run draws the same words,
//! fires the same events and reduces to the same bits as an untraced one;
//! the run checks that by digest.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use congames_dynamics::wire::{WireCursor, WireError, WireReduce};
use congames_dynamics::{DynamicsError, Observer, Reducer, RoundHook, RoundRecord, RunSummary};
use congames_model::{CongestionGame, State};
use congames_sampling::DrawRng;
use rand::RngCore;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static ACC: RefCell<Acc> = RefCell::new(Acc::default());
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// End the span, keep it, and return its duration in ns.
    pub fn close(self) -> u64 {
        let end = now_ns();
        push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start: self.start,
            end,
        });
        end - self.start
    }
}

/// Start a span named `name` under `parent` (0 for a root).
pub fn open(name: &'static str, parent: u64) -> Open {
    Open { id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed), parent, name, start: now_ns() }
}

fn push(span: Span) {
    SPANS.lock().expect("span store is never poisoned: pushes do not panic").push(span);
}

/// Every span kept so far, in the order they ended.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store is never poisoned: pushes do not panic").clone()
}

/// Per-thread counters and self times, summed at the trait boundaries.
/// Times are ns totals; counts are calls.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    /// Scalar rounds timed (one per `begin_round`, closed by the next one
    /// or by the trial's `finish`) and their self time: span minus the hook
    /// and observer time inside it.
    pub rounds: u64,
    pub round_ns: u64,
    pub words: u64,
    pub sites: u64,
    pub polls: u64,
    pub poll_ns: u64,
    pub fires: u64,
    pub fire_ns: u64,
    pub records: u64,
    pub record_ns: u64,
    pub absorbs: u64,
    pub absorb_ns: u64,
    pub merges: u64,
    pub merge_ns: u64,
    /// Finished trials and their `RunSummary::rounds`.
    pub trials: u64,
    pub trial_rounds: u64,
    /// Census-only (every-round records): stepped rounds seen, those with
    /// no migration, the support before each stepped round, migrations.
    pub census_steps: u64,
    pub still_rounds: u64,
    pub support_sum: u64,
    pub migrations: u64,
    open_round: Option<u64>,
    excluded: u64,
}

impl Acc {
    fn close_round(&mut self, now: u64) {
        if let Some(t0) = self.open_round.take() {
            self.rounds += 1;
            self.round_ns += (now - t0).saturating_sub(self.excluded);
            self.excluded = 0;
        }
    }

    /// Charge `ns` of another layer's self time to the open round, if any,
    /// so the round's self time excludes it.
    fn exclude(&mut self, ns: u64) {
        if self.open_round.is_some() {
            self.excluded += ns;
        }
    }
}

fn with_acc<T>(f: impl FnOnce(&mut Acc) -> T) -> T {
    ACC.with(|a| f(&mut a.borrow_mut()))
}

/// Take this thread's accumulator, leaving a fresh one.
pub fn take_acc() -> Acc {
    with_acc(std::mem::take)
}

/// `DrawRng` wrapper: counts words and sites, and times each scalar round
/// from its `begin_round` to the next one.
#[derive(Debug)]
pub struct TracedRng<R> {
    inner: R,
    words: u64,
    sites: u64,
}

impl<R> TracedRng<R> {
    pub fn new(inner: R) -> Self {
        TracedRng { inner, words: 0, sites: 0 }
    }
}

impl<R> Drop for TracedRng<R> {
    fn drop(&mut self) {
        let (words, sites) = (self.words, self.sites);
        with_acc(|a| {
            a.words += words;
            a.sites += sites;
        });
    }
}

impl<R: RngCore> RngCore for TracedRng<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

impl<R: DrawRng> DrawRng for TracedRng<R> {
    fn begin_round(&mut self, round: u64) {
        let now = now_ns();
        with_acc(|a| {
            a.close_round(now);
            a.open_round = Some(now);
        });
        self.inner.begin_round(round);
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        self.sites += 1;
        self.inner.begin_site(site);
    }
}

/// `RoundHook` wrapper: counts and times polls (`next_fire`) and fires.
#[derive(Debug)]
pub struct TracedHook<H>(pub H);

impl<H: RoundHook> RoundHook for TracedHook<H> {
    fn next_fire(&self) -> Option<u64> {
        let t0 = now_ns();
        let next = self.0.next_fire();
        let ns = now_ns() - t0;
        with_acc(|a| {
            a.polls += 1;
            a.poll_ns += ns;
            a.exclude(ns);
        });
        next
    }

    fn fire(
        &mut self,
        round: u64,
        game: &mut CongestionGame,
        state: &mut State,
    ) -> Result<bool, DynamicsError> {
        let t0 = now_ns();
        let changed = self.0.fire(round, game, state);
        let ns = now_ns() - t0;
        with_acc(|a| {
            a.fires += 1;
            a.fire_ns += ns;
            a.exclude(ns);
        });
        changed
    }
}

/// Census state of one trial run with every-round recording.
#[derive(Debug)]
struct Census {
    /// The recording cadence the wrapped observer expects; records off it
    /// are counted but not forwarded.
    every: u64,
    last: Option<(RoundRecord, bool)>,
    prev_support: u64,
}

/// `Observer` wrapper: times each forwarded record, closes the trial's
/// last round at `finish`, and counts the trial.
///
/// In census mode the simulation records every round; the probe counts
/// migrations and support on each one and forwards to the wrapped
/// observer exactly the records a run recording at `every` would have
/// produced (start record, cadence records, stop record), so the wrapped
/// observer's output, and the reduced bits, are unchanged.
#[derive(Debug)]
pub struct Probe<O> {
    inner: O,
    census: Option<Census>,
}

impl<O: Observer> Probe<O> {
    /// Forward every record (the simulation records at the pipeline's own
    /// cadence).
    pub fn traced(inner: O) -> Self {
        Probe { inner, census: None }
    }

    /// Census mode: the simulation records every round; forward only the
    /// records a run recording at `every` would see.
    pub fn census(inner: O, every: u64) -> Self {
        Probe { inner, census: Some(Census { every, last: None, prev_support: 0 }) }
    }

    fn forward(&mut self, record: &RoundRecord) {
        let t0 = now_ns();
        self.inner.observe(record);
        let ns = now_ns() - t0;
        with_acc(|a| {
            a.records += 1;
            a.record_ns += ns;
            a.exclude(ns);
        });
    }
}

impl<O: Observer> Observer for Probe<O> {
    type Output = O::Output;

    fn observe(&mut self, record: &RoundRecord) {
        let Some(c) = self.census.as_mut() else {
            self.forward(record);
            return;
        };
        if record.round > 0 {
            let (support, migrations) = (c.prev_support, record.migrations);
            with_acc(|a| {
                a.census_steps += 1;
                a.still_rounds += u64::from(migrations == 0);
                a.support_sum += support;
                a.migrations += migrations;
            });
        }
        c.prev_support = record.support as u64;
        let on_cadence = c.every > 0 && record.round.is_multiple_of(c.every);
        c.last = Some((*record, on_cadence));
        if on_cadence {
            self.forward(record);
        }
    }

    fn finish(mut self, summary: &RunSummary) -> O::Output {
        let now = now_ns();
        with_acc(|a| {
            a.close_round(now);
            a.trials += 1;
            a.trial_rounds += summary.rounds;
        });
        if let Some(c) = self.census.take() {
            // A run recording at `every` also records its stop round.
            if let Some((last, forwarded)) = c.last {
                if c.every > 0 && !forwarded && last.round == summary.rounds {
                    self.forward(&last);
                }
            }
        }
        self.inner.finish(summary)
    }
}

/// Observer wrapper for the multi-threaded sweep: one `trial` span per
/// trial, from the observer factory call to `finish`.
#[derive(Debug)]
pub struct TrialSpan<O> {
    inner: O,
    parent: u64,
    start: u64,
}

impl<O> TrialSpan<O> {
    pub fn new(inner: O, parent: u64) -> Self {
        TrialSpan { inner, parent, start: now_ns() }
    }
}

impl<O: Observer> Observer for TrialSpan<O> {
    type Output = O::Output;

    fn observe(&mut self, record: &RoundRecord) {
        self.inner.observe(record);
    }

    fn finish(self, summary: &RunSummary) -> O::Output {
        let out = self.inner.finish(summary);
        push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            name: "trial",
            thread: THREAD.with(|t| *t),
            start: self.start,
            end: now_ns(),
        });
        out
    }
}

/// `Reducer` + `WireReduce` wrapper: counts and times absorbs and merges.
#[derive(Debug, Clone)]
pub struct TracedReducer<R>(pub R);

impl<R: Reducer> Reducer for TracedReducer<R> {
    type Item = R::Item;

    fn identity(&self) -> Self {
        TracedReducer(self.0.identity())
    }

    fn absorb(&mut self, item: R::Item) {
        let t0 = now_ns();
        self.0.absorb(item);
        let ns = now_ns() - t0;
        with_acc(|a| {
            a.absorbs += 1;
            a.absorb_ns += ns;
        });
    }

    fn merge(&mut self, other: Self) {
        let t0 = now_ns();
        self.0.merge(other.0);
        let ns = now_ns() - t0;
        with_acc(|a| {
            a.merges += 1;
            a.merge_ns += ns;
        });
    }
}

/// Forwards the wire encoding, so traced leaves ship as the plain
/// reducer's bytes; the wire layer is timed by spans around the shard
/// file calls.
impl<R: WireReduce> WireReduce for TracedReducer<R> {
    fn wire_id(&self) -> String {
        self.0.wire_id()
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        self.0.encode_partial(out);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        self.0.decode_partial(cur).map(TracedReducer)
    }
}

/// Busy time of a set of spans: per thread, the length of the union of
/// its spans (lane groups open all their trials' spans at once, so spans
/// of one thread can overlap).
pub fn busy_ns(spans: &[Span]) -> u64 {
    let mut by_thread: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        by_thread.entry(s.thread).or_default().push((s.start, s.end));
    }
    let mut busy = 0;
    for (_, mut iv) in by_thread {
        iv.sort_unstable();
        let (mut lo, mut hi) = iv[0];
        for &(s, e) in &iv[1..] {
            if s > hi {
                busy += hi - lo;
                (lo, hi) = (s, e);
            } else {
                hi = hi.max(e);
            }
        }
        busy += hi - lo;
    }
    busy
}
