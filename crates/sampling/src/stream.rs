//! The `DrawStream` abstraction: one draw interface, two RNG backends.
//!
//! Every randomized kernel in the workspace draws through [`DrawRng`]: the
//! [`Rng`] interface plus two *positioning hooks*, [`begin_round`] and
//! [`begin_site`], and one query, [`is_addressed`], that tells a kernel
//! whether it may leave sites undrawn. For the sequential xoshiro backend
//! the hooks are no-ops and the consumed stream is bit-identical to passing
//! the raw [`SmallRng`] (all historical pins hold unmodified); for the
//! counter backend they reposition the [`CounterRng`] so each draw is
//! addressed by `(trial, round, site, index)` — see [`crate::counter`] for
//! the key schedule.
//!
//! [`begin_round`]: DrawRng::begin_round
//! [`begin_site`]: DrawRng::begin_site
//! [`is_addressed`]: DrawRng::is_addressed

use crate::counter::CounterRng;
use crate::seeds::seeded_rng;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Which RNG backend an experiment draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngMode {
    /// Sequential xoshiro256++ per trial (the historical default; all
    /// pre-existing bit pins are in this mode).
    Xoshiro,
    /// Counter-based Philox 4×64, addressed by `(trial, round, site,
    /// index)` — bit-identical across thread/shard counts by construction.
    Counter,
}

impl RngMode {
    /// The canonical lowercase name (`"xoshiro"` / `"counter"`), as
    /// accepted by `--rng` and printed in reproducibility headers.
    pub fn name(self) -> &'static str {
        match self {
            RngMode::Xoshiro => "xoshiro",
            RngMode::Counter => "counter",
        }
    }

    /// Parse a canonical name back into a mode.
    pub fn parse(s: &str) -> Option<RngMode> {
        match s {
            "xoshiro" => Some(RngMode::Xoshiro),
            "counter" => Some(RngMode::Counter),
            _ => None,
        }
    }

    /// Stable single-byte wire code (shard headers).
    pub fn code(self) -> u8 {
        match self {
            RngMode::Xoshiro => 0,
            RngMode::Counter => 1,
        }
    }

    /// Decode a wire code written by [`RngMode::code`].
    pub fn from_code(code: u8) -> Option<RngMode> {
        match code {
            0 => Some(RngMode::Xoshiro),
            1 => Some(RngMode::Counter),
            _ => None,
        }
    }
}

impl std::fmt::Display for RngMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// [`Rng`] plus stream-positioning hooks.
///
/// Kernels call [`begin_round`](DrawRng::begin_round) once per concurrent
/// round and [`begin_site`](DrawRng::begin_site) once per draw site (origin
/// strategy, player, …) before drawing. Sequential generators ignore the
/// hooks (default no-op bodies), so threading `DrawRng` through a kernel
/// does not perturb an existing sequential stream by a single bit.
///
/// # Addressed streams
///
/// [`is_addressed`](DrawRng::is_addressed) tells a kernel whether every
/// draw is a pure function of its `(round, site, index)` position. Only
/// then may a kernel skip a site it can prove draws nothing that matters
/// (the player-level kernel skips players who cannot move): skipping an
/// addressed site changes no other site's bits. The default is `false`
/// — draws are sequential, so every site must be drawn in order — and a
/// wrapper that does not override it gets the full walk.
pub trait DrawRng: Rng {
    /// Position the stream at the start of `round`.
    #[inline]
    fn begin_round(&mut self, round: u64) {
        let _ = round;
    }

    /// Position the stream at the start of `site` within the current round.
    #[inline]
    fn begin_site(&mut self, site: u64) {
        let _ = site;
    }

    /// Whether draws are addressed by position rather than sequential
    /// (see [Addressed streams](DrawRng#addressed-streams)).
    #[inline]
    fn is_addressed(&self) -> bool {
        false
    }
}

/// Sequential backend: the hooks are no-ops, the stream is untouched.
impl DrawRng for SmallRng {}

impl DrawRng for CounterRng {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        CounterRng::begin_round(self, round);
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        CounterRng::begin_site(self, site);
    }

    #[inline]
    fn is_addressed(&self) -> bool {
        true
    }
}

impl<R: DrawRng + ?Sized> DrawRng for &mut R {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        (**self).begin_round(round);
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        (**self).begin_site(site);
    }

    #[inline]
    fn is_addressed(&self) -> bool {
        (**self).is_addressed()
    }
}

/// A trial's random stream under either backend.
///
/// [`DrawStream::for_trial`] is the single constructor for per-trial
/// randomness: both arms root in [`crate::split_seed`], so the mapping from
/// `(mode, base_seed, trial)` to a stream is fully documented by
/// `seeds.rs` plus the [`crate::counter`] key schedule.
#[derive(Debug, Clone)]
pub enum DrawStream {
    /// Sequential xoshiro256++ seeded with `split_seed(base_seed, trial)` —
    /// exactly the stream `seeded_rng(base_seed, trial)` produces.
    Xoshiro(SmallRng),
    /// Counter-mode Philox stream for the trial.
    Counter(CounterRng),
}

impl DrawStream {
    /// The stream for replica `trial` of the experiment keyed by
    /// `base_seed`, under `mode`.
    pub fn for_trial(mode: RngMode, base_seed: u64, trial: u64) -> DrawStream {
        match mode {
            RngMode::Xoshiro => DrawStream::Xoshiro(seeded_rng(base_seed, trial)),
            RngMode::Counter => DrawStream::Counter(CounterRng::for_trial(base_seed, trial)),
        }
    }

    /// Wrap an already-seeded sequential generator (single-run CLI path,
    /// which historically seeds `SmallRng` directly from the user seed).
    pub fn from_small_rng(rng: SmallRng) -> DrawStream {
        DrawStream::Xoshiro(rng)
    }

    /// Which backend this stream draws from.
    pub fn mode(&self) -> RngMode {
        match self {
            DrawStream::Xoshiro(_) => RngMode::Xoshiro,
            DrawStream::Counter(_) => RngMode::Counter,
        }
    }
}

impl RngCore for DrawStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        match self {
            DrawStream::Xoshiro(r) => r.next_u32(),
            DrawStream::Counter(r) => r.next_u32(),
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self {
            DrawStream::Xoshiro(r) => r.next_u64(),
            DrawStream::Counter(r) => r.next_u64(),
        }
    }
}

impl DrawRng for DrawStream {
    #[inline]
    fn begin_round(&mut self, round: u64) {
        match self {
            DrawStream::Xoshiro(_) => {}
            DrawStream::Counter(r) => r.begin_round(round),
        }
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        match self {
            DrawStream::Xoshiro(_) => {}
            DrawStream::Counter(r) => r.begin_site(site),
        }
    }

    #[inline]
    fn is_addressed(&self) -> bool {
        matches!(self, DrawStream::Counter(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_stream_matches_seeded_rng_bit_for_bit() {
        let mut stream = DrawStream::for_trial(RngMode::Xoshiro, 11, 4);
        let mut raw = seeded_rng(11, 4);
        // Interleave positioning hooks to prove they do not perturb the
        // sequential stream.
        stream.begin_round(3);
        for i in 0..32u64 {
            stream.begin_site(i);
            assert_eq!(stream.next_u64(), raw.next_u64());
        }
    }

    #[test]
    fn counter_stream_honors_positioning() {
        let mut stream = DrawStream::for_trial(RngMode::Counter, 11, 4);
        stream.begin_round(9);
        stream.begin_site(2);
        let first = stream.next_u64();
        assert_eq!(first, CounterRng::at(11, 4, 9, 2, 0));
    }

    #[test]
    fn only_counter_streams_are_addressed() {
        assert!(DrawStream::for_trial(RngMode::Counter, 1, 0).is_addressed());
        assert!(!DrawStream::for_trial(RngMode::Xoshiro, 1, 0).is_addressed());
        assert!(CounterRng::for_trial(1, 0).is_addressed());
        assert!(!seeded_rng(1, 0).is_addressed());
        fn via_generic<R: DrawRng>(rng: R) -> bool {
            rng.is_addressed()
        }
        assert!(via_generic(&mut CounterRng::for_trial(1, 0)), "`&mut R` forwards");
        assert!(!via_generic(&mut seeded_rng(1, 0)));
    }

    #[test]
    fn mode_round_trips_through_names_and_codes() {
        for mode in [RngMode::Xoshiro, RngMode::Counter] {
            assert_eq!(RngMode::parse(mode.name()), Some(mode));
            assert_eq!(RngMode::from_code(mode.code()), Some(mode));
            assert_eq!(DrawStream::for_trial(mode, 1, 0).mode(), mode);
        }
        assert_eq!(RngMode::parse("philox"), None);
        assert_eq!(RngMode::from_code(9), None);
    }
}
