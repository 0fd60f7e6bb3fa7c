//! The run driver: one record cadence and one stop rule for every kernel.
//!
//! `Simulation::run_observed` (one trial) and `LaneKernel::run_observed`
//! (a lockstep lane group) both end each round the same way: feed the
//! round's record to the observer when it is due, evaluate the stop
//! conditions ([`StopSpec::evaluate`]), and on a stop emit the stop
//! record unless the round was recorded already. [`RunDriver`] is that
//! step, written once; the kernels only say what a round looks like
//! ([`RoundState`]) and how to read its state ([`StateView`]).

use congames_model::{CongestionGame, State};

use crate::observe::Observer;
use crate::stopping::{RunSummary, StopSpec};
use crate::trajectory::{capture_record, RecordConfig, RoundRecord};

/// A run's current state, materialized on first use: the scalar engine
/// hands out its live state, a lane group gathers one lane into scratch
/// at most once per lane-round — and only when a record or a due
/// expensive stop condition reads it.
pub(crate) trait StateView {
    /// The game and the current state.
    fn get(&mut self) -> (&CongestionGame, &State);
}

impl StateView for (&CongestionGame, &State) {
    fn get(&mut self) -> (&CongestionGame, &State) {
        *self
    }
}

/// What the driver knows about a run at the top of one round, before it
/// steps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundState {
    pub(crate) round: u64,
    pub(crate) potential: f64,
    /// Players that migrated in the round that produced this state.
    pub(crate) migrations: u64,
    /// Whether a round hook changed the game/state just before this round.
    pub(crate) shock: bool,
    /// Whether a round hook still has fires pending: equilibrium-type
    /// conditions wait until the schedule drains (always `false` for
    /// lanes, which take no hooks).
    pub(crate) deferred: bool,
    /// The protocol's stability threshold `ν` under the current game.
    pub(crate) nu: f64,
}

/// One run's record cadence and stop rule: the record of the round the
/// run starts in, one record per cadence round, and the record of the
/// stop round (deduplicated when it is on the cadence anyway).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunDriver<'s> {
    stop: &'s StopSpec,
    record: RecordConfig,
    start_round: u64,
}

impl<'s> RunDriver<'s> {
    /// A driver for a run that starts at `start_round` (a resumed run
    /// records its start round even off the cadence).
    pub(crate) fn new(stop: &'s StopSpec, record: RecordConfig, start_round: u64) -> Self {
        RunDriver { stop, record, start_round }
    }

    /// Record round `at` if it is due and evaluate the stop conditions;
    /// `Some` ends the run with that summary (its stop record delivered).
    pub(crate) fn visit<O: Observer>(
        &self,
        at: &RoundState,
        view: &mut impl StateView,
        observer: &mut O,
    ) -> Option<RunSummary> {
        let every = self.record.every;
        let recorded = every > 0 && (at.round == self.start_round || at.round % every == 0);
        if recorded {
            observer.observe(&self.capture(at, view));
        }
        let reason = self.stop.evaluate(at, view)?;
        if every > 0 && !recorded {
            observer.observe(&self.capture(at, view));
        }
        Some(RunSummary { reason, rounds: at.round, potential: at.potential })
    }

    fn capture(&self, at: &RoundState, view: &mut impl StateView) -> RoundRecord {
        let (game, state) = view.get();
        capture_record(
            game,
            state,
            at.round,
            at.potential,
            at.migrations,
            self.record.approx.as_ref(),
            at.shock,
        )
    }
}
