//! Applying scheduled events to a running game, cache-coherently.
//!
//! Every mutation routes through the model's mutators and then through
//! `State::invalidate_caches_for_game_change`, because a latency swap or a
//! population change silently invalidates both opt-in state caches (the
//! per-resource latency cache and the per-class support index) — arrivals
//! and departures even break the *support invariance* the sparse kernels
//! lean on. The engine additionally rebuilds its own derived structures
//! (protocol parameters, class offsets, player array, potential) after any
//! hook firing, so a scenario run stays exactly as consistent as a
//! stationary one.

use std::sync::Arc;

use congames_dynamics::{DynamicsError, RoundHook};
use congames_model::{CongestionGame, GameError, ResourceId, State, StrategyId};

use crate::error::ScenarioError;
use crate::event::{Schedule, ScheduledEvent};

/// Apply one event to `game`/`state`, leaving both mutually consistent
/// and every state cache invalidated.
///
/// Demand changes ([`ScheduledEvent::SetDemand`]) place the difference
/// deterministically: an increase lands on the class's lowest-id occupied
/// strategy (or its first strategy when the class is empty); a decrease
/// drains strategies in ascending id order, first-fit.
///
/// # Errors
///
/// Unknown resource/strategy/class ids, departures exceeding the players
/// actually present, and arrivals that would overflow a `u64` player
/// count or load are rejected with the game and state left unchanged.
pub fn apply_event(
    game: &mut CongestionGame,
    state: &mut State,
    event: &ScheduledEvent,
) -> Result<(), ScenarioError> {
    match *event {
        ScheduledEvent::SetLatency { resource, ref latency } => {
            game.set_latency(ResourceId::new(resource), latency.build())?;
            state.invalidate_caches_for_game_change();
        }
        ScheduledEvent::ScaleLatency { resource, factor } => {
            game.scale_latency(ResourceId::new(resource), factor)?;
            state.invalidate_caches_for_game_change();
        }
        ScheduledEvent::AddPlayers { strategy, count } => {
            let sid = StrategyId::new(strategy);
            game.check_strategy(sid)?;
            let class = game.class_of(sid);
            // The game's total bounds each class's count, so one check
            // covers both.
            check_growth(game.total_players(), count)?;
            let players = game.classes()[class].players() + count;
            // State first: `add_players` validates its own counts and loads
            // and leaves everything unchanged on failure; on success it
            // maintains counts/loads and invalidates caches.
            state.add_players(game, sid, count)?;
            game.set_class_players(class, players)?;
        }
        ScheduledEvent::RemovePlayers { strategy, count } => {
            let sid = StrategyId::new(strategy);
            game.check_strategy(sid)?;
            let class = game.class_of(sid);
            // State first: it validates availability and leaves everything
            // unchanged on failure, so the game is never left half-mutated.
            state.remove_players(game, sid, count)?;
            let players = game.classes()[class].players();
            game.set_class_players(class, players - count)?;
        }
        ScheduledEvent::SetDemand { class, players } => {
            let Some(c) = game.classes().get(class) else {
                return Err(ScenarioError::Apply {
                    round: 0,
                    message: format!(
                        "class {class} out of range ({} classes)",
                        game.classes().len()
                    ),
                });
            };
            let current = c.players();
            let range = c.strategy_range();
            if players > current {
                // Arrivals: the lowest-id occupied strategy, or the
                // class's first strategy when nobody is there yet.
                let target = range
                    .clone()
                    .map(StrategyId::new)
                    .find(|s| state.counts()[s.index()] > 0)
                    .unwrap_or(StrategyId::new(range.start));
                check_growth(game.total_players() - current, players)?;
                state.add_players(game, target, players - current)?;
                game.set_class_players(class, players)?;
            } else if players < current {
                // Departures: drain ascending strategy ids, first-fit.
                let mut remaining = current - players;
                for s in range.map(StrategyId::new) {
                    if remaining == 0 {
                        break;
                    }
                    let take = state.counts()[s.index()].min(remaining);
                    if take > 0 {
                        state.remove_players(game, s, take)?;
                        remaining -= take;
                    }
                }
                debug_assert_eq!(remaining, 0, "class counts summed to the class demand");
                game.set_class_players(class, players)?;
            }
        }
    }
    Ok(())
}

/// Reject an event that adds `added` players to a population of
/// `present` when the sum would overflow `u64`.
fn check_growth(present: u64, added: u64) -> Result<(), ScenarioError> {
    match present.checked_add(added) {
        Some(_) => Ok(()),
        None => Err(GameError::PopulationOverflow { present, added }.into()),
    }
}

/// A [`Schedule`] adapted to the engine's [`RoundHook`] seam: a cursor
/// over the events, applying everything due at (or before — a resumed run
/// catches up) the fire round.
///
/// Cursors are cheap to construct from a shared `Arc<Schedule>`, which is
/// exactly what `Ensemble::with_round_hook` wants: one fresh cursor per
/// replica, all replaying the same schedule.
///
/// # Example
///
/// ```
/// use congames_scenario::{generate, ScheduleCursor};
/// use congames_dynamics::{Ensemble, FinalSummary, ImitationProtocol, StopSpec, Welford, MapItem};
/// use congames_model::{Affine, CongestionGame, State};
/// use std::sync::Arc;
///
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     64,
/// )?;
/// let start = State::from_counts(&game, vec![32, 32])?;
/// let schedule = Arc::new(generate::step_shock(10, 0, 3.0)?);
/// let stats = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
///     .trials(8)
///     .with_round_hook(move || Box::new(ScheduleCursor::new(Arc::clone(&schedule))))
///     .run_reduced(
///         &StopSpec::max_rounds(30),
///         |_trial| FinalSummary,
///         MapItem::new(|s: congames_dynamics::RunSummary| s.potential, Welford::new()),
///     )?;
/// assert_eq!(stats.into_inner().count(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    schedule: Arc<Schedule>,
    next: usize,
}

impl ScheduleCursor {
    /// A cursor at the start of `schedule`.
    pub fn new(schedule: Arc<Schedule>) -> Self {
        ScheduleCursor { schedule, next: 0 }
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.next
    }
}

impl RoundHook for ScheduleCursor {
    fn next_fire(&self) -> Option<u64> {
        self.schedule.events().get(self.next).map(|(round, _)| *round)
    }

    fn fire(
        &mut self,
        round: u64,
        game: &mut CongestionGame,
        state: &mut State,
    ) -> Result<bool, DynamicsError> {
        let mut changed = false;
        while let Some((fire_round, event)) = self.schedule.events().get(self.next) {
            if *fire_round > round {
                break;
            }
            apply_event(game, state, event).map_err(|e| DynamicsError::Hook {
                message: format!("scheduled event at round {fire_round}: {e}"),
            })?;
            self.next += 1;
            changed = true;
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LatencySpec;
    use congames_model::{potential, Affine};

    fn two_links(n: u64, counts: Vec<u64>) -> (CongestionGame, State) {
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()],
            n,
        )
        .unwrap();
        let state = State::from_counts(&game, counts).unwrap();
        (game, state)
    }

    #[test]
    fn set_and_scale_latency_take_effect_and_invalidate_caches() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        state.ensure_latency_cache(&game);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::SetLatency {
                resource: 0,
                latency: LatencySpec::Constant { value: 7.5 },
            },
        )
        .unwrap();
        state.ensure_latency_cache(&game);
        assert_eq!(state.strategy_latency(&game, StrategyId::new(0)), 7.5);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::ScaleLatency { resource: 1, factor: 0.5 },
        )
        .unwrap();
        state.ensure_latency_cache(&game);
        assert_eq!(state.strategy_latency(&game, StrategyId::new(1)), 4.0);
        assert!((potential(&game, &state) - (6.0 * 7.5 + (1.0 + 2.0 + 3.0 + 4.0))).abs() < 1e-12);
    }

    #[test]
    fn population_events_keep_game_and_state_consistent() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        apply_event(&mut game, &mut state, &ScheduledEvent::AddPlayers { strategy: 1, count: 5 })
            .unwrap();
        assert_eq!(game.total_players(), 15);
        assert_eq!(state.counts(), &[6, 9]);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::RemovePlayers { strategy: 0, count: 6 },
        )
        .unwrap();
        assert_eq!(game.total_players(), 9);
        assert_eq!(state.counts(), &[0, 9]);
        // Over-draining fails and leaves both untouched.
        let err = apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::RemovePlayers { strategy: 0, count: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Game(GameError::InsufficientPlayers { .. })));
        assert_eq!(game.total_players(), 9);
        assert_eq!(state.counts(), &[0, 9]);
    }

    /// Arrivals that would overflow a `u64` player count are rejected
    /// with the game and state untouched — both the direct
    /// `add_players` event and a demand increase in a second class.
    #[test]
    fn overflowing_arrivals_leave_game_and_state_unchanged() {
        let (mut game, mut state) = two_links(2000, vec![1000, 1000]);
        let before = state.clone();
        let err = apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::AddPlayers { strategy: 0, count: u64::MAX },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Game(GameError::PopulationOverflow { present: 2000, added: u64::MAX })
        );
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(game.total_players(), 2000);
        assert_eq!(state, before);

        // Two classes: class 0's new demand fits in u64 on its own, but
        // the game's total would not.
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        let r1 = b.add_resource(Affine::linear(2.0).into());
        b.add_class("a", 10, vec![congames_model::Strategy::new(vec![r0]).unwrap()]).unwrap();
        b.add_class("b", 10, vec![congames_model::Strategy::new(vec![r1]).unwrap()]).unwrap();
        let mut game = b.build().unwrap();
        let mut state = State::from_counts(&game, vec![10, 10]).unwrap();
        let before = state.clone();
        let err = apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::SetDemand { class: 0, players: u64::MAX },
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Game(GameError::PopulationOverflow { .. })));
        assert_eq!(game.classes()[0].players(), 10);
        assert_eq!(game.total_players(), 20);
        assert_eq!(state, before);
    }

    #[test]
    fn set_demand_places_and_drains_deterministically() {
        let (mut game, mut state) = two_links(10, vec![0, 10]);
        // Increase lands on the lowest-id *occupied* strategy (1 here).
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 14 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 14]);
        // Decrease drains ascending ids first-fit: strategy 0 has nothing,
        // strategy 1 loses 9.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 5 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 5]);
        assert_eq!(game.classes()[0].players(), 5);
        // Equal demand is a no-op.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 5 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 5]);
        // Empty class: the increase lands on the class's first strategy.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 0 })
            .unwrap();
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 3 })
            .unwrap();
        assert_eq!(state.counts(), &[3, 0]);
        // Unknown class is rejected.
        assert!(matches!(
            apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 7, players: 1 }),
            Err(ScenarioError::Apply { .. })
        ));
    }

    #[test]
    fn cursor_fires_due_events_in_order_and_catches_up() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        let schedule = Arc::new(
            Schedule::new(vec![
                (3, ScheduledEvent::ScaleLatency { resource: 0, factor: 2.0 }),
                (3, ScheduledEvent::ScaleLatency { resource: 0, factor: 3.0 }),
                (8, ScheduledEvent::AddPlayers { strategy: 0, count: 1 }),
            ])
            .unwrap(),
        );
        let mut cursor = ScheduleCursor::new(Arc::clone(&schedule));
        assert_eq!(cursor.next_fire(), Some(3));
        assert_eq!(cursor.remaining(), 3);
        // Fire at round 5: both round-3 events catch up, the round-8 one
        // stays pending.
        assert!(cursor.fire(5, &mut game, &mut state).unwrap());
        assert_eq!(cursor.next_fire(), Some(8));
        state.ensure_latency_cache(&game);
        // ×2 then ×3 — both applied.
        assert_eq!(state.strategy_latency(&game, StrategyId::new(0)), 36.0);
        assert!(cursor.fire(8, &mut game, &mut state).unwrap());
        assert_eq!(cursor.next_fire(), None);
        assert_eq!(game.total_players(), 11);
    }
}
