//! Counter-mode player-level rounds skip players who cannot move.
//!
//! With an addressed stream (`DrawRng::is_addressed`), the player-level
//! kernel draws only players whose origin has a destination with `μ > 0`:
//! every draw is a pure function of `(trial, round, site, index)`, so an
//! undrawn player changes no other player's bits. This suite replays each
//! configuration twice from the same counter stream — once as is (the
//! skip) and once through a wrapper that keeps the default
//! `is_addressed() == false` (the full walk) — and demands identical
//! per-round counts and potential bits. Both runs count their
//! `begin_site` calls, so the suite also proves the skip happened (and
//! that it did not where the mask's cost bound forbids it).

use congames::dynamics::{
    EngineKind, ExplorationProtocol, ImitationProtocol, NuRule, Protocol, SelfSampling, Simulation,
};
use congames::model::{Affine, CongestionGame, State};
use congames::sampling::{DrawRng, DrawStream, RngMode};
use congames_testutil::games;
use congames_testutil::rng::fixture_seed;
use rand::RngCore;

/// Forwards draws and positioning to a counter stream and counts sites;
/// keeps the default `is_addressed`, so the kernel walks every player.
struct FullWalk {
    inner: DrawStream,
    sites: u64,
}

impl RngCore for FullWalk {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

impl DrawRng for FullWalk {
    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
    }

    fn begin_site(&mut self, site: u64) {
        self.sites += 1;
        self.inner.begin_site(site);
    }
}

/// The same site counter, declaring the inner stream's addressing: the
/// kernel sees exactly what a plain `DrawStream` would.
struct Plain(FullWalk);

impl RngCore for Plain {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

impl DrawRng for Plain {
    fn begin_round(&mut self, round: u64) {
        self.0.begin_round(round);
    }

    fn begin_site(&mut self, site: u64) {
        self.0.begin_site(site);
    }

    fn is_addressed(&self) -> bool {
        self.0.inner.is_addressed()
    }
}

/// One configuration of the kernel.
struct Case {
    label: &'static str,
    game: CongestionGame,
    protocol: Protocol,
    memo: Option<usize>,
    start: fn(&CongestionGame) -> State,
    rounds: u64,
}

impl Case {
    fn new(label: &'static str, game: CongestionGame, protocol: Protocol) -> Case {
        Case { label, game, protocol, memo: None, start: games::geometric_state, rounds: 60 }
    }

    /// Start with every player on its class's first strategy, so only
    /// virtual agents or exploration can reach the others.
    fn piled(mut self) -> Case {
        self.start = games::piled_state;
        self
    }

    fn memo(mut self, slots: usize) -> Case {
        self.memo = Some(slots);
        self
    }

    fn start(&self) -> State {
        let state = (self.start)(&self.game);
        if self.protocol.imitation().is_some_and(|p| p.virtual_agents()) {
            state.with_virtual_agents(&self.game)
        } else {
            state
        }
    }

    /// Per-round `(counts, potential bits)` and total migrations, drawing
    /// through `rng`.
    fn run(&self, rng: &mut impl DrawRng) -> (Vec<(Vec<u64>, u64)>, u64) {
        let mut sim = Simulation::new(&self.game, self.protocol, self.start())
            .expect("valid simulation")
            .with_engine(EngineKind::PlayerLevel);
        if let Some(slots) = self.memo {
            sim = sim.with_mu_memo_capacity(slots);
        }
        let mut rounds = Vec::new();
        let mut moved = 0;
        for _ in 0..self.rounds {
            moved += sim.step(rng).expect("step").migrations;
            rounds.push((sim.state().counts().to_vec(), sim.potential().to_bits()));
        }
        (rounds, moved)
    }

    /// Run the skip and the full walk from one counter stream; return
    /// their `begin_site` counts `(skip, full)` after checking the bits.
    fn compare(&self) -> (u64, u64) {
        let stream = || DrawStream::for_trial(RngMode::Counter, fixture_seed(self.label, 0), 3);
        let mut plain = Plain(FullWalk { inner: stream(), sites: 0 });
        let mut full = FullWalk { inner: stream(), sites: 0 };
        assert!(plain.is_addressed() && !full.is_addressed());
        let (skip_rounds, moved) = self.run(&mut plain);
        let (full_rounds, _) = self.run(&mut full);
        assert!(moved > 0, "{}: the fixture must migrate", self.label);
        assert_eq!(skip_rounds, full_rounds, "{}: the skip changed the trajectory", self.label);
        let every_player = self.game.total_players() * self.rounds;
        assert_eq!(full.sites, every_player, "{}: the full walk drew every player", self.label);
        (plain.0.sites, full.sites)
    }
}

fn imitation() -> ImitationProtocol {
    ImitationProtocol::paper_default()
}

#[test]
fn skipping_unmovable_players_keeps_every_bit() {
    let exploration = ExplorationProtocol::paper_default();
    let combined = |imit: ImitationProtocol| {
        Protocol::combined(imit, exploration, 0.25).expect("valid combined protocol")
    };
    let include = imitation().with_self_sampling(SelfSampling::Include);
    let virtual_agents = imitation().with_virtual_agents(true);
    let cases = [
        Case::new("skip/imitation", games::affine_singleton(400), imitation().into()),
        Case::new("skip/imitation-include", games::affine_singleton(400), include.into()),
        Case::new(
            "skip/imitation-no-nu",
            games::monomial_singleton(300),
            imitation().with_nu_rule(NuRule::None).into(),
        ),
        Case::new("skip/imitation-virtual", games::affine_singleton(400), virtual_agents.into()),
        Case::new("skip/virtual-piled", games::linear_singleton(4, 400), virtual_agents.into())
            .piled(),
        Case::new("skip/exploration", games::affine_singleton(400), exploration.into()),
        Case::new("skip/combined", games::affine_singleton(400), combined(imitation())),
        Case::new("skip/combined-include", games::overlapping_pairs(300), combined(include)),
        Case::new("skip/combined-virtual", games::affine_singleton(400), combined(virtual_agents)),
        Case::new("skip/two-class", games::two_class_overlap(300, 200), imitation().into()),
        Case::new("skip/two-class-combined", games::two_class_overlap(300, 200), combined(include)),
        Case::new("skip/memo-default", games::linear_singleton(8, 2000), imitation().into()),
        Case::new("skip/memo-off", games::linear_singleton(8, 2000), imitation().into()).memo(0),
        // 2·8² = 128 slots do not fit 32: two LRU rows of 2·8 slots.
        Case::new("skip/memo-lru", games::linear_singleton(8, 2000), combined(imitation()))
            .memo(32),
    ];
    for case in &cases {
        let (skip, full) = case.compare();
        assert!(skip < full, "{}: the skip drew {skip} of {full} sites", case.label);
    }
}

/// A class whose mask would cost more `μ` evaluations than it has players
/// (here 4 occupied origins × 40 explorable destinations > 30 players)
/// keeps the full walk even on an addressed stream.
#[test]
fn classes_over_the_mask_cost_bound_walk_every_player() {
    let links = (0..40).map(|_| Affine::linear(1.0).into()).collect();
    let case = Case::new(
        "skip/over-bound",
        CongestionGame::singleton(links, 30).expect("valid game"),
        Protocol::combined(
            imitation().with_nu_rule(NuRule::None),
            ExplorationProtocol::paper_default(),
            0.5,
        )
        .expect("valid combined protocol"),
    );
    let (skip, full) = case.compare();
    assert_eq!(skip, full, "over the cost bound every player is drawn");
}
