//! Property-based tests of the scenario trace format: for every valid
//! schedule, `parse_trace(write_trace(s)) == s` (the loader/writer round
//! trip is the identity, so committed traces and in-memory schedules can
//! never drift apart), the canonical rendering is a fixed point, and the
//! digest is a function of the schedule alone. Deterministic rejection
//! tests (bad header, out-of-order rounds, wrong arity, bad fields) ride
//! along, each pinned to its precise line-numbered error.

use congames::scenario::{
    trace::{parse_trace, write_trace, TRACE_HEADER},
    LatencySpec, ScenarioError, Schedule, ScheduledEvent,
};
use proptest::prelude::*;

/// Finite, non-negative floats that exercise the shortest-round-trip
/// Display path (integers, awkward decimals, and dense-mantissa dyadics
/// in `[1, 2)` alike). The vendored proptest has no `prop_oneof`, so
/// variant choice is a generated tag, as elsewhere in this suite.
fn coeff() -> impl Strategy<Value = f64> {
    (0u8..3, 0u32..1_000_000, 1u64..1 << 50).prop_map(|(tag, i, b)| match tag {
        0 => f64::from(i) / 1024.0,
        1 => f64::from(i % 1000),
        _ => f64::from_bits(b | (1023u64 << 52)),
    })
}

fn latency_spec() -> impl Strategy<Value = LatencySpec> {
    (0u8..3, coeff(), coeff(), 1u32..6).prop_map(|(tag, a, b, degree)| match tag {
        0 => LatencySpec::Constant { value: a },
        1 => LatencySpec::Affine { slope: a, intercept: b },
        _ => LatencySpec::Monomial { coefficient: a, degree },
    })
}

fn event() -> impl Strategy<Value = ScheduledEvent> {
    (0u8..5, 0u32..64, latency_spec(), 0.001f64..1000.0, 1u64..10_000).prop_map(
        |(tag, id, latency, factor, count)| match tag {
            0 => ScheduledEvent::SetLatency { resource: id, latency },
            1 => ScheduledEvent::ScaleLatency { resource: id, factor },
            2 => ScheduledEvent::AddPlayers { strategy: id, count },
            3 => ScheduledEvent::RemovePlayers { strategy: id, count },
            _ => ScheduledEvent::SetDemand { class: id as usize, players: count },
        },
    )
}

fn schedule() -> impl Strategy<Value = Schedule> {
    proptest::collection::vec((0u64..1_000_000, event()), 0..40)
        .prop_map(|events| Schedule::new(events).expect("generated events are valid"))
}

proptest! {
    /// The tentpole property: the loader inverts the writer exactly, the
    /// canonical rendering is a fixed point, and the digest survives the
    /// round trip (it is defined over the canonical bytes).
    #[test]
    fn write_parse_round_trip_is_identity(s in schedule()) {
        let text = write_trace(&s);
        let parsed = parse_trace(&text).expect("canonical traces parse");
        prop_assert_eq!(&parsed, &s);
        // The canonical form is a fixed point of write ∘ parse.
        prop_assert_eq!(write_trace(&parsed), text);
        prop_assert_eq!(parsed.digest(), s.digest());
    }

    /// Blank lines and comments are transparent: injecting them between
    /// event lines parses to the same schedule.
    #[test]
    fn comments_and_blank_lines_are_transparent(s in schedule(), gap in 0usize..5) {
        let text = write_trace(&s);
        let mut padded = String::new();
        for line in text.lines() {
            padded.push_str(line);
            padded.push('\n');
            for _ in 0..gap {
                padded.push_str("# interleaved comment\n\n");
            }
        }
        prop_assert_eq!(parse_trace(&padded).expect("padded trace parses"), s);
    }
}

/// Assert `text` fails to parse with an error naming `line` and containing
/// `needle`.
fn assert_rejects(text: &str, line: usize, needle: &str) {
    match parse_trace(text) {
        Err(ScenarioError::Parse { line: got, message }) => {
            assert_eq!(got, line, "wrong line for {needle:?}: {message}");
            assert!(message.contains(needle), "error {message:?} lacks {needle:?}");
        }
        other => panic!("expected a line-{line} parse error ({needle:?}), got {other:?}"),
    }
}

#[test]
fn missing_or_wrong_header_is_line_one() {
    assert_rejects("50,scale_latency,0,4\n", 1, "header");
    assert_rejects("# congames-trace v9\n", 1, "header");
    assert_eq!(TRACE_HEADER, "# congames-trace v1");
}

#[test]
fn out_of_order_rounds_name_the_offending_line() {
    let text = "# congames-trace v1\n100,scale_latency,0,4\n50,scale_latency,1,2\n";
    assert_rejects(text, 3, "out of order");
    // Equal rounds are fine — file order is the tie order.
    let ok = "# congames-trace v1\n100,scale_latency,0,4\n100,scale_latency,1,2\n";
    assert_eq!(parse_trace(ok).unwrap().len(), 2);
}

#[test]
fn wrong_arity_and_bad_fields_are_line_numbered() {
    assert_rejects("# congames-trace v1\n50,scale_latency,0\n", 2, "argument");
    assert_rejects("# congames-trace v1\n50,add_players,0,1,9\n", 2, "argument");
    assert_rejects("# congames-trace v1\nx,scale_latency,0,4\n", 2, "cannot parse");
    assert_rejects("# congames-trace v1\n50,scale_latency,zero,4\n", 2, "cannot parse");
    assert_rejects("# congames-trace v1\n50,scale_latency,0,-4\n", 2, "finite and positive");
    assert_rejects("# congames-trace v1\n50,teleport,0,4\n", 2, "unknown event");
    assert_rejects("# congames-trace v1\n50,set_latency,0,cubic:3\n", 2, "unknown latency spec");
    assert_rejects("# congames-trace v1\n50,add_players,0,0\n", 2, "at least one player");
}

#[test]
fn empty_trace_is_the_empty_schedule() {
    let s = parse_trace("# congames-trace v1\n").unwrap();
    assert!(s.is_empty());
    assert_eq!(write_trace(&s), "# congames-trace v1\n");
}

/// A trace that parses but whose arrival would overflow the `u64`
/// population aborts the run at its fire round with a hook error, and
/// leaves the population as it was — it used to wrap to 1999 players in
/// release builds and panic in debug builds.
#[test]
fn overflowing_arrival_aborts_the_run_and_keeps_the_population() {
    use congames::dynamics::{DynamicsError, ImitationProtocol, Simulation, StopSpec};
    use congames::model::{Affine, CongestionGame, State};
    use congames::scenario::ScheduleCursor;
    use rand::SeedableRng;
    use std::sync::Arc;

    let schedule = parse_trace("# congames-trace v1\n5,add_players,0,18446744073709551615\n")
        .expect("a u64 count parses");
    let game =
        CongestionGame::singleton([1.0, 2.0, 4.0].map(|a| Affine::linear(a).into()).to_vec(), 2000)
            .expect("valid game");
    let start = State::from_counts(&game, vec![700, 700, 600]).expect("valid start");
    let mut sim = Simulation::new(&game, ImitationProtocol::paper_default().into(), start)
        .expect("valid simulation")
        .with_hook(Box::new(ScheduleCursor::new(Arc::new(schedule))));
    let mut rng = rand::rngs::SmallRng::seed_from_u64(20090808);
    let err = sim.run(&StopSpec::max_rounds(20), &mut rng).expect_err("the arrival must fail");
    match &err {
        DynamicsError::Hook { message } => {
            assert!(message.contains("round 5") && message.contains("overflow"), "{message}");
        }
        other => panic!("expected a hook error, got {other:?}"),
    }
    assert_eq!(sim.round(), 5);
    assert_eq!(sim.state().counts().iter().sum::<u64>(), 2000);
    assert!(sim.state().loads_consistent(&game));
}
