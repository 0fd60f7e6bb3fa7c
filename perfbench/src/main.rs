//! `perfbench`: the end-to-end sweep benchmark (see `README.md`).
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload. `--trace 0` times the workload's sweep
//! at 1 and `nproc` threads and prints the end-to-end metrics; `--trace 1`
//! replays the same sweep through the tracing wrappers and prints the
//! per-layer metrics. Either way every sweep's reduced result is checked
//! by digest, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod meta;
mod trace;
mod units;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use meta::{json_str, Meta};
use trace::Acc;
use workload::{
    digest, fold, plain_operation, reduced, replay_lanes, replay_scalar, sharded,
    spanned_operation, LaneStats, MeanPipeline, Pipeline, QuantilesPipeline, Setup, Spec,
    DEFAULT_SEED, WORKLOADS,
};

const USAGE: &str =
    "usage: perfbench --workload <transient|tail_lanes|player_level|shocked_sharded> \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups before the census; a timed run adds one per timed sweep pair,
/// so `setup_s`, their median, samples the whole run like the sweeps do.
const SETUP_REPS: usize = 5;

/// Fewest timed sweeps per thread count, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// Where results, census files and spans are written, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args { spec: spec.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spec.shocked {
        run(&args, &MeanPipeline)
    } else {
        run(&args, &QuantilesPipeline)
    }
    ExitCode::SUCCESS
}

/// Operations attempted and failed, with a line per failure.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAIL {what}: {}", detail());
        }
    }

    /// One operation whose reduced result must hash to `reference`.
    fn digest(&mut self, what: &str, got: Result<u64, String>, reference: u64) {
        match got {
            Ok(d) => self.check(what, d == reference, || {
                format!("digest {d:016x}, expected {reference:016x}")
            }),
            Err(e) => self.check(what, false, || e),
        }
    }
}

/// Exact counts of one sweep's work, from the census replay.
#[derive(Debug, Default, Clone)]
struct Census {
    trials: u64,
    trial_rounds: u64,
    still_rounds: u64,
    support_sum: u64,
    migrations: u64,
    fires: u64,
    words: u64,
    sites: u64,
    lane_rounds: u64,
    lane_slots: u64,
    wire_bytes: u64,
}

impl Census {
    fn lines(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("trials", self.trials),
            ("trial_rounds", self.trial_rounds),
            ("still_rounds", self.still_rounds),
            ("support_sum", self.support_sum),
            ("migrations", self.migrations),
            ("shock_fires", self.fires),
            ("words", self.words),
            ("sites", self.sites),
            ("lane_rounds", self.lane_rounds),
            ("lane_slots", self.lane_slots),
            ("wire_bytes", self.wire_bytes),
        ]
    }

    fn per_round(&self, count: u64) -> f64 {
        count as f64 / self.trial_rounds.max(1) as f64
    }

    fn summary(&self) -> String {
        format!(
            "trial_rounds={} still_frac={:.4} support_mean={:.3} shock_fires={} \
             lane_occupancy={} words_per_trial_round={:.3} wire_bytes={}",
            self.trial_rounds,
            self.per_round(self.still_rounds),
            self.per_round(self.support_sum),
            self.fires,
            if self.lane_slots > 0 {
                format!("{}/{}", self.lane_rounds, self.lane_slots)
            } else {
                "n/a".into()
            },
            self.per_round(self.words),
            self.wire_bytes
        )
    }
}

/// Metrics in output order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<P: Pipeline>(args: &Args, p: &P) {
    let spec = args.spec;
    let meta = Meta::collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("meta {}", meta.to_json());
    let mut checks = Checks::default();

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        setup = Some(timed_setup(args, p, &mut setup_s));
    }
    let setup = setup.expect("at least one set-up");

    let (census, reference) = match census_pass(&setup, p, &mut checks) {
        Ok(c) => c,
        Err(e) => {
            checks.check("census replay", false, || e);
            finish(args, &meta, &checks, &Census::default(), Metrics::new());
            return;
        }
    };
    println!("census {} digest={reference:016x}", census.summary());
    compare_census(args, &census);
    if args.seed == DEFAULT_SEED {
        checks.check("pinned digest", reference == spec.pinned, || {
            format!("digest {reference:016x}, pinned {:016x}", spec.pinned)
        });
    }

    let metrics = if args.trace {
        traced_run(args, p, &setup, &census, reference, &mut checks)
    } else {
        let mut metrics = timed_run(args, p, &setup, &census, reference, &mut checks, &mut setup_s);
        metrics.push(("setup_s", median(&setup_s), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics
    };
    finish(args, &meta, &checks, &census, metrics);
}

/// Set up the workload (game, start state, schedule, ensemble and lane
/// kernel) and append the time it took to `times`.
fn timed_setup<P: Pipeline>(args: &Args, p: &P, times: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let setup = Setup::new(args.spec, args.seed);
    black_box(setup.ensemble(1, p.record()));
    black_box(setup.lane_kernel());
    times.push(t0.elapsed().as_secs_f64());
    setup
}

/// The untimed census replay: exact counts, and the reference digest
/// every other path must reproduce.
fn census_pass<P: Pipeline>(
    setup: &Setup,
    p: &P,
    checks: &mut Checks,
) -> Result<(Census, u64), String> {
    let span = trace::open("census", 0);
    trace::take_acc();
    let leaves = replay_scalar(setup, p, true, span.id())?;
    let folded = fold(setup, p, leaves, span.id())?;
    let acc = trace::take_acc();
    let reference = digest(&folded.reduced);
    checks.digest("census shard files merged", Ok(digest(&folded.via_wire)), reference);
    checks.check("census sees every round", acc.census_steps == acc.trial_rounds, || {
        format!("{} recorded steps for {} trial-rounds", acc.census_steps, acc.trial_rounds)
    });
    checks.check("one begin_round per trial-round", acc.rounds == acc.trial_rounds, || {
        format!("{} begin_round calls for {} trial-rounds", acc.rounds, acc.trial_rounds)
    });
    let mut census = Census {
        trials: acc.trials,
        trial_rounds: acc.trial_rounds,
        still_rounds: acc.still_rounds,
        support_sum: acc.support_sum,
        migrations: acc.migrations,
        fires: acc.fires,
        words: acc.words,
        sites: acc.sites,
        wire_bytes: folded.wire_bytes,
        ..Census::default()
    };
    if setup.spec.lanes.is_some() {
        let (leaves, stats) = replay_lanes(setup, p, span.id())?;
        let lane_acc = trace::take_acc();
        let folded = fold(setup, p, leaves, span.id())?;
        trace::take_acc();
        checks.digest(
            "lane replay against its scalar twin",
            Ok(digest(&folded.reduced)),
            reference,
        );
        census.lane_rounds = lane_acc.trial_rounds;
        census.lane_slots = stats.lane_slots;
    }
    span.close();
    Ok((census, reference))
}

fn timed_run<P: Pipeline>(
    args: &Args,
    p: &P,
    setup: &Setup,
    census: &Census,
    reference: u64,
    checks: &mut Checks,
    setup_s: &mut Vec<f64>,
) -> Metrics {
    let nproc = meta::nproc();
    // Warm-up sweep, checked but not timed.
    let got = plain_operation(setup, p, nproc).map(|r| digest(&r));
    checks.digest("warm-up sweep", got, reference);

    let budget = Duration::from_secs_f64(args.seconds);
    let t_start = Instant::now();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    while t_start.elapsed() < budget || walls[1].len() < MIN_SWEEPS {
        black_box(timed_setup(args, p, setup_s));
        for (slot, threads) in [(0, 1), (1, nproc)] {
            let t0 = Instant::now();
            let got = plain_operation(setup, p, threads);
            walls[slot].push(t0.elapsed().as_secs_f64());
            checks.digest(
                &format!("sweep at {threads} threads"),
                got.map(|r| digest(&r)),
                reference,
            );
        }
    }
    for (slot, threads) in [(0, 1), (1, nproc)] {
        let w = &walls[slot];
        println!(
            "sweeps at {threads} threads: n={} mean={:.4} median={:.4} min={:.4} max={:.4} s [{}]",
            w.len(),
            mean(w),
            median(w),
            fastest(w),
            w.iter().copied().fold(0.0, f64::max),
            w.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
        );
    }

    // The other partitions of the same sweep.
    if setup.spec.shocked {
        let got = reduced(setup, p, nproc, |_| p.observer()).map(|r| digest(&r));
        checks.digest("in-process run_reduced against merged shards", got, reference);
    } else {
        let got = sharded(setup, p, nproc, |_| p.observer()).map(|r| digest(&r));
        checks.digest("3 merged shards", got, reference);
    }

    // Rate over all of the run's timed sweeps, not their median: on a
    // shared host single-thread sweep times are bimodal (two modes about
    // 1.5x apart, in phases of seconds to minutes), so a run's median
    // jumps between modes while the rate moves only with the share of
    // time spent in each.
    let work = census.trial_rounds as f64;
    vec![
        ("trial_rounds_per_s", work / mean(&walls[0]), "1/s"),
        ("trial_rounds_per_s.nproc", work / mean(&walls[1]), "1/s"),
    ]
}

fn traced_run<P: Pipeline>(
    args: &Args,
    p: &P,
    setup: &Setup,
    census: &Census,
    reference: u64,
    checks: &mut Checks,
) -> Metrics {
    let spec = setup.spec;
    let nproc = meta::nproc();
    let lanes = spec.lanes.is_some();

    // Alternate untraced single-thread sweeps with traced replays of the
    // same sweep (the lane path where the workload has one).
    let budget = Duration::from_secs_f64(args.seconds);
    let t_start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut acc = Acc::default();
    let mut lane_stats = LaneStats::default();
    let (mut wire_ns, mut wire_bytes) = ([0u64; 3], 0u64);
    while t_start.elapsed() < budget || traced.len() < MIN_SWEEPS {
        let t0 = Instant::now();
        let got = plain_operation(setup, p, 1).map(|r| digest(&r));
        untraced.push(t0.elapsed().as_secs_f64());
        checks.digest("untraced sweep", got, reference);

        trace::take_acc();
        let span = trace::open("replay", 0);
        let replayed = if lanes {
            replay_lanes(setup, p, span.id()).map(|(leaves, stats)| {
                lane_stats.groups += stats.groups;
                lane_stats.lockstep_rounds += stats.lockstep_rounds;
                lane_stats.ns += stats.ns;
                leaves
            })
        } else {
            replay_scalar(setup, p, false, span.id())
        };
        let folded = replayed.and_then(|leaves| fold(setup, p, leaves, span.id()));
        traced.push(span.close() as f64 / 1e9);
        add_acc(&mut acc, &trace::take_acc());
        match folded {
            Ok(f) => {
                checks.digest("traced replay", Ok(digest(&f.reduced)), reference);
                checks.digest("traced replay via shard files", Ok(digest(&f.via_wire)), reference);
                wire_ns[0] += f.encode_ns;
                wire_ns[1] += f.decode_ns;
                wire_ns[2] += f.merge_ns;
                wire_bytes += f.wire_bytes;
            }
            Err(e) => checks.check("traced replay", false, || e),
        }
    }
    let replays = traced.len() as f64;
    let traced_wall_ns = traced.iter().sum::<f64>() * 1e9;
    println!(
        "{} untraced sweeps (median {:.4} s), {} traced replays (median {:.4} s)",
        untraced.len(),
        median(&untraced),
        traced.len(),
        median(&traced)
    );

    // Scalar round timing for the lane workload comes from its scalar twin.
    let engine = if lanes {
        trace::take_acc();
        let span = trace::open("replay.scalar_twin", 0);
        let got = replay_scalar(setup, p, false, span.id())
            .and_then(|leaves| fold(setup, p, leaves, span.id()))
            .map(|f| digest(&f.reduced));
        span.close();
        checks.digest("traced scalar twin", got, reference);
        trace::take_acc()
    } else {
        acc.clone()
    };

    // Per-trial spans of one traced sweep at nproc threads.
    let (busy_frac, idle_s) = match spanned_operation(setup, p, nproc) {
        Ok((swept, sweep_id, wall)) => {
            checks.digest("traced sweep at nproc threads", Ok(digest(&swept)), reference);
            let spans: Vec<_> =
                trace::spans().into_iter().filter(|s| s.parent == sweep_id).collect();
            let capacity = (nproc as u64 * wall) as f64;
            let busy = trace::busy_ns(&spans) as f64;
            (ratio(busy, capacity), (capacity - busy) / 1e9)
        }
        Err(e) => {
            checks.check("traced sweep at nproc threads", false, || e);
            (0.0, 0.0)
        }
    };

    let span = trace::open("units", 0);
    let u = units::measure(setup, args.seed);
    span.close();

    let round_ns = ratio(engine.round_ns as f64, engine.rounds as f64);
    // Cost model: Σ isolated unit cost × census count, per trial-round.
    let keystream = census.per_round(census.words) * u.philox_ns_per_word;
    let walk = 2.0 * census.per_round(census.migrations) * u.delta_walk_ns_per_unit;
    let rebuilds = census.per_round(census.fires) * u.cache_rebuild_ns;
    let predicted = keystream + walk + rebuilds;
    println!(
        "cost model: engine.round_ns predicted {predicted:.1} / measured {round_ns:.1} = {:.3} \
         (keystream {keystream:.1} + ΔΦ walk {walk:.1} + cache rebuilds {rebuilds:.1} ns per \
         trial-round)",
        ratio(predicted, round_ns),
    );

    let attributed = (acc.round_ns
        + lane_stats.ns
        + acc.poll_ns
        + acc.fire_ns
        + acc.record_ns
        + acc.absorb_ns
        + acc.merge_ns
        + wire_ns.iter().sum::<u64>()) as f64;
    let per_sweep = |x: u64| x as f64 / replays;
    let per_call = |ns: u64, calls: u64| ratio(ns as f64, calls as f64);
    vec![
        ("ensemble.busy_frac.nproc", busy_frac, "ratio"),
        ("ensemble.idle_s.nproc", idle_s, "s"),
        ("ensemble.units", setup.units() as f64, "count"),
        ("engine.round_ns", round_ns, "ns"),
        ("engine.round_ns.predicted", predicted, "ns"),
        ("engine.trial_rounds", census.trial_rounds as f64, "count"),
        ("engine.still_frac", census.per_round(census.still_rounds), "ratio"),
        ("engine.support_mean", census.per_round(census.support_sum), "count"),
        ("lanes.lockstep_round_ns", per_call(lane_stats.ns, lane_stats.lockstep_rounds), "ns"),
        ("lanes.occupancy", ratio(census.lane_rounds as f64, census.lane_slots as f64), "ratio"),
        ("lanes.groups", per_sweep(lane_stats.groups), "count"),
        ("sampling.words_per_trial_round", census.per_round(census.words), "count"),
        ("sampling.sites_per_trial_round", census.per_round(census.sites), "count"),
        ("sampling.philox_ns_per_word", u.philox_ns_per_word, "ns"),
        ("sampling.batched_ns_per_word", u.batched_ns_per_word, "ns"),
        ("sampling.binomial_ns.small_mean", u.binomial_small_ns, "ns"),
        ("sampling.binomial_ns.large_mean", u.binomial_large_ns, "ns"),
        ("model.cache_rebuild_ns", u.cache_rebuild_ns, "ns"),
        ("model.delta_walk_ns_per_unit", u.delta_walk_ns_per_unit, "ns"),
        ("scenario.fires", per_sweep(acc.fires), "count"),
        ("scenario.fire_ns", per_call(acc.fire_ns, acc.fires), "ns"),
        ("scenario.polls", per_sweep(acc.polls), "count"),
        ("scenario.poll_ns", per_call(acc.poll_ns, acc.polls), "ns"),
        ("observe.records", per_sweep(acc.records), "count"),
        ("observe.record_ns", per_call(acc.record_ns, acc.records), "ns"),
        ("reduce.absorbs", per_sweep(acc.absorbs), "count"),
        ("reduce.absorb_ns", per_call(acc.absorb_ns, acc.absorbs), "ns"),
        ("reduce.merges", per_sweep(acc.merges), "count"),
        ("reduce.merge_ns", per_call(acc.merge_ns, acc.merges), "ns"),
        ("wire.bytes", per_sweep(wire_bytes), "bytes"),
        ("wire.encode_ns", per_sweep(wire_ns[0]), "ns"),
        ("wire.decode_ns", per_sweep(wire_ns[1]), "ns"),
        ("wire.merge_ns", per_sweep(wire_ns[2]), "ns"),
        ("trace.overhead_frac", median(&traced) / median(&untraced) - 1.0, "ratio"),
        ("trace.unattributed_frac", 1.0 - ratio(attributed, traced_wall_ns), "ratio"),
    ]
}

fn add_acc(total: &mut Acc, a: &Acc) {
    total.rounds += a.rounds;
    total.round_ns += a.round_ns;
    total.polls += a.polls;
    total.poll_ns += a.poll_ns;
    total.fires += a.fires;
    total.fire_ns += a.fire_ns;
    total.records += a.records;
    total.record_ns += a.record_ns;
    total.absorbs += a.absorbs;
    total.absorb_ns += a.absorb_ns;
    total.merges += a.merges;
    total.merge_ns += a.merge_ns;
}

/// Compare the census with the previous run of this workload and seed in
/// this checkout: equal counts mean the same work was done.
fn compare_census(args: &Args, census: &Census) {
    let path = Path::new(OUT_DIR).join(format!("census-{}-seed{}.txt", args.spec.name, args.seed));
    let text: String = census.lines().iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    match fs::read_to_string(&path) {
        Ok(previous) if previous == text => println!("census: same counts as the previous run"),
        Ok(previous) => {
            let old: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once('=')).collect();
            let changed: Vec<String> = census
                .lines()
                .iter()
                .filter_map(|(k, v)| {
                    let before = old.get(k).copied().unwrap_or("absent");
                    (before != v.to_string()).then(|| format!("{k} {before} -> {v}"))
                })
                .collect();
            println!("census: WORK CHANGED since the previous run: {}", changed.join(", "));
        }
        Err(_) => println!("census: no previous run of this workload and seed to compare"),
    }
    write_out(&path, &text);
}

fn write_out(path: &Path, text: &str) {
    let written = fs::create_dir_all(OUT_DIR).and_then(|()| fs::write(path, text));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Print the comparison with the previous result, write this one (with
/// spans, for a traced run), and print the result line.
fn finish(args: &Args, meta: &Meta, checks: &Checks, census: &Census, metrics: Metrics) {
    let name = args.spec.name;
    let trace = u8::from(args.trace);
    let last = Path::new(OUT_DIR).join(format!("last-{name}-trace{trace}.txt"));
    let mut text = format!("meta={}\ncommit={}\n", meta.comparable_key(), meta.commit);
    for (k, v, _) in &metrics {
        let _ = writeln!(text, "{k}={v}");
    }
    if let Ok(previous) = fs::read_to_string(&last) {
        let old: BTreeMap<&str, &str> =
            previous.lines().filter_map(|l| l.split_once('=')).collect();
        if old.get("meta").copied() == Some(meta.comparable_key().as_str()) {
            let deltas: Vec<String> = metrics
                .iter()
                .filter_map(|(k, v, _)| {
                    let before: f64 = old.get(k)?.parse().ok()?;
                    Some(format!("{k} {:+.1}%", 100.0 * (v / before - 1.0)))
                })
                .collect();
            println!(
                "vs previous result (commit {}): {}",
                old.get("commit").unwrap_or(&"unknown"),
                deltas.join(", ")
            );
        } else {
            println!("previous result is from another host or build: not compared");
        }
    }
    write_out(&last, &text);

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(k), json_str(unit))
        })
        .collect();
    let census_json: Vec<String> =
        census.lines().iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"meta\": {}, \"census\": {{{}}}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        json_str(name),
        args.seed,
        meta.to_json(),
        census_json.join(", "),
        checks.attempted,
        checks.failed,
        metrics_json.join(", ")
    );
    write_out(
        &Path::new(OUT_DIR).join(format!("{name}-seed{}-trace{trace}.json", args.seed)),
        &report,
    );
    if args.trace {
        let mut spans = String::new();
        for s in trace::spans() {
            let _ = writeln!(
                spans,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"thread\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                s.id,
                s.parent,
                json_str(s.name),
                s.thread,
                s.start,
                s.end
            );
        }
        write_out(
            &Path::new(OUT_DIR).join(format!("spans-{name}-seed{}.jsonl", args.seed)),
            &spans,
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json.join(", ")
    );
}
