//! `rrb-perfbench`: runs one benchmark workload in this process and prints
//! its metrics. `perfbench/run.py` builds this binary and is the command
//! to use; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! rrb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! `--quick` (quick sizes, one pass) is for `run.py --self-test` only.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! JSON provenance record. The exit code is 1 if any broadcast failed.

#![forbid(unsafe_code)]

mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rrb_bench::json_string;
use rrb_engine::StepPhase;
use rrb_graph::Graph;
use workload::{Layer, Outcome, Prepared, Spans, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rrb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = match Workload::generate(&args.workload, args.quick) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("rrb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every measured broadcast runs on this one thread; only the traced
    // shard replay installs a two-thread pool of its own.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("global pool");
    let run = Run::execute(&w, &args);
    println!("{}", run.provenance(&w, &args));
    println!("{}", run.result(args.trace));
    if run.failed > 0 {
        std::process::exit(1);
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    passes: usize,
    /// Wall seconds of every timed set-up (build + wrap + init).
    setups: Vec<f64>,
    /// Broadcast walls of the untraced executions, in milliseconds.
    walls_ms: Vec<f64>,
    /// Broadcast walls of the traced executions (traced runs only).
    traced_walls_ms: Vec<f64>,
    /// Per broadcast, each lap's fastest time over the untraced
    /// executions: the broadcast's wall with host interference that
    /// comes and goes filtered out lap by lap.
    best_laps_ms: Vec<Vec<f64>>,
    /// First-pass results, in broadcast order: the deterministic
    /// statistics and the exact digests later executions must repeat.
    first: Vec<Option<Outcome>>,
    spans: Spans,
    shard: Option<ShardReplay>,
    peak_rss_kib: u64,
}

/// One topology replayed serially and at two shards on two threads.
struct ShardReplay {
    serial_step_ms: f64,
    sharded_step_ms: f64,
    shard_ms: Vec<f64>,
}

impl Run {
    fn execute(w: &Workload, args: &Args) -> Run {
        let proto = w.spec.protocol.build();
        let mut run = Run {
            first: vec![None; w.pass_len()],
            best_laps_ms: vec![Vec::new(); w.pass_len()],
            ..Run::default()
        };
        run.spans = Spans::new(args.trace);
        // A fixed number of whole passes, so every run of a workload keeps
        // each broadcast's fastest laps over the same number of repeats and
        // takes its medians over the same mix of topologies and origins. A
        // traced pass runs every broadcast twice, so a traced run makes half
        // as many. A run that takes over three times `--seconds` stops early
        // (its pass count is in the provenance record), so a grossly slower
        // build still ends within the command's time limit.
        let passes = if args.quick {
            1
        } else {
            let per_pass = w.pass_s * if args.trace { 2.0 } else { 1.0 };
            ((args.seconds as f64 / per_pass).round() as usize).max(1)
        };
        let start = Instant::now();
        let limit = Duration::from_secs(3 * args.seconds);
        while run.passes < passes && start.elapsed() < limit {
            for t in 0..w.topologies {
                let (graph, mut first_prep) = run.setup(w, &proto, args.seed, t);
                for k in 0..w.origins {
                    let b = t * w.origins + k;
                    run.broadcast(w, &proto, graph.as_ref(), args, b, first_prep.take());
                    if run.passes == 0 && args.trace && t == 0 && k + 1 == w.origins {
                        if let (Some(g), workload::Kind::Single) = (graph.as_ref(), w.kind) {
                            run.attempted += 1;
                            let replay = catch_unwind(AssertUnwindSafe(|| {
                                shard_replay(w, &proto, g, args.seed)
                            }));
                            match replay {
                                Ok(Ok(replay)) => run.shard = Some(replay),
                                Ok(Err(e)) => {
                                    eprintln!("{e}");
                                    run.failed += 1;
                                }
                                Err(_) => {
                                    eprintln!("{}: shard replay panicked", w.name);
                                    run.failed += 1;
                                }
                            }
                        }
                    }
                }
            }
            run.passes += 1;
        }
        run.peak_rss_kib = rrb_bench::peak_rss_kib().unwrap_or(0);
        run
    }

    /// Builds topology `t` `setup_reps` times, timing each build plus the
    /// wrap and init of the topology's first broadcast; keeps the last.
    fn setup(
        &mut self,
        w: &Workload,
        proto: &rrb_bench::scenario::AnyProtocol,
        seed: u64,
        t: usize,
    ) -> (Option<Graph>, Option<Prepared>) {
        let mut kept = (None, None);
        for _ in 0..w.setup_reps {
            kept = (None, None);
            let start = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let graph = w.build(seed, t, &mut self.spans)?;
                let prepared = w.prepare(&graph, proto, seed, t * w.origins, &mut self.spans);
                Ok::<_, String>((graph, prepared))
            }));
            match attempt {
                Ok(Ok((graph, prepared))) => {
                    self.setups.push(start.elapsed().as_secs_f64());
                    kept = (Some(graph), Some(prepared));
                }
                Ok(Err(e)) => eprintln!("set-up of topology {t} failed: {e}"),
                Err(_) => eprintln!("set-up of topology {t} panicked"),
            }
        }
        kept
    }

    /// Runs broadcast `b` (untraced, and in a traced run also traced, in
    /// alternating order) and checks it.
    fn broadcast(
        &mut self,
        w: &Workload,
        proto: &rrb_bench::scenario::AnyProtocol,
        graph: Option<&Graph>,
        args: &Args,
        b: usize,
        prepared: Option<Prepared>,
    ) {
        self.attempted += 1;
        let Some(graph) = graph else {
            self.failed += 1;
            return;
        };
        let mut bare_spans = Spans::new(false);
        // A traced run prepares each execution itself: the set-up's state
        // carries the traced run's probe.
        let mut prepared = if args.trace { None } else { prepared };
        let mut execute = |spans: &mut Spans| {
            catch_unwind(AssertUnwindSafe(|| {
                let p = match prepared.take() {
                    Some(p) => p,
                    None => w.prepare(graph, proto, args.seed, b, spans),
                };
                w.run(graph, proto, p, spans)
            }))
            .map_err(|_| format!("{}: broadcast {b} panicked", w.name))
        };
        let (bare, traced) = if !args.trace {
            (execute(&mut bare_spans), None)
        } else if b.is_multiple_of(2) {
            let bare = execute(&mut bare_spans);
            (bare, Some(execute(&mut self.spans)))
        } else {
            let traced = execute(&mut self.spans);
            (execute(&mut bare_spans), Some(traced))
        };
        let verdict = bare.and_then(|bare| {
            w.check(&bare)?;
            if let Some(traced) = traced {
                let traced = traced?;
                if traced.digest != bare.digest {
                    return Err(format!("{}: broadcast {b} differs when traced", w.name));
                }
                self.traced_walls_ms.push(traced.wall_ms());
            }
            match &self.first[b] {
                Some(first) if first.digest != bare.digest => {
                    Err(format!("{}: broadcast {b} did not repeat", w.name))
                }
                _ => Ok(bare),
            }
        });
        match verdict {
            Ok(outcome) => {
                self.walls_ms.push(outcome.wall_ms());
                let best = &mut self.best_laps_ms[b];
                if best.is_empty() {
                    best.clone_from(&outcome.laps_ms);
                }
                for (best, lap) in best.iter_mut().zip(&outcome.laps_ms) {
                    *best = best.min(*lap);
                }
                if self.first[b].is_none() {
                    self.first[b] = Some(outcome);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                self.failed += 1;
            }
        }
    }

    fn provenance(&self, w: &Workload, args: &Args) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"quick\": {}, \"n\": {}, \"d\": {}, \"graph\": {}, \"protocol\": {}, \
             \"threads\": 1, \"shards\": 1, \"nproc\": {nproc}, \"topologies\": {}, \
             \"origins\": {}, \"setup_reps\": {}, \"rumours\": {}, \"passes\": {}, \
             \"setups\": {}, \"broadcasts\": {}, \"rumours_started\": {}, \
             \"rumours_covered\": {}, \"raw_broadcast_ms_p50\": {:?}, \"statistics\": {}, \"spec\": {}}}}}",
            json_string(w.name),
            args.seed,
            args.seconds,
            args.trace,
            args.quick,
            w.spec.graph.node_count(),
            w.spec.graph.target_degree(),
            json_string(&w.spec.graph.label()),
            json_string(&w.spec.protocol.label()),
            w.topologies,
            w.origins,
            w.setup_reps,
            w.rumours,
            self.passes,
            self.setups.len(),
            self.walls_ms.len(),
            self.first
                .iter()
                .flatten()
                .map(|o| o.started)
                .sum::<usize>(),
            self.first
                .iter()
                .flatten()
                .map(|o| o.covered)
                .sum::<usize>(),
            median(&self.walls_ms),
            self.statistics().to_json(),
            json_string(&w.spec.to_json()),
        )
    }

    /// The deterministic statistics: means over the first pass.
    fn statistics(&self) -> Metrics {
        let firsts: Vec<&Outcome> = self.first.iter().flatten().collect();
        let mean = |f: fn(&Outcome) -> f64| {
            firsts.iter().map(|o| f(o)).sum::<f64>() / firsts.len().max(1) as f64
        };
        let mut stats = Metrics::default();
        stats.put("tx_per_node", mean(|o| o.tx_per_node), "tx/node");
        stats.put(
            "rounds_to_coverage",
            mean(|o| o.rounds_to_coverage),
            "rounds",
        );
        stats.put("coverage", mean(|o| o.coverage), "fraction");
        stats
    }

    fn result(&self, trace: bool) -> String {
        let mut metrics = Metrics::default();
        if !trace {
            let best_walls_ms: Vec<f64> =
                self.best_laps_ms.iter().map(|l| l.iter().sum()).collect();
            let node_rounds: f64 = self.first.iter().flatten().map(|o| o.node_rounds).sum();
            metrics.put("setup_s", median(&self.setups), "s");
            metrics.put("broadcast_ms_p50", median(&best_walls_ms), "ms");
            metrics.put(
                "node_rounds_per_s",
                node_rounds / (best_walls_ms.iter().sum::<f64>() / 1e3),
                "node-rounds/s",
            );
            metrics.put("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0, "MiB");
            metrics.0.extend(self.statistics().0);
        } else {
            self.traced_metrics(&mut metrics);
        }
        let correct = self.failed == 0
            && self.first.iter().all(Option::is_some)
            && !self.setups.is_empty()
            && metrics.all_finite();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            metrics.to_json()
        )
    }

    /// Per-layer metrics: set-up layers per set-up, broadcast layers per
    /// traced broadcast.
    fn traced_metrics(&self, m: &mut Metrics) {
        let s = &self.spans;
        let setups = s.count(Layer::Build).max(1) as f64;
        let preps = s.count(Layer::Init).max(1) as f64;
        let nb = self.traced_walls_ms.len().max(1) as f64;
        let traced_ms: f64 = self.traced_walls_ms.iter().sum();
        let bare_ms: f64 = self.walls_ms.iter().sum();
        let per = |x: f64| x / nb;

        let build = s.ms(Layer::Build) / setups;
        let pairing = s.ms(Layer::Pairing) / setups;
        m.put("graph.build_ms", build, "ms");
        m.put("graph.pairing_ms", pairing, "ms");
        m.put("graph.repair_ms", build - pairing, "ms");
        m.put("p2p.overlay_ms", s.ms(Layer::Overlay) / preps, "ms");
        m.put("engine.init_ms", s.ms(Layer::Init) / preps, "ms");
        m.put("p2p.churn_ms", per(s.ms(Layer::Churn)), "ms");
        m.put("p2p.joins", per(s.joins as f64), "count");
        m.put("p2p.leaves", per(s.leaves as f64), "count");
        m.put("p2p.rejoins", per(s.rejoins as f64), "count");
        m.put("engine.census_ms", per(s.ms(Layer::Census)), "ms");
        m.put("engine.step_ms", per(s.ms(Layer::Step)), "ms");
        m.put("engine.finished_ms", per(s.ms(Layer::Finished)), "ms");
        m.put("engine.report_ms", per(s.ms(Layer::Report)), "ms");
        for phase in StepPhase::ALL {
            let ms = s.phases[phase.index()].as_secs_f64() * 1e3;
            m.put(&format!("engine.phase.{}_ms", phase.label()), per(ms), "ms");
        }
        m.put("engine.rounds", per(s.rounds as f64), "count");
        m.put("engine.channels", per(s.channels as f64), "count");
        m.put("engine.push_tx", per(s.push_tx as f64), "count");
        m.put("engine.pull_tx", per(s.pull_tx as f64), "count");
        m.put("engine.tx", per(s.tx as f64), "count");
        m.put("engine.skipped_draws", per(s.skipped_draws as f64), "count");
        m.put(
            "engine.newly_informed",
            per(s.newly_informed as f64),
            "count",
        );
        m.put(
            "engine.useful_tx_ratio",
            s.newly_informed as f64 / s.tx.max(1) as f64,
            "ratio",
        );
        m.put("engine.events", per(s.events as f64), "count");
        m.put(
            "engine.events_per_s",
            s.events as f64 / (bare_ms / 1e3).max(1e-9),
            "events/s",
        );

        let shard = self.shard.as_ref();
        let serial = shard.map_or(0.0, |r| r.serial_step_ms);
        let sharded = shard.map_or(0.0, |r| r.sharded_step_ms);
        m.put("shard.serial_step_ms", serial, "ms");
        m.put("shard.sharded_step_ms", sharded, "ms");
        m.put(
            "shard.sim_speedup",
            if sharded > 0.0 { serial / sharded } else { 0.0 },
            "ratio",
        );
        for i in 0..2 {
            let ms = shard
                .and_then(|r| r.shard_ms.get(i).copied())
                .unwrap_or(0.0);
            m.put(&format!("shard.phase_ms.{i}"), ms, "ms");
        }

        let unattributed = traced_ms - s.attributed_ms();
        m.put("unattributed_ms", per(unattributed), "ms");
        m.put(
            "unattributed_share",
            unattributed / traced_ms.max(1e-9),
            "ratio",
        );
        m.put(
            "trace.overhead_ratio",
            traced_ms / bare_ms.max(1e-9) - 1.0,
            "ratio",
        );
        m.put(
            "trace.broadcasts",
            self.traced_walls_ms.len() as f64,
            "count",
        );
        m.put("trace.setups", self.setups.len() as f64, "count");
        m.put(
            "trace.broadcast_ms_p10",
            quantile(&self.walls_ms, 0.1),
            "ms",
        );
        m.put(
            "trace.broadcast_ms_p90",
            quantile(&self.walls_ms, 0.9),
            "ms",
        );
    }
}

/// Replays broadcast 0 of topology 0 serially and at `with_shards(2)` on a
/// two-thread pool, both probed; the two reports must be equal.
fn shard_replay(
    w: &Workload,
    proto: &rrb_bench::scenario::AnyProtocol,
    graph: &Graph,
    seed: u64,
) -> Result<ShardReplay, String> {
    use rrb_engine::telemetry::PhaseTimings;

    let replay = |shards: usize| {
        let config = w.spec.sim_config().with_shards(shards);
        let mut spans = Spans::new(true);
        let Prepared::Single { mut sim, mut rng } = w.prepare(graph, proto, seed, 0, &mut spans)
        else {
            unreachable!("shard replay runs on the single-rumour engine")
        };
        while !sim.finished(graph, proto, config) {
            spans.time(Layer::Step, || sim.step(graph, proto, config, &mut rng));
        }
        let probe = sim.take_probe().expect("probe installed");
        let timings = probe
            .as_any()
            .downcast_ref::<PhaseTimings>()
            .expect("PhaseTimings");
        let per_shard: Vec<f64> = timings
            .shard_phase_ms()
            .iter()
            .map(|row| row.iter().sum::<f64>())
            .collect();
        (
            spans.ms(Layer::Step),
            per_shard,
            sim.into_report(graph, config),
        )
    };
    let (serial_step_ms, _, serial) = replay(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("2-thread pool");
    let (sharded_step_ms, shard_ms, sharded) = pool.install(|| replay(2));
    if serial != sharded {
        return Err(format!(
            "{}: sharded replay differs from the serial run",
            w.name
        ));
    }
    Ok(ShardReplay {
        serial_step_ms,
        sharded_step_ms,
        shard_ms,
    })
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; NaN for an empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// JSON object; a non-finite value prints as `null` (and the run is
    /// reported incorrect).
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
