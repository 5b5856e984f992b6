//! The three workloads: their generated scenario specs, and one
//! set-up/broadcast pair per engine path, driven through the public APIs
//! of `rrb-graph`, `rrb-p2p` and `rrb-engine`.
//!
//! Every call into a layer goes through [`Spans::time`], which reads the
//! clock only in a traced run; the untraced run executes the same calls in
//! the same order with no probe installed, reading the clock only once per
//! round (see [`Laps`]).

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use rrb_bench::scenario::{
    AnyProtocol, ChurnSpec, DynamicsSpec, FaultSpec, GraphSpec, PolicySpec, ProtocolSpec,
    RegimeSpec, ScenarioSpec, StopSpec, TimingSpec,
};
use rrb_bench::{rng_for, FAULT_STREAM, TOPOLOGY_STREAM};
use rrb_engine::telemetry::PhaseTimings;
use rrb_engine::{
    AsyncSimState, ClockSpec, FaultState, GilbertElliott, LatencySpec, MultiRumorReport,
    MultiSimState, Round, RumorInjection, RumorOutcome, RunReport, SimConfig, SimState, StepPhase,
    Topology,
};
use rrb_graph::{gen, Graph, NodeId};
use rrb_p2p::{ChurnProcess, Overlay};

/// Which engine path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SimState`: one rumour, round-synchronous.
    Single,
    /// `MultiSimState` over a churning `Overlay`.
    MultiChurn,
    /// `AsyncSimState`: event heap with per-node clocks and latency.
    Async,
}

/// One workload: the generated spec plus the shape of a run over it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Experiment coordinate of this workload's RNG streams.
    pub id: u64,
    /// Engine path.
    pub kind: Kind,
    /// The scenario, as parsed back from its generated JSON.
    pub spec: ScenarioSpec,
    /// Distinct topologies in one pass.
    pub topologies: usize,
    /// Broadcasts (origin draws) per topology.
    pub origins: usize,
    /// Timed set-ups per topology (each one a full build + wrap + init).
    pub setup_reps: usize,
    /// Nominal seconds of one untraced pass, as measured on a 2-vCPU Xeon
    /// VM; it fixes how many passes a run of a given length makes.
    pub pass_s: f64,
    /// Rumours per broadcast (multi-rumour path only).
    pub rumours: usize,
    /// Rounds between rumour injections (multi-rumour path only).
    pub stagger: Round,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["regular_4choice", "churn_multirumour", "async_burst"];

fn four_choice(n: usize, d: usize) -> ProtocolSpec {
    ProtocolSpec::FourChoice {
        n_estimate: n,
        degree: d,
        alpha: 1.5,
        choices: 4,
        regime: RegimeSpec::Auto,
    }
}

impl Workload {
    /// Generates workload `name`; `quick` shrinks every size for the
    /// self-test. The spec is serialised and parsed back, so the engines
    /// only ever see a spec that passed the strict JSON reader.
    pub fn generate(name: &str, quick: bool) -> Result<Workload, String> {
        let d = 8;
        let mut w = match name {
            "regular_4choice" => {
                let n = if quick { 1 << 12 } else { 1 << 13 };
                Workload {
                    name: "regular_4choice",
                    id: 0xB1,
                    kind: Kind::Single,
                    spec: ScenarioSpec::new(
                        name,
                        GraphSpec::RandomRegular { n, d },
                        four_choice(n, d),
                    )
                    .with_stop(StopSpec::QUIESCENT),
                    topologies: 8,
                    origins: 4,
                    setup_reps: 1,
                    pass_s: 1.2,
                    rumours: 1,
                    stagger: 0,
                }
            }
            "churn_multirumour" => {
                let n = if quick { 1 << 12 } else { 1 << 13 };
                let churn = ChurnSpec {
                    joins_per_round: 4.0,
                    leaves_per_round: 4.0,
                    min_alive: None,
                    rewire_per_round: 8,
                };
                Workload {
                    name: "churn_multirumour",
                    id: 0xB2,
                    kind: Kind::MultiChurn,
                    spec: ScenarioSpec::new(
                        name,
                        GraphSpec::ConfigurationModel { n, d },
                        four_choice(n, d),
                    )
                    .with_dynamics(DynamicsSpec::Churn(churn))
                    .with_stop(StopSpec::QUIESCENT),
                    topologies: 2,
                    origins: 1,
                    setup_reps: 4,
                    pass_s: 0.55,
                    rumours: 16,
                    stagger: 2,
                }
            }
            "async_burst" => {
                let n = if quick { 1 << 12 } else { 1 << 13 };
                Workload {
                    name: "async_burst",
                    id: 0xB3,
                    kind: Kind::Async,
                    spec: ScenarioSpec::new(
                        name,
                        GraphSpec::RandomRegular { n, d },
                        ProtocolSpec::FloodPushPull {
                            policy: PolicySpec::STANDARD,
                        },
                    )
                    .with_timing(TimingSpec::Async {
                        clock: ClockSpec::Exponential { rate: 1.0 },
                        latency: LatencySpec::Uniform {
                            min: 0.05,
                            max: 0.5,
                        },
                    })
                    .with_failures(FaultSpec {
                        burst: Some(GilbertElliott::new(0.1, 0.2, 0.02, 0.9)),
                        ..FaultSpec::NONE
                    })
                    .with_stop(StopSpec::COVERAGE),
                    topologies: 8,
                    origins: 2,
                    setup_reps: 1,
                    pass_s: 1.6,
                    rumours: 1,
                    stagger: 0,
                }
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {NAMES:?}"
                ))
            }
        };
        let json = w.spec.to_json();
        let parsed = ScenarioSpec::from_json(&json)?;
        if parsed != w.spec {
            return Err(format!(
                "spec for {name} does not survive a JSON round trip"
            ));
        }
        w.spec = parsed;
        if quick {
            w.topologies = w.topologies.min(2);
            w.setup_reps = 2;
        }
        Ok(w)
    }

    /// The stop condition's round cap.
    pub fn round_cap(&self) -> Round {
        match self.spec.stop {
            StopSpec::Coverage { max_rounds } | StopSpec::Quiescent { max_rounds } => max_rounds,
        }
    }

    /// Broadcasts in one pass over every topology.
    pub fn pass_len(&self) -> usize {
        self.topologies * self.origins
    }

    /// Builds topology `t`, recording the build and (traced) a separate
    /// pairing-only call on a copy of the same stream.
    pub fn build(&self, seed: u64, t: usize, spans: &mut Spans) -> Result<Graph, String> {
        let mut rng = rng_for(self.id, seed, TOPOLOGY_STREAM + t as u64);
        if spans.on {
            let (n, d) = (
                self.spec.graph.node_count(),
                self.spec.graph.target_degree(),
            );
            let mut copy = rng.clone();
            spans
                .time(Layer::Pairing, || gen::configuration_model(n, d, &mut copy))
                .map_err(|e| e.to_string())?;
        }
        spans.time(Layer::Build, || self.spec.graph.build(&mut rng))
    }
}

/// A timed call site: the layers the traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `GraphSpec::build` (`gen::random_regular` / `gen::configuration_model`).
    Build,
    /// `gen::configuration_model` alone, on a copy of the build's stream.
    Pairing,
    /// `Overlay::from_graph`.
    Overlay,
    /// Engine `new` plus `FaultState::new`/`set_faults`.
    Init,
    /// Engine `step` (`run_to_completion` on the async engine).
    Step,
    /// Engine `finished`.
    Finished,
    /// Engine `into_report`.
    Report,
    /// `ChurnProcess::step` plus `Overlay::rewire`.
    Churn,
    /// Engine `apply_joins`/`apply_leaves`/`apply_rejoins`.
    Census,
}

const LAYERS: usize = 9;

/// Per-layer accumulators of a run. With `on == false` nothing reads the
/// clock; the counters and probes below are only filled in traced runs.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Whether this run is traced.
    pub on: bool,
    /// Total time per [`Layer`].
    pub total: [Duration; LAYERS],
    /// Calls per [`Layer`].
    pub calls: [u64; LAYERS],
    /// Engine phase totals from the attached [`PhaseTimings`].
    pub phases: [Duration; StepPhase::COUNT],
    /// Rounds, and below the other counter totals, from the attached
    /// [`PhaseTimings`].
    pub rounds: u64,
    /// Channels opened.
    pub channels: u64,
    /// Push transmissions (single-rumour engine).
    pub push_tx: u64,
    /// Pull transmissions (single-rumour engine).
    pub pull_tx: u64,
    /// All transmissions.
    pub tx: u64,
    /// Channel-target draws skipped by the capability gate.
    pub skipped_draws: u64,
    /// Nodes newly informed.
    pub newly_informed: u64,
    /// Async engine events (fires + deliveries).
    pub events: u64,
    /// Churn events applied.
    pub joins: u64,
    /// Churn leaves applied.
    pub leaves: u64,
    /// Churn slot recycles applied.
    pub rejoins: u64,
}

impl Spans {
    /// Accumulators for a traced (`on`) or untraced run.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Runs `f`, charging its wall time to `layer` when tracing.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.total[layer as usize] += start.elapsed();
        self.calls[layer as usize] += 1;
        out
    }

    /// Total milliseconds charged to `layer`.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.total[layer as usize].as_secs_f64() * 1e3
    }

    /// Calls charged to `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    fn probe(&self) -> Option<rrb_engine::BoxedProbe> {
        self.on
            .then(|| Box::new(PhaseTimings::new()) as rrb_engine::BoxedProbe)
    }

    fn absorb(&mut self, probe: Option<rrb_engine::BoxedProbe>) {
        let Some(probe) = probe else { return };
        let t = probe
            .as_any()
            .downcast_ref::<PhaseTimings>()
            .expect("probe is PhaseTimings");
        for phase in StepPhase::ALL {
            self.phases[phase.index()] += t.total(phase);
        }
        self.rounds += u64::from(t.rounds());
        self.channels += t.channels();
        self.push_tx += t.push_tx();
        self.pull_tx += t.pull_tx();
        self.tx += t.tx();
        self.skipped_draws += t.skipped_draws();
        self.newly_informed += t.newly_informed();
    }

    /// Milliseconds of every leaf layer of a broadcast: engine phases,
    /// `finished`, `into_report`, churn and census calls.
    pub fn attributed_ms(&self) -> f64 {
        let phases: f64 = self.phases.iter().map(|d| d.as_secs_f64() * 1e3).sum();
        phases
            + self.ms(Layer::Finished)
            + self.ms(Layer::Report)
            + self.ms(Layer::Churn)
            + self.ms(Layer::Census)
    }
}

/// A broadcast's engine state, built before its first round.
// At most two exist at a time, so the variants' size difference is moot.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// Single-rumour round engine.
    Single {
        sim: SimState<AnyProtocol>,
        rng: SmallRng,
    },
    /// Multi-rumour round engine over its own churning overlay.
    Multi {
        sim: MultiSimState<AnyProtocol>,
        overlay: Overlay,
        process: ChurnProcess,
        rng: SmallRng,
    },
    /// Event-queue engine.
    Async {
        sim: AsyncSimState<AnyProtocol>,
        rng: SmallRng,
    },
}

/// The deterministic result of one broadcast, compared exactly across
/// repeats and between the traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Digest {
    /// Single-rumour and async engines (async adds its event count).
    Run(RunReport, u64),
    /// Multi-rumour engine: report without the delivery table, its FNV-1a
    /// hash, and the final survivor census.
    Multi(MultiRumorReport, u64, usize),
}

/// One broadcast's timing and the statistics the benchmark reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time from the first `finished`/`step` call to `into_report`, as
    /// [`Laps`] in milliseconds. Repeats of a broadcast have equal lengths.
    pub laps_ms: Vec<f64>,
    /// Σ alive slots × rounds.
    pub node_rounds: f64,
    /// Transmissions per node (per rumour on the multi-rumour path).
    pub tx_per_node: f64,
    /// Mean `full_coverage_at` (rumour latency on the multi-rumour path).
    pub rounds_to_coverage: f64,
    /// Final coverage (survivor coverage under churn).
    pub coverage: f64,
    /// Rumours that started, and of those the ones that reached full
    /// coverage (1 and 1 for a covered single-rumour broadcast).
    pub started: usize,
    /// See `started`.
    pub covered: usize,
    /// Exact result, for repeat and trace-invariance checks.
    pub digest: Digest,
}

impl Outcome {
    /// The broadcast's wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.laps_ms.iter().sum()
    }
}

/// Wall-clock laps of one broadcast: one per round of a round engine, then
/// one for the final `finished` check and `into_report`. The async engine's
/// run is a single call, so its broadcast is a single lap.
pub struct Laps {
    last: Instant,
    ms: Vec<f64>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            last: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// Closes the current lap.
    fn lap(&mut self) {
        let now = Instant::now();
        self.ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
    }

    /// Closes the last lap: the final `finished` check and `into_report`.
    fn finish(mut self) -> Vec<f64> {
        self.lap();
        self.ms
    }
}

impl Workload {
    /// Builds the engine state of broadcast `b` on `graph`: origin draws,
    /// overlay wrap, engine and fault-state init.
    pub fn prepare(
        &self,
        graph: &Graph,
        proto: &AnyProtocol,
        seed: u64,
        b: usize,
        spans: &mut Spans,
    ) -> Prepared {
        let mut rng = rng_for(self.id, seed, b as u64);
        let n = graph.node_count();
        match self.kind {
            Kind::Single => {
                let origin = random_alive(graph, &mut rng);
                let mut sim = spans.time(Layer::Init, || SimState::new(proto, n, origin));
                sim.set_probe(spans.probe());
                Prepared::Single { sim, rng }
            }
            Kind::Async => {
                let origin = random_alive(graph, &mut rng);
                let TimingSpec::Async { clock, latency } = self.spec.timing else {
                    unreachable!("async workload has async timing")
                };
                let plan = self.spec.failures.to_plan();
                let fault_seed: u64 = rng_for(self.id, seed, FAULT_STREAM ^ b as u64).gen();
                let mut sim = spans.time(Layer::Init, || {
                    let mut sim = AsyncSimState::new(proto, n, origin, clock, latency);
                    sim.set_faults(Some(FaultState::new(&plan, n, fault_seed)));
                    sim
                });
                sim.set_probe(spans.probe());
                Prepared::Async { sim, rng }
            }
            Kind::MultiChurn => {
                let DynamicsSpec::Churn(churn) = self.spec.dynamics else {
                    unreachable!("churn workload has churn dynamics")
                };
                let d = self.spec.graph.target_degree();
                let overlay = spans.time(Layer::Overlay, || {
                    Overlay::from_graph(graph, d).with_slot_reuse(true)
                });
                let injections: Vec<RumorInjection> = (0..self.rumours)
                    .map(|r| RumorInjection {
                        birth: r as Round * self.stagger,
                        origin: random_alive(&overlay, &mut rng),
                    })
                    .collect();
                let mut sim = spans.time(Layer::Init, || {
                    MultiSimState::new(proto, &overlay, &injections)
                });
                sim.set_probe(spans.probe());
                Prepared::Multi {
                    sim,
                    overlay,
                    process: churn.to_process(n),
                    rng,
                }
            }
        }
    }

    /// Runs a prepared broadcast to its stop condition and finalises it.
    pub fn run(
        &self,
        graph: &Graph,
        proto: &AnyProtocol,
        prepared: Prepared,
        spans: &mut Spans,
    ) -> Outcome {
        let config: SimConfig = self.spec.sim_config();
        match prepared {
            Prepared::Single { mut sim, mut rng } => {
                let mut laps = Laps::start();
                while !spans.time(Layer::Finished, || sim.finished(graph, proto, config)) {
                    spans.time(Layer::Step, || sim.step(graph, proto, config, &mut rng));
                    laps.lap();
                }
                let probe = sim.take_probe();
                let report = spans.time(Layer::Report, || sim.into_report(graph, config));
                let laps = laps.finish();
                spans.absorb(probe);
                single_outcome(laps, report, 0)
            }
            Prepared::Async { mut sim, mut rng } => {
                let laps = Laps::start();
                spans.time(Layer::Step, || {
                    sim.run_to_completion(graph, proto, config, &mut rng)
                });
                let events = sim.events_processed();
                let probe = sim.take_probe();
                let report = spans.time(Layer::Report, || sim.into_report(graph, config));
                let laps = laps.finish();
                spans.absorb(probe);
                spans.events += events;
                single_outcome(laps, report, events)
            }
            Prepared::Multi {
                mut sim,
                mut overlay,
                mut process,
                mut rng,
            } => {
                let rewire = match self.spec.dynamics {
                    DynamicsSpec::Churn(c) => c.rewire_per_round,
                    DynamicsSpec::Static => 0,
                };
                let mut node_rounds = 0.0;
                let (mut joins, mut leaves, mut rejoins) = (0, 0, 0);
                let mut laps = Laps::start();
                while !spans.time(Layer::Finished, || sim.finished(proto, config)) {
                    spans.time(Layer::Step, || sim.step(&overlay, proto, config, &mut rng));
                    node_rounds += overlay.alive_count() as f64;
                    let events = spans.time(Layer::Churn, || {
                        let events = process.step(&mut overlay, &mut rng).expect("churn step");
                        overlay.rewire(rewire, &mut rng);
                        events
                    });
                    spans.time(Layer::Census, || {
                        sim.apply_joins(proto, &events.joined);
                        sim.apply_leaves(&events.left);
                        sim.apply_rejoins(proto, &events.rejoined);
                    });
                    joins += events.joined.len() as u64;
                    leaves += events.left.len() as u64;
                    rejoins += events.rejoined.len() as u64;
                    laps.lap();
                }
                let final_alive = sim.effective_alive();
                let probe = sim.take_probe();
                let mut report = spans.time(Layer::Report, || sim.into_report());
                let laps = laps.finish();
                spans.absorb(probe);
                spans.joins += joins;
                spans.leaves += leaves;
                spans.rejoins += rejoins;
                multi_outcome(
                    self.round_cap(),
                    laps,
                    node_rounds,
                    &mut report,
                    final_alive,
                )
            }
        }
    }

    /// Checks one broadcast's result against what the workload guarantees.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        let cap = self.round_cap();
        match &outcome.digest {
            Digest::Run(report, _) => {
                if !report.all_informed() || report.full_coverage_at.is_none() {
                    return Err(format!(
                        "{}: coverage {} (full coverage at {:?})",
                        self.name,
                        report.coverage(),
                        report.full_coverage_at
                    ));
                }
                if report.rounds >= cap || report.total_tx() == 0 {
                    return Err(format!("{}: implausible report {report:?}", self.name));
                }
            }
            Digest::Multi(report, _, final_alive) => {
                if report.outcomes.len() != self.rumours || report.rounds >= cap {
                    return Err(format!(
                        "{}: {} rumours in {} rounds",
                        self.name,
                        report.outcomes.len(),
                        report.rounds
                    ));
                }
                // Joiners arrive uninformed every round, so survivor coverage
                // sits just below 1; a rumour that stalls falls far below.
                // A rumour never transmitted was lost at its origin, which
                // left the overlay before the rumour's birth round.
                for o in report.outcomes.iter().filter(|o| o.tx > 0) {
                    let cov = o.informed as f64 / *final_alive as f64;
                    if cov < 0.95 {
                        return Err(format!(
                            "{}: rumour from {:?} reached {cov}",
                            self.name, o.origin
                        ));
                    }
                }
                if report.outcomes.iter().any(|o| o.tx == 0 && o.informed > 0) {
                    return Err(format!("{}: a silent rumour informed survivors", self.name));
                }
            }
        }
        if outcome.node_rounds <= 0.0 || outcome.tx_per_node <= 0.0 {
            return Err(format!("{}: empty broadcast", self.name));
        }
        Ok(())
    }
}

fn random_alive<T: Topology, R: Rng + ?Sized>(topo: &T, rng: &mut R) -> NodeId {
    loop {
        let v = NodeId::new(rng.gen_range(0..topo.node_count()));
        if topo.is_alive(v) {
            return v;
        }
    }
}

fn single_outcome(laps_ms: Vec<f64>, report: RunReport, events: u64) -> Outcome {
    Outcome {
        laps_ms,
        node_rounds: report.alive_count as f64 * f64::from(report.rounds),
        tx_per_node: report.tx_per_node(),
        rounds_to_coverage: report.full_coverage_at.map_or(f64::NAN, f64::from),
        coverage: report.coverage(),
        started: 1,
        covered: usize::from(report.full_coverage_at.is_some()),
        digest: Digest::Run(report, events),
    }
}

fn multi_outcome(
    cap: Round,
    laps_ms: Vec<f64>,
    node_rounds: f64,
    report: &mut MultiRumorReport,
    final_alive: usize,
) -> Outcome {
    // Statistics cover the rumours that started: one whose origin left
    // before its birth round is never transmitted.
    let started: Vec<&RumorOutcome> = report.outcomes.iter().filter(|o| o.tx > 0).collect();
    let rumours = started.len() as f64;
    let alive = final_alive.max(1) as f64;
    // A started rumour that never reaches full coverage counts at the
    // round cap, so a regression that strands rumours cannot lower the mean.
    let latency = |o: &&RumorOutcome| o.latency().unwrap_or(cap);
    let rounds_to_coverage = started.iter().map(latency).map(f64::from).sum::<f64>() / rumours;
    let covered = started.iter().filter(|o| o.latency().is_some()).count();
    let coverage = started
        .iter()
        .map(|o| o.informed as f64 / alive)
        .sum::<f64>()
        / rumours;
    let tx_per_node = started.iter().map(|o| o.tx as f64).sum::<f64>() / rumours / alive;
    // The delivery table is n × rumours; compare it by hash.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in std::mem::take(&mut report.deliveries) {
        for cell in row {
            let word = cell.map_or(u64::MAX, u64::from);
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    Outcome {
        laps_ms,
        node_rounds,
        tx_per_node,
        rounds_to_coverage,
        coverage,
        started: started.len(),
        covered,
        digest: Digest::Multi(report.clone(), h, final_alive),
    }
}
