//! The three workloads: set-up, correctness checks, timed launches and
//! the traced run's per-layer readout.
//!
//! Every workload is a closed loop with one caller: the next launch is
//! issued when the previous one returns. Each layer is timed from outside,
//! around the call into its public function; the traced run additionally
//! reads the engine's own `SimRun::profile` phases and counters.

use crate::digest;
use crate::host;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{self, Tail};
use crate::trace::{SpanId, Tracer};
use avfs_atpg::timing_aware::{collect_pairs, generate_timing_aware};
use avfs_atpg::{k_longest_paths, PatternSet};
use avfs_bench::{activity_patterns, used_cells};
use avfs_circuits::CircuitProfile;
use avfs_core::phases;
use avfs_core::scenario::{cross_schedules, MonteCarlo, ScenarioSpec, Schedule};
use avfs_core::sta::CrossCheckOptions;
use avfs_core::{
    slots, BatchRunner, CompileKey, CompiledNetlist, EventDrivenSimulator, Profile, Session,
    SimError, SimOptions, SimRun, SlotSpec, VariationConfig,
};
use avfs_delay::characterize::{characterize_library_metered, CharacterizationConfig};
use avfs_delay::model::DelayModel;
use avfs_delay::op::OperatingPoint;
use avfs_delay::{CharacterizedLibrary, StaticModel, TimingAnnotation};
use avfs_netlist::library::Polarity;
use avfs_netlist::{CellId, CellLibrary, Levelization, Netlist};
use avfs_obs::{Json, Metrics};
use avfs_spice::{sweep::sweep_pin, SweepConfig, Technology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supply of the event-driven baseline, the STA-checked static runs and
/// `resim`, and the nominal supply of characterization, V.
const NOMINAL_V: f64 = 0.8;
/// The `sweep` voltage axis: eight points across the characterized
/// 0.55–1.1 V range (Table II).
const SWEEP_VOLTAGES: [f64; 8] = [0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0, 1.1];
/// Nominal supplies of the `mc_droop` droop schedules, V.
const DROOP_VOLTAGES: [f64; 6] = [0.6, 0.65, 0.7, 0.75, 0.8, 0.9];
/// Depth of each droop below its nominal supply, V.
const DROOP_DEPTH: f64 = 0.05;
/// Relative sigma of the Monte Carlo per-pin delay derate.
const MC_SIGMA: f64 = 0.05;
/// Capture deadline margin over the nominal static run's latest arrival.
const DEADLINE_MARGIN: f64 = 1.05;
/// Launch–capture bit-flip probability of `resim` stimuli.
const RESIM_ACTIVITY: f64 = 0.1;
/// Pattern pairs per `resim` launch (one slot each at the nominal supply).
const RESIM_PAIRS: usize = 2;
/// Share of the measured time spent on engine launches; the rest times
/// the event-driven baseline. The baseline gets a large share because
/// its serial, pointer-chasing runs slow down more than the engine when
/// the host is busy, so its median needs more host states to settle.
const ENGINE_SHARE: f64 = 0.6;
/// How far below its share of the measured time a kind may end.
const SHARE_SLACK: f64 = 0.05;
/// Length of one block of same-kind calls in the measurement loop.
const BLOCK: Duration = Duration::from_millis(250);
/// Engine launches and baseline runs timed at least, however long they
/// take, so every median has several samples.
const MIN_TIMED: usize = 3;
/// Untimed warm-up for `resim`, so the parked pool, allocator and delay
/// table cache are in their steady state before timing.
const RESIM_WARMUP: Duration = Duration::from_millis(1500);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I/II voltage sweep: ~96 pattern pairs × 8 supplies per
    /// launch, plus the event-driven baseline on the same pairs.
    Sweep,
    /// Droop schedules × Monte Carlo dice against a capture deadline,
    /// yielding a p_fail-vs-V curve per launch.
    McDroop,
    /// Many tiny re-simulation launches through a warm `BatchRunner`.
    Resim,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::McDroop, Workload::Resim];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::McDroop => "mc_droop",
            Workload::Resim => "resim",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated circuit.
#[derive(Debug, Clone, Copy)]
pub enum Circuit {
    /// A paper profile synthesized at a scale of its node count.
    Profile {
        /// Profile name in `avfs_circuits::PAPER_PROFILES`.
        name: &'static str,
        /// Scale factor of the profile's node count.
        scale: f64,
    },
    /// A ripple-carry adder (for the package's own quick tests).
    Adder {
        /// Adder width.
        bits: usize,
    },
}

impl Circuit {
    fn build(&self, library: &Arc<CellLibrary>) -> Result<Netlist, String> {
        match self {
            Circuit::Profile { name, scale } => CircuitProfile::find(name)
                .ok_or_else(|| format!("unknown circuit profile {name}"))?
                .synthesize(*scale, library)
                .map_err(|e| e.to_string()),
            Circuit::Adder { bits } => {
                avfs_circuits::ripple_carry_adder(*bits, library).map_err(|e| e.to_string())
            }
        }
    }

    /// Whether timing-aware top-off pairs apply (not for designs whose
    /// longest paths are all false paths).
    fn timing_aware(&self) -> bool {
        match self {
            Circuit::Profile { name, .. } => {
                CircuitProfile::find(name).is_some_and(|p| !p.false_paths_only)
            }
            Circuit::Adder { .. } => true,
        }
    }
}

/// Problem sizes of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct Size {
    /// The simulated circuit.
    pub circuit: Circuit,
    /// Characterization sweep and fit settings.
    pub characterization: CharacterizationConfig,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
    /// Pseudo-random pairs of the `sweep` recipe before timing-aware
    /// top-off.
    pub sweep_random_pairs: usize,
    /// LFSR pattern pairs of `mc_droop`.
    pub mc_pairs: usize,
    /// Monte Carlo dice per `mc_droop` scenario.
    pub mc_dice: usize,
    /// Distinct stimulus sets `resim` cycles through.
    pub resim_pool: usize,
}

impl Size {
    /// The benchmark proper: p951k at 1 % of its node count (10,904
    /// nodes, 46 levels) on the paper's characterization sweep.
    pub fn paper() -> Size {
        Size {
            circuit: Circuit::Profile {
                name: "p951k",
                scale: 0.01,
            },
            characterization: CharacterizationConfig::default(),
            setups: 3,
            sweep_random_pairs: 48,
            mc_pairs: 8,
            mc_dice: 8,
            resim_pool: 64,
        }
    }

    /// A seconds-long configuration on an 8-bit adder with the coarse
    /// characterization sweep, for the package's own tests.
    pub fn tiny() -> Size {
        Size {
            circuit: Circuit::Adder { bits: 8 },
            characterization: CharacterizationConfig::fast(),
            setups: 1,
            sweep_random_pairs: 4,
            mc_pairs: 2,
            mc_dice: 2,
            resim_pool: 3,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Engine worker threads.
    pub threads: usize,
    /// Problem sizes.
    pub size: Size,
}

/// What one invocation produced.
#[derive(Debug)]
pub struct RunResult {
    /// Human-readable report lines (provenance, checks, metrics).
    pub log: Vec<String>,
    /// The machine-readable verdict and metrics.
    pub outcome: Outcome,
    /// Chrome trace-event document (traced runs only).
    pub trace: Option<Json>,
    /// Per-layer metrics and per-span self times (traced runs only).
    pub layers: Option<Json>,
}

/// The generated inputs of one workload, as the simulator receives them.
enum Plan {
    Sweep {
        patterns: PatternSet,
        slots: Vec<SlotSpec>,
    },
    McDroop {
        patterns: PatternSet,
        scenarios: Vec<ScenarioSpec>,
        mc: MonteCarlo,
        deadline_ps: f64,
    },
    Resim {
        pool: Vec<PatternSet>,
        slots: Vec<SlotSpec>,
    },
}

impl Plan {
    /// Stimulus sets launches cycle through (one except for `resim`).
    fn entries(&self) -> usize {
        match self {
            Plan::Resim { pool, .. } => pool.len(),
            _ => 1,
        }
    }

    /// Patterns and nominal-supply slots the event-driven baseline runs
    /// for entry `i`.
    fn baseline_inputs(&self, i: usize) -> (&PatternSet, Vec<SlotSpec>) {
        let patterns = match self {
            Plan::Sweep { patterns, .. } | Plan::McDroop { patterns, .. } => patterns,
            Plan::Resim { pool, .. } => &pool[i % pool.len()],
        };
        (patterns, slots::at_voltage(patterns.len(), NOMINAL_V))
    }
}

/// How launches reach the engine.
enum Exec {
    Session(Session),
    Batch {
        runner: Box<BatchRunner>,
        key: CompileKey,
    },
}

/// Per-layer set-up times of one repetition, ms.
#[derive(Debug, Clone, Default)]
struct SetupTimes {
    total_s: f64,
    synthesize: f64,
    characterize: f64,
    annotate: f64,
    patterns: f64,
    compile: f64,
    pool_spawn: f64,
    spice_sweep: f64,
    transient_points: f64,
    fit: f64,
    fits: f64,
}

/// Everything set-up builds.
struct Built {
    netlist: Arc<Netlist>,
    chars: Arc<CharacterizedLibrary>,
    annotation: Arc<TimingAnnotation>,
    compiled: Arc<CompiledNetlist>,
    exec: Exec,
    cells: Vec<CellId>,
}

/// Patterns generated at set-up (the `mc_droop` scenarios need the
/// simulator's nominal run for their deadline, so they follow set-up).
enum Patterns {
    Sweep(PatternSet),
    McDroop(PatternSet),
    Resim(Vec<PatternSet>),
}

/// One timed call.
struct Sample {
    wall: Duration,
    evals: u64,
    /// Profile, slot count and arena peak of a traced engine launch.
    detail: Option<(Profile, usize, usize)>,
}

/// Failure accounting shared by every check, and the run's report lines.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    log: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, problem: String) {
        self.fail_n(1, problem);
    }

    fn fail_n(&mut self, n: u64, problem: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Accounts one engine launch of `expected_slots` slots against the
    /// reference digest; returns the run when it completed.
    fn launch(
        &mut self,
        what: &str,
        result: Result<SimRun, SimError>,
        expected_slots: usize,
        reference: u64,
    ) -> Option<SimRun> {
        self.attempted += expected_slots as u64;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.fail(format!("{what}: launch failed: {e}"));
                return None;
            }
        };
        let not_ok = run
            .slots
            .iter()
            .filter(|s| !s.status.is_completed())
            .count();
        if not_ok > 0 {
            self.fail_n(
                not_ok as u64,
                format!("{what}: {not_ok} slot(s) did not complete"),
            );
        }
        let got = digest::slots(&run.slots);
        if got != reference {
            self.fail(format!(
                "{what}: digest {got:#018x} differs from reference {reference:#018x}"
            ));
        }
        Some(run)
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// A set-up step that fails outright (synthesis, characterization,
/// compile); failures of launches and checks are counted in the outcome
/// instead.
pub fn run(config: &Config) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(config.trace);
    let mut ledger = Ledger::default();
    let size = &config.size;
    let library = CellLibrary::nangate15_like();

    // Set-up, repeated; the last repetition's products are used.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..size.setups.max(1) {
        drop(built.take());
        let (b, patterns, times) = setup(config, &library, &mut tracer)?;
        setups.push(times);
        built = Some((b, patterns));
    }
    let (mut built, patterns) = built.expect("at least one set-up ran");
    let setup_s = median_of(&setups, |t| t.total_s);

    let shape = avfs_netlist::NetlistStats::of(&built.netlist);
    let opts = SimOptions {
        threads: config.threads,
        ..SimOptions::default()
    };
    ledger.log.push(format!(
        "circuit: {} ({} nodes, {} gates, {} levels)",
        built.netlist.name(),
        shape.nodes,
        shape.gates,
        shape.depth
    ));

    // Held-out accuracy of the fitted delay model against SPICE.
    let id = tracer.begin("check.holdout", None);
    let holdout = holdout_error(&library, &size.characterization, &built.cells, &built.chars);
    tracer.end(id);
    let (holdout_pct, holdout_points) = match holdout {
        Ok(h) => h,
        Err(e) => {
            ledger.fail(format!("held-out accuracy: {e}"));
            (f64::NAN, 0)
        }
    };
    ledger.log.push(format!(
        "check holdout: max |model/SPICE - 1| = {holdout_pct:.4} % over {holdout_points} off-grid points"
    ));

    // Workload inputs that depend on a simulation, the independent
    // reference, and the oracle checks.
    let mut crosscheck_ms = 0.0;
    let plan = make_plan(
        config,
        patterns,
        &mut built,
        &opts,
        &mut tracer,
        &mut ledger,
        &mut crosscheck_ms,
    );
    let references = reference_digests(&built, &plan, &mut tracer, &mut ledger);
    if let Plan::Sweep { patterns, .. } = &plan {
        static_model_matches_event_driven(
            &built,
            patterns,
            config.threads,
            &mut tracer,
            &mut ledger,
        );
    }
    let ed = EventDrivenSimulator::new(Arc::clone(&built.netlist), Arc::clone(&built.annotation))
        .map_err(|e| format!("event-driven baseline: {e}"))?;

    // Warm-up: fills the per-voltage delay-table cache (`sweep`, `resim`)
    // and, for `resim`, lets the short launches reach their steady state.
    // `mc_droop` has nothing to warm: Monte Carlo dice never share a
    // table. Warm-up results are checked like every timed launch, and the
    // first one against the STA bound.
    let mut next_launch = 0u64;
    let (warm_min, warm_for) = match config.workload {
        Workload::Sweep => (1, Duration::ZERO),
        Workload::McDroop => (0, Duration::ZERO),
        Workload::Resim => (plan.entries(), RESIM_WARMUP),
    };
    let warm_start = Instant::now();
    while (next_launch as usize) < warm_min || warm_start.elapsed() < warm_for {
        let (result, _, _) = launch(&mut built, &plan, next_launch, &opts, &mut tracer);
        let i = next_launch as usize % plan.entries();
        let run = ledger.launch("warm-up", result, slot_count(&plan), references[i]);
        if let (0, Some(run)) = (next_launch, run) {
            crosscheck_ms = crosscheck(&built, &run, &mut tracer, &mut ledger);
        }
        next_launch += 1;
    }
    let warm_runs = next_launch;

    // Measurement window.
    let Measured {
        untraced,
        traced,
        baseline,
    } = measure(
        &mut built,
        &plan,
        &references,
        &ed,
        &opts,
        Duration::from_secs_f64(config.seconds),
        config.trace,
        &mut next_launch,
        &mut tracer,
        &mut ledger,
    );

    let launch_ms: Vec<f64> = untraced.iter().map(|s| ms(s.wall)).collect();
    let sim_meps = median_meps(&untraced);
    let ed_meps = median_meps(&baseline);
    let p50 = stats::median(&launch_ms).unwrap_or(f64::NAN);
    let tail = stats::tail(&launch_ms).unwrap_or(Tail {
        value: f64::NAN,
        percentile: 0.0,
        samples: 0,
    });
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;

    ledger.log.push(format!(
        "settings: seed={} threads={} lanes={} setups={} launches={} (+{} traced, {} warm-up) baseline_runs={} seconds={}",
        config.seed,
        config.threads,
        opts.resolved_lanes(),
        setups.len(),
        untraced.len(),
        traced.len(),
        warm_runs,
        baseline.len(),
        config.seconds
    ));
    let (q1, q3) = stats::quartiles(&launch_ms).unwrap_or((p50, p50));
    ledger.log.push(format!(
        "launch ms: q1 {q1:.4}, median {p50:.4}, q3 {q3:.4}; launch_tail_ms is p{} of {} launches",
        tail.percentile, tail.samples
    ));
    ledger.log.push(format!(
        "speedup_vs_ed = {:.3} (sim_meps / ed_meps; reported, not gated)",
        sim_meps / ed_meps
    ));
    ledger.log.push(format!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        ledger.failed, ledger.attempted
    ));
    for p in &ledger.problems {
        ledger.log.push(format!("FAILED: {p}"));
    }

    let correct = ledger.failed == 0;
    if !config.trace {
        let values = [
            ("setup_s", setup_s),
            ("sim_meps", sim_meps),
            ("ed_meps", ed_meps),
            ("launch_p50_ms", p50),
            ("launch_tail_ms", tail.value),
            ("peak_rss_mb", rss),
            ("delay_err_holdout_pct", holdout_pct),
        ];
        let outcome = Outcome::new(
            correct,
            ledger.attempted,
            ledger.failed,
            END_TO_END,
            &values,
        )?;
        return Ok(RunResult {
            log: ledger.log,
            outcome,
            trace: None,
            layers: None,
        });
    }

    // Traced run: per-layer metrics.
    let gates = shape.gates;
    let lanes = opts.resolved_lanes();
    let traced_meps = median_meps(&traced);
    let mut values: Vec<(&str, f64)> = vec![
        (
            "circuits.synthesize_ms",
            median_of(&setups, |t| t.synthesize),
        ),
        (
            "delay.characterize_ms",
            median_of(&setups, |t| t.characterize),
        ),
        ("spice.sweep_ms", median_of(&setups, |t| t.spice_sweep)),
        (
            "spice.transient_points",
            median_of(&setups, |t| t.transient_points),
        ),
        ("regression.fit_ms", median_of(&setups, |t| t.fit)),
        ("regression.fits", median_of(&setups, |t| t.fits)),
        ("delay.annotate_ms", median_of(&setups, |t| t.annotate)),
        ("atpg.patterns_ms", median_of(&setups, |t| t.patterns)),
        ("core.compile_ms", median_of(&setups, |t| t.compile)),
        ("core.pool_spawn_ms", median_of(&setups, |t| t.pool_spawn)),
        ("sta.crosscheck_ms", crosscheck_ms),
        ("trace.overhead_pct", (sim_meps / traced_meps - 1.0) * 100.0),
    ];
    let (hits, misses) = match &built.exec {
        Exec::Batch { runner, .. } => (runner.compile_hits(), runner.compile_misses()),
        Exec::Session(_) => (0, 0),
    };
    values.push(("batch.compile_hits", hits as f64));
    values.push(("batch.compile_misses", misses as f64));
    let engine = engine_layers(&traced, gates, lanes);
    values.extend(engine.iter().map(|(k, v)| (*k, *v)));
    values.extend(baseline_layers(&baseline));

    let breakdown = launch_breakdown(&traced);
    ledger.log.push(format!(
        "launch self time (traced, median launch): {}",
        breakdown
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let outcome = Outcome::new(correct, ledger.attempted, ledger.failed, PER_LAYER, &values)?;
    let layers = layers_document(config, &outcome, &tracer, &breakdown);
    Ok(RunResult {
        log: ledger.log,
        outcome,
        trace: Some(tracer.chrome_trace()),
        layers: Some(layers),
    })
}

/// One set-up repetition: synthesis, characterization, annotation,
/// pattern generation, compile and pool spawn, each timed and traced.
fn setup(
    config: &Config,
    library: &Arc<CellLibrary>,
    tracer: &mut Tracer,
) -> Result<(Built, Patterns, SetupTimes), String> {
    let size = &config.size;
    let root = tracer.begin("setup", None);
    let start = Instant::now();
    let mut times = SetupTimes::default();

    let (netlist, t) = tracer.time("circuits.synthesize", None, || size.circuit.build(library));
    times.synthesize = ms(t);
    let netlist = Arc::new(netlist?);

    let meters = Metrics::new("characterize");
    let (chars, t) = tracer.time("delay.characterize", None, || {
        let cells = used_cells(&[netlist.as_ref()], library);
        let chars = characterize_library_metered(
            library,
            &Technology::nm15(),
            &size.characterization,
            Some(&cells),
            Some(&meters),
        );
        (cells, chars)
    });
    times.characterize = ms(t);
    let (cells, chars) = chars;
    let chars = Arc::new(chars.map_err(|e| format!("characterization: {e}"))?);
    let profile = meters.snapshot();
    let phase_ms = |p: &str| profile.phase(p).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    times.spice_sweep = phase_ms("spice/sweep");
    times.fit = phase_ms("regression/fit");
    times.transient_points = profile.counter("spice.transient_points").unwrap_or(0) as f64;
    times.fits = profile.counter("regression.fits").unwrap_or(0) as f64;

    let (annotation, t) = tracer.time("delay.annotate", None, || chars.annotate(&netlist));
    times.annotate = ms(t);
    let annotation = Arc::new(annotation.map_err(|e| format!("annotation: {e}"))?);

    let (patterns, t) = tracer.time("atpg.patterns", None, || {
        make_patterns(config, &netlist, &annotation)
    });
    times.patterns = ms(t);

    let model: Arc<dyn DelayModel> = Arc::new(chars.model().clone());
    let compile = || {
        CompiledNetlist::compile(
            Arc::clone(&netlist),
            Arc::clone(&annotation),
            Arc::clone(&model),
        )
    };
    let (compiled, exec) = match config.workload {
        Workload::Resim => {
            let (runner, t) = tracer.time("core.pool_spawn", None, || {
                BatchRunner::new(config.threads, 4)
            });
            times.pool_spawn = ms(t);
            let ((key, compiled), t) = tracer.time("core.compile", None, || {
                let key = CompileKey::of(&netlist, &chars, "tt");
                (key, runner.compile(key, compile))
            });
            times.compile = ms(t);
            let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
            (
                compiled,
                Exec::Batch {
                    runner: Box::new(runner),
                    key,
                },
            )
        }
        _ => {
            let (compiled, t) = tracer.time("core.compile", None, compile);
            times.compile = ms(t);
            let compiled = Arc::new(compiled.map_err(|e| format!("compile: {e}"))?);
            let (session, t) = tracer.time("core.pool_spawn", None, || {
                Session::new(Arc::clone(&compiled), config.threads)
            });
            times.pool_spawn = ms(t);
            (compiled, Exec::Session(session))
        }
    };
    times.total_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    Ok((
        Built {
            netlist,
            chars,
            annotation,
            compiled,
            exec,
            cells,
        },
        patterns,
        times,
    ))
}

/// SplitMix64 finalizer: derives independent per-purpose seeds from the
/// workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the workload's stimuli from the seed.
fn make_patterns(config: &Config, netlist: &Netlist, annotation: &TimingAnnotation) -> Patterns {
    let size = &config.size;
    let width = netlist.inputs().len();
    match config.workload {
        Workload::Sweep => {
            // The `perf_report` recipe: pseudo-random pairs topped off with
            // timing-aware pairs sensitizing the longest paths. Paths the
            // generator fails to sensitize are filled with further random
            // pairs, so every seed launches the same number of slots.
            let count = size.sweep_random_pairs;
            let seed = mix(config.seed, 0xA5F5_0000 ^ netlist.num_nodes() as u64);
            let mut patterns = PatternSet::random(width, count, seed);
            if size.circuit.timing_aware() {
                let levels = Levelization::of(netlist).expect("synthesized netlists are acyclic");
                let k = 200.min(count.max(8));
                let paths = k_longest_paths(netlist, &levels, Some(annotation), k);
                let outcomes = generate_timing_aware(netlist, &levels, &paths, 4, seed ^ 0xFF);
                patterns.extend(collect_pairs(&outcomes).iter().cloned());
                let missing = (2 * count).saturating_sub(patterns.len());
                if missing > 0 {
                    let fill = PatternSet::random(width, missing, seed ^ 0xF111);
                    patterns.extend(fill.iter().cloned());
                }
            }
            Patterns::Sweep(patterns)
        }
        Workload::McDroop => Patterns::McDroop(PatternSet::lfsr(
            width,
            size.mc_pairs,
            mix(config.seed, 0x5CE0),
        )),
        Workload::Resim => Patterns::Resim(
            (0..size.resim_pool)
                .map(|i| {
                    activity_patterns(
                        width,
                        RESIM_PAIRS,
                        RESIM_ACTIVITY,
                        mix(config.seed, 0xBA7C_0000 + i as u64),
                    )
                })
                .collect(),
        ),
    }
}

/// Completes the workload inputs. `mc_droop` derives its capture
/// deadline from a nominal static launch, which is also cross-checked
/// against the STA bound here.
fn make_plan(
    config: &Config,
    patterns: Patterns,
    built: &mut Built,
    opts: &SimOptions,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    crosscheck_ms: &mut f64,
) -> Plan {
    match patterns {
        Patterns::Sweep(patterns) => {
            let slots = slots::cross(patterns.len(), &SWEEP_VOLTAGES);
            ledger.log.push(format!(
                "sweep: {} pairs x {} voltages = {} slots per launch",
                patterns.len(),
                SWEEP_VOLTAGES.len(),
                slots.len()
            ));
            Plan::Sweep { patterns, slots }
        }
        Patterns::Resim(pool) => {
            let slots = slots::at_voltage(RESIM_PAIRS, NOMINAL_V);
            ledger.log.push(format!(
                "resim: {} slots per launch at {NOMINAL_V} V, activity {RESIM_ACTIVITY}, {} stimulus sets",
                slots.len(),
                pool.len()
            ));
            Plan::Resim { pool, slots }
        }
        Patterns::McDroop(patterns) => {
            let nominal_slots = slots::at_voltage(patterns.len(), NOMINAL_V);
            let Exec::Session(session) = &mut built.exec else {
                unreachable!("mc_droop launches through a session")
            };
            let (nominal, _) = tracer.time("core.session_run", None, || {
                session.run(&patterns, &nominal_slots, opts)
            });
            let latest = match &nominal {
                Ok(run) => run.latest_arrival_at(NOMINAL_V),
                Err(e) => {
                    ledger.fail(format!("mc_droop nominal launch failed: {e}"));
                    None
                }
            };
            if let Ok(run) = &nominal {
                *crosscheck_ms = crosscheck(built, run, tracer, ledger);
            }
            let deadline_ps = latest.unwrap_or_else(|| {
                ledger.fail("mc_droop: no output toggles at the nominal supply".to_owned());
                1.0
            }) * DEADLINE_MARGIN;
            let schedules: Vec<Schedule> = DROOP_VOLTAGES
                .iter()
                .map(|&v| Schedule::droop(v, DROOP_DEPTH, deadline_ps * 0.25, deadline_ps * 0.6))
                .collect();
            let scenarios = cross_schedules(patterns.len(), &schedules);
            let mc = MonteCarlo {
                samples: config.size.mc_dice,
                variation: VariationConfig {
                    sigma: MC_SIGMA,
                    max_deviation: 4.0 * MC_SIGMA,
                    seed: mix(config.seed, 0x3901),
                },
            };
            ledger.log.push(format!(
                "mc_droop: {} pairs x {} droop schedules x {} dice = {} slots per launch, deadline {deadline_ps:.3} ps",
                patterns.len(),
                schedules.len(),
                mc.samples,
                scenarios.len() * mc.samples
            ));
            Plan::McDroop {
                patterns,
                scenarios,
                mc,
                deadline_ps,
            }
        }
    }
}

/// Slots per launch.
fn slot_count(plan: &Plan) -> usize {
    match plan {
        Plan::Sweep { slots, .. } | Plan::Resim { slots, .. } => slots.len(),
        Plan::McDroop { scenarios, mc, .. } => scenarios.len() * mc.samples,
    }
}

/// The reference: every stimulus set launched on a separately compiled
/// artifact with 1 thread, lane width 1 and activity gating off. Every
/// timed launch must reproduce its digest bit for bit.
fn reference_digests(
    built: &Built,
    plan: &Plan,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<u64> {
    let id = tracer.begin("check.reference", None);
    let reference = CompiledNetlist::compile(
        Arc::clone(&built.netlist),
        Arc::clone(&built.annotation),
        Arc::new(built.chars.model().clone()),
    );
    let opts = SimOptions {
        threads: 1,
        lanes: 1,
        activity_gating: false,
        ..SimOptions::default()
    };
    let mut digests = Vec::new();
    let mut transitions = 0u64;
    for i in 0..plan.entries() {
        let result = reference
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| match plan {
                Plan::Sweep { patterns, slots } => r.launch(patterns, slots, &opts),
                Plan::McDroop {
                    patterns,
                    scenarios,
                    mc,
                    deadline_ps,
                } => r.launch_scenarios(patterns, scenarios, Some(mc), Some(*deadline_ps), &opts),
                Plan::Resim { pool, slots } => r.launch(&pool[i], slots, &opts),
            });
        match result {
            Ok(run) => {
                let not_ok = run
                    .slots
                    .iter()
                    .filter(|s| !s.status.is_completed())
                    .count();
                if not_ok > 0 {
                    ledger.fail(format!("reference: {not_ok} slot(s) did not complete"));
                }
                digests.push(digest::slots(&run.slots));
                transitions += run
                    .slots
                    .iter()
                    .map(|s| s.activity.total_transitions as u64)
                    .sum::<u64>();
                if i == 0 {
                    log_results(plan, &run, &mut ledger.log);
                }
            }
            Err(e) => {
                ledger.fail(format!("reference launch failed: {e}"));
                digests.push(0);
            }
        }
    }
    tracer.end(id);
    let mut combined = digest::Digest::default();
    for d in &digests {
        combined.word(*d);
    }
    ledger.log.push(format!(
        "digest: {:#018x} (over {} stimulus set(s), {transitions} net transitions)",
        combined.finish(),
        digests.len()
    ));
    digests
}

/// Prints the simulated results two commits must agree on.
fn log_results(plan: &Plan, run: &SimRun, log: &mut Vec<String>) {
    match plan {
        Plan::Sweep { .. } => {
            let row: Vec<String> = SWEEP_VOLTAGES
                .iter()
                .map(|&v| match run.latest_arrival_at(v) {
                    Some(t) => format!("{v} V: {t:.3} ps"),
                    None => format!("{v} V: -"),
                })
                .collect();
            log.push(format!("table2 latest arrival: {}", row.join(", ")));
        }
        Plan::McDroop { .. } => {
            if let Some(summary) = &run.scenario {
                let curve: Vec<String> = summary
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{} V: {}/{} = {:.4}",
                            p.voltage, p.failures, p.samples, p.p_fail
                        )
                    })
                    .collect();
                log.push(format!("p_fail curve: {}", curve.join(", ")));
            }
        }
        Plan::Resim { .. } => {
            let latest: Vec<String> = run
                .slots
                .iter()
                .map(|s| {
                    s.latest_output_transition_ps
                        .map_or("-".to_owned(), |t| format!("{t:.3} ps"))
                })
                .collect();
            log.push(format!("resim set 0 latest arrival: {}", latest.join(", ")));
        }
    }
}

/// Engine waveforms under a static delay model equal the event-driven
/// simulator's waveforms on the nominal-supply column of the sweep.
fn static_model_matches_event_driven(
    built: &Built,
    patterns: &PatternSet,
    threads: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let id = tracer.begin("check.static_vs_event_driven", None);
    let slot_list = slots::at_voltage(patterns.len(), NOMINAL_V);
    let engine = CompiledNetlist::compile(
        Arc::clone(&built.netlist),
        Arc::clone(&built.annotation),
        Arc::new(StaticModel::new(*built.chars.space())),
    )
    .and_then(|c| {
        c.launch(
            patterns,
            &slot_list,
            &SimOptions {
                threads,
                keep_waveforms: true,
                ..SimOptions::default()
            },
        )
    });
    let baseline =
        EventDrivenSimulator::new(Arc::clone(&built.netlist), Arc::clone(&built.annotation))
            .and_then(|ed| ed.run(patterns, &slot_list, true));
    tracer.end(id);
    let (engine, baseline) = match (engine, baseline) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            ledger.fail(format!(
                "static-model check could not run: engine {:?}, baseline {:?}",
                a.err(),
                b.err()
            ));
            return;
        }
    };
    let mismatched = engine
        .slots
        .iter()
        .zip(&baseline.slots)
        .filter(|(a, b)| a.waveforms.is_none() || a.waveforms != b.waveforms)
        .count()
        + engine.slots.len().abs_diff(baseline.slots.len());
    if mismatched > 0 {
        ledger.fail(format!(
            "static-model engine waveforms differ from event-driven in {mismatched} slot(s)"
        ));
    }
    ledger.log.push(format!(
        "check static model == event-driven: {} slots at {NOMINAL_V} V, {mismatched} mismatched",
        slot_list.len()
    ));
}

/// STA oracle: every completed slot's latest arrival stays within the
/// static bound. Returns the check's wall time, ms.
fn crosscheck(built: &Built, run: &SimRun, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
    let circuit = built.netlist.name().to_owned();
    let options = CrossCheckOptions::default();
    let (result, t) = tracer.time("core.crosscheck", None, || match &built.exec {
        Exec::Session(s) => s.crosscheck(run, &circuit, &options),
        Exec::Batch { .. } => avfs_core::sta::crosscheck(&built.compiled, run, &circuit, &options),
    });
    match result {
        Ok(check) => {
            let deny = check.deny_count();
            if deny > 0 {
                ledger.fail_n(
                    deny as u64,
                    format!("STA crosscheck: {deny} deny finding(s)"),
                );
            }
            ledger.log.push(format!(
                "check STA bound: {} slots, {deny} deny findings",
                run.slots.len()
            ));
        }
        Err(e) => ledger.fail(format!("STA crosscheck failed: {e}")),
    }
    ms(t)
}

/// Launches entry `id` of the plan once; returns the result, the wall
/// time around the launch call(s) and the launch span.
fn launch(
    built: &mut Built,
    plan: &Plan,
    id: u64,
    opts: &SimOptions,
    tracer: &mut Tracer,
) -> (Result<SimRun, SimError>, Duration, SpanId) {
    let compiled = &built.compiled;
    match (&mut built.exec, plan) {
        (Exec::Session(session), Plan::Sweep { patterns, slots }) => {
            let span = tracer.begin("core.session_run", Some(id));
            let t0 = Instant::now();
            let out = session.run(patterns, slots, opts);
            let wall = t0.elapsed();
            tracer.end(span);
            (out, wall, span)
        }
        (
            Exec::Session(session),
            Plan::McDroop {
                patterns,
                scenarios,
                mc,
                deadline_ps,
            },
        ) => {
            let span = tracer.begin("core.session_run_scenarios", Some(id));
            let t0 = Instant::now();
            let out =
                session.run_scenarios(patterns, scenarios, Some(mc), Some(*deadline_ps), opts);
            let wall = t0.elapsed();
            tracer.end(span);
            (out, wall, span)
        }
        (Exec::Batch { runner, key }, Plan::Resim { pool, slots }) => {
            let patterns = &pool[id as usize % pool.len()];
            let span = tracer.begin("core.batch_launch", Some(id));
            let t0 = Instant::now();
            let inner = tracer.begin("core.batch_compile", Some(id));
            let artifact = runner.compile(*key, || {
                CompiledNetlist::compile(
                    Arc::clone(compiled.netlist()),
                    Arc::clone(compiled.annotation()),
                    Arc::clone(compiled.model()),
                )
            });
            tracer.end(inner);
            let out = artifact.and_then(|artifact| {
                let inner = tracer.begin("core.batch_run", Some(id));
                let out = runner.run(&artifact, patterns, slots, opts);
                tracer.end(inner);
                out
            });
            let wall = t0.elapsed();
            tracer.end(span);
            (out, wall, span)
        }
        _ => unreachable!("each workload pairs one plan with one launcher"),
    }
}

/// The samples of one measurement window.
struct Measured {
    /// Engine launches without profiling.
    untraced: Vec<Sample>,
    /// Engine launches with profiling (traced runs only).
    traced: Vec<Sample>,
    /// Event-driven baseline runs.
    baseline: Vec<Sample>,
}

/// Kinds of timed call the measurement loop interleaves.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Untraced,
    Traced,
    Baseline,
}

/// Times engine launches and baseline runs for `window`, interleaved in
/// blocks of [`BLOCK`] so that both sample the same host conditions while
/// launches within a block still run back to back. Each block goes to the
/// kind furthest below its share of the time spent so far: the engine
/// [`ENGINE_SHARE`] (split evenly between untraced and profiled launches
/// in a traced run), the baseline the rest. Each kind runs at least
/// [`MIN_TIMED`] times, and the window is extended until every kind is
/// within [`SHARE_SLACK`] of its share. Every engine launch is checked against its
/// reference digest, and every baseline run of one stimulus set must
/// repeat the first.
#[allow(clippy::too_many_arguments)]
fn measure(
    built: &mut Built,
    plan: &Plan,
    references: &[u64],
    ed: &EventDrivenSimulator,
    opts: &SimOptions,
    window: Duration,
    trace: bool,
    next_launch: &mut u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Measured {
    let profiled = SimOptions {
        profiling: true,
        ..opts.clone()
    };
    let shares: Vec<(Kind, f64)> = if trace {
        vec![
            (Kind::Untraced, ENGINE_SHARE / 2.0),
            (Kind::Traced, ENGINE_SHARE / 2.0),
            (Kind::Baseline, 1.0 - ENGINE_SHARE),
        ]
    } else {
        vec![
            (Kind::Untraced, ENGINE_SHARE),
            (Kind::Baseline, 1.0 - ENGINE_SHARE),
        ]
    };
    let mut spent = vec![Duration::ZERO; shares.len()];
    let mut out = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
        baseline: Vec::new(),
    };
    let mut baseline_digests: Vec<Option<u64>> = vec![None; plan.entries()];
    let expected = slot_count(plan);
    let start = Instant::now();
    let mut block: Option<(usize, Instant)> = None;
    let mut failed_calls = 0usize;
    loop {
        let count = |k: Kind, m: &Measured| match k {
            Kind::Untraced => m.untraced.len(),
            Kind::Traced => m.traced.len(),
            Kind::Baseline => m.baseline.len(),
        };
        let short: Vec<usize> = (0..shares.len())
            .filter(|&i| count(shares[i].0, &out) < MIN_TIMED)
            .collect();
        let total = spent.iter().sum::<Duration>().as_secs_f64().max(1e-9);
        let lag = |i: usize| spent[i].as_secs_f64() / total - shares[i].1;
        let balanced = (0..shares.len()).all(|i| lag(i) >= -SHARE_SLACK);
        // A kind whose calls keep failing cannot reach its minimum; the
        // failures are on the ledger, so stop at four windows.
        let elapsed = start.elapsed();
        let given_up = failed_calls > 0 && elapsed >= window * 4;
        if elapsed >= window && ((short.is_empty() && balanced) || given_up) {
            break;
        }
        // Kinds still short of their minimum go first, but interleaved
        // by share like the rest, so that no kind is timed only at the
        // end of the window.
        let candidates: Vec<usize> = if short.is_empty() {
            (0..shares.len()).collect()
        } else {
            short
        };
        let pick = match block {
            Some((k, since)) if since.elapsed() < BLOCK && candidates.contains(&k) => k,
            _ => {
                let k = *candidates
                    .iter()
                    .min_by(|&&a, &&b| lag(a).total_cmp(&lag(b)))
                    .expect("at least one candidate");
                block = Some((k, Instant::now()));
                k
            }
        };
        let id = *next_launch;
        *next_launch += 1;
        let kind = shares[pick].0;
        let sample = if kind == Kind::Baseline {
            let entry = out.baseline.len() % plan.entries();
            let (patterns, slot_list) = plan.baseline_inputs(entry);
            let (result, wall) = tracer.time("core.event_driven_run", Some(id), || {
                ed.run_profiled(patterns, &slot_list, false, trace)
            });
            ledger.attempted += slot_list.len() as u64;
            match result {
                Ok(run) => {
                    let d = digest::slots(&run.slots);
                    if *baseline_digests[entry].get_or_insert(d) != d {
                        ledger.fail("event-driven results differ between repeats".to_owned());
                    }
                    Some(Sample {
                        wall,
                        evals: run.node_evaluations,
                        detail: run.profile.map(|p| (p, run.slots.len(), 0)),
                    })
                }
                Err(e) => {
                    ledger.fail(format!("event-driven run failed: {e}"));
                    None
                }
            }
        } else {
            let options = if kind == Kind::Traced {
                &profiled
            } else {
                opts
            };
            let (result, wall, span) = launch(built, plan, id, options, tracer);
            let reference = references[id as usize % references.len()];
            ledger
                .launch("timed launch", result, expected, reference)
                .map(|run| {
                    if let Some(profile) = &run.profile {
                        for phase in &profile.phases {
                            tracer.arg(span, &phase.path, phase.total_ns as f64 / 1e6);
                        }
                    }
                    Sample {
                        wall,
                        evals: run.node_evaluations,
                        detail: run
                            .profile
                            .map(|p| (p, run.slots.len(), run.diagnostics.peak_arena_occupancy)),
                    }
                })
        };
        let Some(sample) = sample else {
            failed_calls += 1;
            continue;
        };
        spent[pick] += sample.wall;
        match kind {
            Kind::Untraced => out.untraced.push(sample),
            Kind::Traced => out.traced.push(sample),
            Kind::Baseline => out.baseline.push(sample),
        }
    }
    out
}

/// Held-out accuracy of the fitted delay model: the largest relative
/// error of `PolynomialModel::factor` against fresh SPICE sweeps at
/// (V, C) midpoints off the characterization grid, over every pin and
/// polarity of the `cells`. Returns `(error %, points compared)`.
///
/// The held-out grid takes three voltage and three load intervals (the
/// first, a middle and the last) so its SPICE cost stays near a tenth of
/// one characterization.
fn holdout_error(
    library: &CellLibrary,
    config: &CharacterizationConfig,
    cells: &[CellId],
    chars: &CharacterizedLibrary,
) -> Result<(f64, usize), String> {
    let grid = &config.sweep;
    let picks = |n: usize| -> Vec<usize> {
        let mut v = vec![0, (n - 1) / 2, n - 2];
        v.dedup();
        v
    };
    let mut voltages: Vec<f64> = picks(grid.voltages.len())
        .into_iter()
        .map(|i| (grid.voltages[i] + grid.voltages[i + 1]) / 2.0)
        .collect();
    voltages.push(grid.nominal_vdd);
    voltages.sort_by(f64::total_cmp);
    voltages.dedup();
    let loads_ff: Vec<f64> = picks(grid.loads_ff.len())
        .into_iter()
        .map(|i| (grid.loads_ff[i] * grid.loads_ff[i + 1]).sqrt())
        .collect();
    let held_out = SweepConfig {
        voltages,
        loads_ff,
        nominal_vdd: grid.nominal_vdd,
    };
    let nom = held_out
        .voltages
        .iter()
        .position(|&v| v == held_out.nominal_vdd)
        .expect("nominal pushed above");
    let tech = Technology::nm15();
    let model = chars.model();
    let space = chars.space();
    let mut worst = 0.0f64;
    let mut points = 0usize;
    for &cell_id in cells {
        let cell = library.cell(cell_id);
        for pin in 0..cell.num_inputs() {
            for polarity in Polarity::both() {
                let surface =
                    sweep_pin(&tech, cell, pin, polarity, &held_out).map_err(|e| e.to_string())?;
                for (i, &v) in held_out.voltages.iter().enumerate() {
                    if i == nom {
                        continue;
                    }
                    for (j, &c) in held_out.loads_ff.iter().enumerate() {
                        let spice = surface.at(i, j) / surface.at(nom, j);
                        let p = space
                            .normalize(OperatingPoint::new(v, c))
                            .map_err(|e| e.to_string())?;
                        let fitted = model
                            .factor(cell_id, pin, polarity, p)
                            .map_err(|e| e.to_string())?;
                        worst = worst.max((fitted / spice - 1.0).abs());
                        points += 1;
                    }
                }
            }
        }
    }
    Ok((worst * 100.0, points))
}

/// Per-launch engine layer metrics: the median over traced launches of
/// each phase and counter.
fn engine_layers(traced: &[Sample], gates: usize, lanes: usize) -> Vec<(&'static str, f64)> {
    let details: Vec<&(Profile, usize, usize)> =
        traced.iter().filter_map(|s| s.detail.as_ref()).collect();
    let med = |f: &dyn Fn(&Profile, usize, usize) -> f64| {
        let v: Vec<f64> = details.iter().map(|(p, s, a)| f(p, *s, *a)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let phase = |name: &'static str| move |p: &Profile, _: usize, _: usize| phase_ms(p, name);
    let counter = |name: &'static str| move |p: &Profile, _: usize, _: usize| count(p, name) as f64;
    vec![
        ("engine.run_ms", med(&phase(phases::ENGINE_RUN))),
        (
            "engine.delay_kernel_ms",
            med(&phase(phases::ENGINE_DELAY_KERNEL)),
        ),
        (
            "engine.kernel_evals",
            med(&counter(phases::ENGINE_KERNEL_EVALS)),
        ),
        (
            "engine.delay_table_hit_ratio",
            med(&|p, _, _| {
                let hits = count(p, phases::ENGINE_DELAY_TABLE_HITS) as f64;
                let builds = count(p, phases::ENGINE_DELAY_TABLE_BUILDS) as f64;
                if hits + builds > 0.0 {
                    hits / (hits + builds)
                } else {
                    0.0
                }
            }),
        ),
        ("engine.waveform_merge_ms", med(&|p, _, _| merge_self_ms(p))),
        ("engine.analysis_ms", med(&phase(phases::ENGINE_ANALYSIS))),
        ("engine.stimuli_ms", med(&phase(phases::ENGINE_STIMULI))),
        ("engine.barrier_ms", med(&phase(phases::ENGINE_BARRIER))),
        ("engine.pool_idle_ms", med(&phase(phases::ENGINE_POOL_IDLE))),
        (
            "engine.pool_steals",
            med(&counter(phases::ENGINE_POOL_STEALS)),
        ),
        (
            "engine.pool_task_imbalance",
            med(&|p, _, _| {
                p.histogram(phases::ENGINE_POOL_WORKER_TASKS)
                    .filter(|h| h.mean > 0.0)
                    .map_or(1.0, |h| h.max as f64 / h.mean)
            }),
        ),
        (
            "engine.quiet_skip_ratio",
            med(&|p, slots, _| {
                count(p, phases::ENGINE_GATES_SKIPPED_QUIET) as f64 / (gates * slots).max(1) as f64
            }),
        ),
        (
            "engine.lane_fill",
            med(&|p, slots, _| {
                // Level and group counters are summed over arena batches;
                // every slot sits in one batch for all of its levels.
                let groups = count(p, phases::ENGINE_LANES_GROUPS) as f64;
                let levels = count(p, phases::ENGINE_LEVELS) as f64;
                let batches = count(p, phases::ENGINE_BATCHES).max(1) as f64;
                if groups > 0.0 {
                    slots as f64 * (levels / batches) / (groups * lanes as f64)
                } else {
                    0.0
                }
            }),
        ),
        (
            "engine.retry_rounds",
            med(&counter(phases::ENGINE_RETRY_ROUNDS)),
        ),
        ("engine.arena_peak", med(&|_, _, arena| arena as f64)),
        (
            "scenario.segments",
            med(&counter(phases::ENGINE_SCENARIO_SEGMENTS)),
        ),
        (
            "scenario.mc_samples",
            med(&counter(phases::ENGINE_MC_SAMPLES)),
        ),
        (
            "scenario.variation_draws",
            med(&counter(phases::ENGINE_VARIATION_DRAWS)),
        ),
    ]
}

/// Per-run event-driven baseline metrics (median over profiled runs).
fn baseline_layers(baseline: &[Sample]) -> Vec<(&'static str, f64)> {
    let profiles: Vec<&Profile> = baseline
        .iter()
        .filter_map(|s| s.detail.as_ref().map(|(p, _, _)| p))
        .collect();
    let med = |f: &dyn Fn(&Profile) -> f64| {
        let v: Vec<f64> = profiles.iter().map(|p| f(p)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    vec![
        ("ed.simulate_ms", med(&|p| phase_ms(p, phases::ED_SIMULATE))),
        ("ed.events", med(&|p| count(p, phases::ED_EVENTS) as f64)),
        (
            "ed.queue_depth",
            med(&|p| p.histogram(phases::ED_QUEUE_DEPTH).map_or(0.0, |h| h.mean)),
        ),
    ]
}

/// Shares of the median traced launch's wall time: each engine phase's
/// self time (the pool-idle wait is taken out of the merge phase it
/// occurs in and listed on its own), the rest of `engine/run` (arena and
/// slot set-up between phases), and the time outside `engine/run`.
fn launch_breakdown(traced: &[Sample]) -> Vec<(String, f64)> {
    let mut by_wall: Vec<&Sample> = traced.iter().filter(|s| s.detail.is_some()).collect();
    by_wall.sort_by_key(|s| s.wall);
    let Some(sample) = by_wall.get(by_wall.len() / 2) else {
        return Vec::new();
    };
    let (profile, _, _) = sample.detail.as_ref().expect("filtered above");
    let wall = ms(sample.wall).max(f64::MIN_POSITIVE);
    let mut out: Vec<(String, f64)> = phases::ENGINE_PHASES[1..]
        .iter()
        .map(|&p| {
            let self_ms = if p == phases::ENGINE_WAVEFORM_MERGE {
                merge_self_ms(profile)
            } else {
                phase_ms(profile, p)
            };
            (p.to_owned(), self_ms / wall)
        })
        .collect();
    out.push((
        phases::ENGINE_POOL_IDLE.to_owned(),
        phase_ms(profile, phases::ENGINE_POOL_IDLE) / wall,
    ));
    let run_ms = phase_ms(profile, phases::ENGINE_RUN);
    let in_phases: f64 = out.iter().map(|(_, share)| share * wall).sum();
    out.push((
        "engine/run outside its phases".to_owned(),
        (run_ms - in_phases).max(0.0) / wall,
    ));
    out.push((
        "outside engine/run".to_owned(),
        (wall - run_ms).max(0.0) / wall,
    ));
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// The traced run's per-layer document: metrics, per-span self times and
/// the launch breakdown.
fn layers_document(
    config: &Config,
    outcome: &Outcome,
    tracer: &Tracer,
    breakdown: &[(String, f64)],
) -> Json {
    let num = Json::Num;
    let metrics = outcome
        .metrics
        .iter()
        .map(|(spec, v)| {
            (
                spec.name.to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), num(*v)),
                    ("unit".to_owned(), Json::Str(spec.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let self_times = tracer
        .layer_times()
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::Obj(vec![
                    ("calls".to_owned(), num(t.calls as f64)),
                    ("total_ms".to_owned(), num(t.total_ms)),
                    ("self_ms".to_owned(), num(t.self_ms)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "workload".to_owned(),
            Json::Str(config.workload.name().to_owned()),
        ),
        ("seed".to_owned(), num(config.seed as f64)),
        ("per_layer".to_owned(), Json::Obj(metrics)),
        ("span_self_time".to_owned(), Json::Obj(self_times)),
        (
            "launch_share".to_owned(),
            Json::Obj(
                breakdown
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// The waveform-merge phase without the coordinator's pool-idle wait,
/// which the engine records inside it and is reported on its own.
fn merge_self_ms(p: &Profile) -> f64 {
    phase_ms(p, phases::ENGINE_WAVEFORM_MERGE) - phase_ms(p, phases::ENGINE_POOL_IDLE)
}

fn phase_ms(p: &Profile, name: &str) -> f64 {
    p.phase(name).map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

fn count(p: &Profile, name: &str) -> u64 {
    p.counter(name).unwrap_or(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let v: Vec<f64> = items.iter().map(f).collect();
    stats::median(&v).unwrap_or(f64::NAN)
}

fn median_meps(samples: &[Sample]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .map(|s| s.evals as f64 / s.wall.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    stats::median(&v).unwrap_or(f64::NAN)
}
