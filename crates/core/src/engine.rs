//! The parallel thread-grid time simulator (paper Sec. IV, Fig. 3).
//!
//! A CPU realization of the GPU kernel organization: slots × gates of a
//! level form the parallel work of one launch; a barrier separates
//! levels. Waveforms live in one flat structure-of-arrays arena indexed
//! `(slot, net)`, and slots are processed in batches sized by a memory
//! budget — the direct analogue of launching as many slots as fit in GPU
//! global memory.
//!
//! Every gate evaluation uses the paper's online delay calculation
//! (Sec. IV.A) — nominal pin delays scaled by the delay kernel at the
//! slot's operating point — resolved once per supply into the
//! artifact's per-voltage delay tables
//! (`CompiledNetlist::scale_level` is the only place a scaled delay
//! is computed), then runs the waveform-processing loop.
//!
//! # Fault isolation
//!
//! The arena is *capacity-bounded*: every `(slot, net)` cell holds at most
//! [`SimOptions::arena_capacity`] transitions, exactly like the GPU's
//! fixed-size waveform buffers. A slot whose gates overflow is not an
//! error — it is quarantined (its remaining work skipped) and re-simulated
//! after the batch with geometrically grown capacity, up to
//! [`SimOptions::overflow_retries`] rounds; the GPU original's
//! overflow-flag-and-relaunch loop. A slot whose worker panics is likewise
//! contained via `catch_unwind` and reported in the run's
//! [`RunDiagnostics`] instead of poisoning the batch. Only when *every*
//! slot fails does a run return an error.

use crate::compile::{CompiledNetlist, DelayTable};
use crate::domains::{DomainSlotSpec, VoltageDomains};
use crate::phases;
use crate::pool::{Watchdog, WorkerPool, Workers};
use crate::results::{RunDiagnostics, SimRun, SlotResult, SlotStatus, TrippedBudget};
use crate::scenario::{MonteCarlo, ScenarioSpec};
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::op::OperatingPoint;
use avfs_inject::{FaultPlan, InjectionSite, Injector};
use avfs_netlist::library::Polarity;
use avfs_netlist::NodeId;
use avfs_obs::{time_option, Metrics};
use avfs_waveform::{
    evaluate_gate_bounded_raw, CapacityOverflow, GateScratch, LaneLayout, LevelWriter, PinDelays,
    SwitchingActivity, Waveform, WaveformArena, WaveformStats, WaveformView,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-`(slot, net)` transition capacity when
/// [`SimOptions::arena_capacity`] is 0 (auto).
const DEFAULT_ARENA_CAPACITY: usize = 64;

/// Capacity growth factor per quarantine-and-retry round.
const CAPACITY_GROWTH: usize = 4;

/// Default lane width when [`SimOptions::lanes`] is 0 (auto): 8 slots
/// per lane group balances lane-word utilization on typical launches
/// against partial-tail waste on small ones.
const DEFAULT_LANES: usize = 8;

/// Work-stealing granularity: the cursor hands out chunks sized so each
/// worker sees about this many grabs per level, bounding both contention
/// (few grabs) and imbalance (small chunks).
const STEAL_GRABS_PER_WORKER: usize = 4;

/// Upper bound on one work-stealing chunk, so huge levels still rebalance.
const MAX_STEAL_CHUNK: usize = 64;

/// How much up-front validation a run performs.
///
/// The checks are the tier-1 (netlist) and tier-2 (operating point) lints
/// of `avfs-check`, run against the engine's bound netlist and the slots
/// of the launch. They catch inputs the engine would otherwise *silently
/// repair* — most importantly operating points outside the delay model's
/// characterized domain, which the online delay calculation clamps to the
/// domain boundary and simulates anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Skip validation entirely (findings list stays empty).
    Off,
    /// Run the checks and record rendered findings in
    /// [`RunDiagnostics::validation_findings`]; the simulation proceeds
    /// regardless. The default.
    #[default]
    Warn,
    /// Refuse to simulate when any warn-or-worse finding exists: the run
    /// returns [`SimError::Validation`] carrying the findings.
    Deny,
}

/// Runtime options of one engine launch.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Worker threads (the SIMD lanes of the substitute device); 0 — the
    /// default — selects the machine's available parallelism. A bare
    /// [`CompiledNetlist::launch`] spawns its workers per call; a
    /// [`Session`](crate::session::Session) or
    /// [`BatchRunner`](crate::batch::BatchRunner) resolves the count once
    /// and parks the workers across runs, refusing any other nonzero
    /// count with [`SimError::ThreadMismatch`]. Workers park between
    /// levels; at each level the count is further clamped to the level's
    /// task count.
    pub threads: usize,
    /// Time at which pattern pairs launch their transition, ps.
    pub launch_time_ps: f64,
    /// Upper bound on total transitions resident in the waveform arena at
    /// once (`slots × nodes × capacity`); slots are processed in batches
    /// respecting it (the global-memory budget).
    pub waveform_budget: usize,
    /// Retain full per-net waveforms in each [`SlotResult`] (small runs
    /// and tests only).
    pub keep_waveforms: bool,
    /// Transition capacity of one `(slot, net)` arena cell; 0 selects the
    /// default (64). Slots that overflow it are quarantined and retried at
    /// geometrically grown capacity.
    pub arena_capacity: usize,
    /// Quarantine-and-retry rounds for overflowing slots; each round
    /// multiplies the slot's capacity by 4. Slots still overflowing after
    /// the last round are reported as [`SlotStatus::Overflowed`].
    pub overflow_retries: u32,
    /// Collect a phase-level performance profile into
    /// [`SimRun::profile`]. All timing happens on the coordinator thread,
    /// so simulation results are bit-for-bit identical with profiling on
    /// or off; when off (the default) the only cost is an `Option`
    /// check per phase boundary.
    pub profiling: bool,
    /// Activity-gated level execution (on by default): a gate whose fanin
    /// cells all carry zero transitions — *quiet* inputs — has a constant
    /// output, so the engine resolves it with a cheap constant cell write
    /// on the coordinator and schedules only the remaining *active* gates
    /// on the worker pool, skipping delay-kernel scheduling and inertial
    /// pulse filtering for the quiet ones. Results are bit-for-bit
    /// identical with gating on or off; the switch exists for A/B
    /// measurement (see the `activity_sweep` bench bin).
    ///
    /// ```
    /// use avfs_core::{slots, CompiledNetlist, SimOptions};
    /// use avfs_atpg::PatternSet;
    /// use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
    /// use avfs_netlist::CellLibrary;
    /// use std::sync::Arc;
    ///
    /// let library = CellLibrary::nangate15_like();
    /// let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library)?);
    /// let compiled = CompiledNetlist::compile(
    ///     Arc::clone(&netlist),
    ///     Arc::new(TimingAnnotation::zero(&netlist)),
    ///     Arc::new(StaticModel::new(ParameterSpace::paper())),
    /// )?;
    /// let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
    /// let slot_list = slots::at_voltage(patterns.len(), 0.8);
    /// let gated = compiled.launch(&patterns, &slot_list, &SimOptions::default())?;
    /// let ungated = compiled.launch(
    ///     &patterns,
    ///     &slot_list,
    ///     &SimOptions {
    ///         activity_gating: false,
    ///         ..SimOptions::default()
    ///     },
    /// )?;
    /// assert_eq!(gated.slots, ungated.slots); // gating never changes results
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub activity_gating: bool,
    /// Lane width `L` of the slot-packed (lane-major) arena layout: slots
    /// are grouped `L` at a time and one net's `L` waveforms are stored
    /// contiguously, so gate evaluation advances `L` slots per pass —
    /// logic values bit-packed into `u64` lane words on the quiet fast
    /// path, one shared delay slice per voltage group, and claim/quiet
    /// bookkeeping handled as per-lane-word masks. Must
    /// be a power of two ≤ 64 (lane masks are single `u64` words, and
    /// power-of-two widths keep a full group's claim run inside one
    /// atomic word); 0 — the default — selects 8. `lanes: 1` is exactly
    /// the scalar slot-major path, and every lane width produces
    /// bit-for-bit identical results: the layout change is a pure memory
    /// permutation.
    pub lanes: usize,
    /// Up-front validation of the netlist and the launch's operating
    /// points (tier-1/tier-2 `avfs-check` lints). Defaults to
    /// [`ValidationMode::Warn`]: findings land in
    /// [`RunDiagnostics::validation_findings`] without affecting the
    /// simulation. [`ValidationMode::Deny`] turns warn-or-worse findings
    /// into [`SimError::Validation`].
    pub strict_validation: ValidationMode,
    /// Armed fault plan for deterministic fault injection (`None` — the
    /// default — compiles every probe down to one `Option`-discriminant
    /// branch). An *empty* plan (all rates zero) is bit-for-bit identical
    /// to no plan at all; a firing plan exercises the engine's quarantine,
    /// containment and budget paths exactly as the matching organic fault
    /// would. Decisions are pure functions of `(seed, site, key, salt)`,
    /// so a plan replays identically across thread counts and runs; the
    /// plan also records what fired (see [`FaultPlan`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Wall-clock budget for the whole run, checked cooperatively at
    /// level barriers and between batches and retry rounds. On expiry the
    /// run degrades gracefully: slots already completed are returned,
    /// every unfinished slot resolves to
    /// [`SlotStatus::DeadlineExceeded`], and
    /// [`RunDiagnostics::budget_tripped`] records the trip. `None` (the
    /// default) never expires. A run whose *every* slot hits the deadline
    /// returns [`SimError::AllSlotsFailed`] like any other total loss.
    pub deadline: Option<Duration>,
    /// Arms a coordinator-side watchdog that samples pool progress and
    /// counts stalls longer than this timeout into
    /// [`RunDiagnostics::watchdog_stalls`]. Observation only — a stalled
    /// epoch is waited out, never killed — so the deterministic schedule
    /// is untouched. `None` (the default) runs without a watchdog.
    pub stall_timeout: Option<Duration>,
    /// Global memory budget in bytes for quarantine-retry capacity
    /// growth (admission control): a retry round is only admitted when
    /// its projected per-slot arena footprint
    /// (`nodes × capacity × sizeof(f64)` plus per-cell bookkeeping) fits
    /// the budget. Denied slots resolve to
    /// [`SlotStatus::BudgetExceeded`] without growing capacity, counted
    /// in [`RunDiagnostics::budget_denials`]. `0` (the default) is
    /// unlimited — the seed behavior of unconditional ×4 growth.
    pub memory_budget: usize,
}

impl SimOptions {
    /// The effective lane width: `lanes`, with 0 resolved to the default
    /// of 8.
    pub fn resolved_lanes(&self) -> usize {
        if self.lanes == 0 {
            DEFAULT_LANES
        } else {
            self.lanes
        }
    }

    /// The effective per-`(slot, net)` arena transition capacity:
    /// `arena_capacity`, with 0 resolved to the default of 64.
    pub fn resolved_arena_capacity(&self) -> usize {
        if self.arena_capacity == 0 {
            DEFAULT_ARENA_CAPACITY
        } else {
            self.arena_capacity.max(1)
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            threads: 0,
            launch_time_ps: 0.0,
            waveform_budget: 16 << 20,
            keep_waveforms: false,
            arena_capacity: 0,
            overflow_retries: 4,
            profiling: false,
            activity_gating: true,
            lanes: 0,
            strict_validation: ValidationMode::default(),
            fault_plan: None,
            deadline: None,
            stall_timeout: None,
            memory_budget: 0,
        }
    }
}

/// Projected arena bytes one slot needs at `capacity` transitions per
/// cell: the `times` lane (`f64`), the `len` lane (`u32`) and the
/// `initial`/claim bookkeeping — the accounting unit of
/// [`SimOptions::memory_budget`].
fn slot_arena_bytes(nodes: usize, capacity: usize) -> usize {
    nodes.saturating_mul(
        capacity
            .saturating_mul(std::mem::size_of::<f64>())
            .saturating_add(std::mem::size_of::<u32>() + 2),
    )
}

/// What one launch simulates, before preparation: the slot grid of
/// [`CompiledNetlist::launch`], [`CompiledNetlist::launch_domains`] or
/// [`CompiledNetlist::launch_scenarios`].
#[derive(Clone, Copy)]
pub(crate) enum Grid<'a> {
    /// One supply voltage per slot.
    Uniform(&'a [SlotSpec]),
    /// One supply voltage per (slot, voltage domain).
    Domains(&'a VoltageDomains, &'a [DomainSlotSpec]),
    /// One supply schedule per scenario, each expanded into `mc.samples`
    /// dice and summarized against `capture_deadline_ps`.
    Scenarios {
        scenarios: &'a [ScenarioSpec],
        mc: Option<&'a MonteCarlo>,
        capture_deadline_ps: Option<f64>,
    },
}

/// A prepared launch: the internal work list plus what the launch
/// validation checks.
struct Prepared {
    work: Vec<SlotWork>,
    /// Labelled slot operating points, linted against the model's
    /// characterized domain (`AVC-D005`).
    slot_points: Vec<(String, OperatingPoint)>,
    /// Repairable schedule findings (`AVC-N010`/`AVC-D006`) — one set per
    /// scenario, not per die.
    findings: Vec<avfs_check::Finding>,
}

impl CompiledNetlist {
    /// Runs the launch validation: the artifact's pre-rendered setup
    /// findings plus an `AVC-D005` check of every slot operating point
    /// in `slot_points` and the launch's schedule `findings` — the only
    /// validation work left per run after the netlist/delay-model tiers
    /// were hoisted into compile. Returns the rendered findings for
    /// [`RunDiagnostics::validation_findings`], or
    /// [`SimError::Validation`] under [`ValidationMode::Deny`] when any
    /// warn-or-worse finding exists.
    fn validate_launch(
        &self,
        mode: ValidationMode,
        slot_points: &[(String, OperatingPoint)],
        findings: &[avfs_check::Finding],
    ) -> Result<Vec<String>, SimError> {
        if mode == ValidationMode::Off {
            return Ok(Vec::new());
        }
        let op_findings = avfs_check::model::lint_operating_points(self.model.space(), slot_points);
        let mut rendered = self.setup_rendered.clone();
        rendered.extend(op_findings.iter().map(ToString::to_string));
        rendered.extend(findings.iter().map(ToString::to_string));
        let warn_or_worse = |f: &avfs_check::Finding| f.severity >= avfs_check::Severity::Warn;
        if mode == ValidationMode::Deny
            && (self.setup_deny
                || op_findings.iter().any(warn_or_worse)
                || findings.iter().any(warn_or_worse))
        {
            return Err(SimError::Validation { findings: rendered });
        }
        Ok(rendered)
    }

    /// Checks a launch's stimuli and slot grid and resolves it into the
    /// internal work list (per-slot normalized voltage assignments, Monte
    /// Carlo dice included) plus what the launch validation checks. Every
    /// launch kind shares the refusals: an empty grid, a pattern of the
    /// wrong width, a pattern index out of range and a non-finite or
    /// non-positive supply — checked *before* normalization clamps the
    /// supply into the characterized domain.
    fn prepare(&self, patterns: &PatternSet, grid: Grid<'_>) -> Result<Prepared, SimError> {
        let slots = match grid {
            Grid::Uniform(specs) => specs.len(),
            Grid::Domains(_, specs) => specs.len(),
            Grid::Scenarios { scenarios, mc, .. } => scenarios.len() * mc.map_or(1, |m| m.samples),
        };
        if slots == 0 {
            return Err(SimError::EmptySlots);
        }
        let width = self.netlist.inputs().len();
        if let Some(pair) = patterns.iter().find(|pair| pair.width() != width) {
            return Err(SimError::PatternWidth {
                expected: width,
                got: pair.width(),
            });
        }
        let check_slot = |slot: usize, pattern: usize, voltages: &mut dyn Iterator<Item = f64>| {
            if pattern >= patterns.len() {
                return Err(SimError::BadPatternIndex {
                    index: pattern,
                    available: patterns.len(),
                });
            }
            for voltage in voltages {
                if !voltage.is_finite() || voltage <= 0.0 {
                    return Err(SimError::InvalidOperatingPoint { slot, voltage });
                }
            }
            Ok(())
        };
        // Per-slot normalized voltage — computed once per slot, like the
        // paper's parameter memory (clamped so a sweep endpoint such as
        // exactly V_max stays valid under floating-point noise).
        let space = self.model.space();
        let c_min = space.load_range().0;
        let v_norm = |v: f64| space.normalize_clamped(OperatingPoint::new(v, c_min)).v;
        let mut prepared = Prepared {
            work: Vec::with_capacity(slots),
            slot_points: Vec::new(),
            findings: Vec::new(),
        };
        match grid {
            Grid::Uniform(specs) => {
                for (i, spec) in specs.iter().enumerate() {
                    check_slot(i, spec.pattern, &mut std::iter::once(spec.voltage))?;
                    prepared.slot_points.push((
                        format!("slot {i}"),
                        OperatingPoint::new(spec.voltage, c_min),
                    ));
                    prepared.work.push(SlotWork {
                        pattern: spec.pattern,
                        assign: VoltageAssign::Uniform(v_norm(spec.voltage)),
                        voltage: spec.voltage,
                        variation: None,
                    });
                }
            }
            Grid::Domains(domains, specs) => {
                if domains.len() != self.netlist.num_nodes() {
                    return Err(SimError::AnnotationMismatch);
                }
                for (i, spec) in specs.iter().enumerate() {
                    if spec.voltages.len() != domains.count() {
                        return Err(SimError::BadPatternIndex {
                            index: spec.voltages.len(),
                            available: domains.count(),
                        });
                    }
                    check_slot(i, spec.pattern, &mut spec.voltages.iter().copied())?;
                    // Each (slot, domain) supply is a checked operating
                    // point — islands extend the validation the same way
                    // they extend the voltage assignment.
                    for (d, &v) in spec.voltages.iter().enumerate() {
                        prepared.slot_points.push((
                            format!("slot {i}/domain {d}"),
                            OperatingPoint::new(v, c_min),
                        ));
                    }
                    // Normalize each domain voltage once, then expand per node.
                    let per_domain: Vec<f64> = spec.voltages.iter().map(|&v| v_norm(v)).collect();
                    let per_node: Vec<f64> = (0..self.netlist.num_nodes())
                        .map(|n| per_domain[domains.domain_of_index(n)])
                        .collect();
                    prepared.work.push(SlotWork {
                        pattern: spec.pattern,
                        assign: VoltageAssign::PerNode(Arc::new(per_node)),
                        voltage: spec.voltages[0],
                        variation: None,
                    });
                }
            }
            Grid::Scenarios { scenarios, mc, .. } => {
                let (v_min, v_max) = space.voltage_range();
                for (i, spec) in scenarios.iter().enumerate() {
                    let segments = &spec.schedule.segments;
                    check_slot(i, spec.pattern, &mut segments.iter().map(|s| s.voltage))?;
                    let assign = crate::scenario::lower_schedule(
                        i,
                        segments,
                        (v_min, v_max),
                        v_norm,
                        &mut prepared.findings,
                    )?;
                    // Scenario `i`'s dice occupy slots
                    // `i * samples .. (i + 1) * samples`.
                    let work = SlotWork {
                        pattern: spec.pattern,
                        assign,
                        voltage: segments[0].voltage,
                        variation: None,
                    };
                    match mc {
                        None => prepared.work.push(work),
                        Some(m) => prepared.work.extend((0..m.samples).map(|sample| SlotWork {
                            variation: Some(VariationSample {
                                config: m.variation,
                                sample: sample as u32,
                            }),
                            ..work.clone()
                        })),
                    }
                }
                prepared.findings = avfs_check::cap_findings(prepared.findings);
            }
        }
        Ok(prepared)
    }

    /// The one launch path: prepare and validate `grid`, then run it on
    /// the `parked` workers of a [`Session`](crate::session::Session) or
    /// [`BatchRunner`](crate::batch::BatchRunner) — refusing a
    /// conflicting [`SimOptions::threads`] up front — or, when `None`, on
    /// workers spawned for this launch alone.
    pub(crate) fn execute(
        &self,
        patterns: &PatternSet,
        grid: Grid<'_>,
        options: &SimOptions,
        parked: Option<&Workers>,
    ) -> Result<SimRun, SimError> {
        if let Some(workers) = parked {
            workers.check_threads(options.threads)?;
        }
        let prepared = self.prepare(patterns, grid)?;
        let validation = self.validate_launch(
            options.strict_validation,
            &prepared.slot_points,
            &prepared.findings,
        )?;
        let mut run = self.run_work(patterns, &prepared.work, options, validation, parked)?;
        if let Grid::Scenarios {
            mc,
            capture_deadline_ps,
            ..
        } = grid
        {
            run.scenario = Some(crate::scenario::summarize(
                &run.slots,
                mc,
                capture_deadline_ps,
            ));
        }
        Ok(run)
    }

    /// Simulates `slots` over `patterns` — the launch half of the
    /// compile/launch split. Pays no compile cost; a worker pool is
    /// spawned per call when `threads > 1` (use a
    /// [`Session`](crate::session::Session) or
    /// [`BatchRunner`](crate::batch::BatchRunner) to park one across
    /// runs).
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptySlots`] for an empty slot list,
    /// * [`SimError::PatternWidth`] / [`SimError::BadPatternIndex`] for
    ///   inconsistent stimuli,
    /// * [`SimError::InvalidOperatingPoint`] for a non-finite or
    ///   non-positive supply voltage,
    /// * [`SimError::InvalidLanes`] for a lane width that is not a power
    ///   of two within `1..=64`,
    /// * [`SimError::Validation`] under
    ///   [`ValidationMode::Deny`] when the up-front checks find a
    ///   warn-or-worse problem (e.g. a slot voltage outside the model's
    ///   characterized domain, which `Warn` mode would clamp and record),
    /// * [`SimError::Model`] if the delay model rejects an operating point
    ///   or lacks a kernel,
    /// * [`SimError::AllSlotsFailed`] if no slot produced a usable result
    ///   (individual slot failures are reported per slot instead).
    pub fn launch(
        &self,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.execute(patterns, Grid::Uniform(slots), options, None)
    }

    /// Simulates with per-node voltage *domains* (voltage islands): every
    /// slot assigns one supply voltage to each domain of `domains`.
    ///
    /// This extends the paper's per-instance operating points to the
    /// multi-rail AVFS systems its introduction describes ("actively
    /// control internal voltages", plural): one launch can sweep island
    /// configurations the way [`CompiledNetlist::launch`] sweeps global
    /// supplies. The reported [`SlotSpec::voltage`] of each result is the
    /// slot's domain-0 voltage (results are in slot order, so callers
    /// index the spec list they passed).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledNetlist::launch`] — every domain voltage is
    /// checked like a slot voltage — plus
    /// [`SimError::AnnotationMismatch`] for a domain map that does not
    /// cover the netlist and [`SimError::BadPatternIndex`] for a slot
    /// whose voltage count differs from the domain count.
    pub fn launch_domains(
        &self,
        patterns: &PatternSet,
        domains: &VoltageDomains,
        specs: &[DomainSlotSpec],
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.execute(patterns, Grid::Domains(domains, specs), options, None)
    }

    /// Runs a prepared work list in waveform-budget batches, with
    /// quarantine-and-retry rounds for overflowing slots, on the `parked`
    /// workers or on workers spawned for this run.
    fn run_work(
        &self,
        patterns: &PatternSet,
        work: &[SlotWork],
        options: &SimOptions,
        validation_findings: Vec<String>,
        parked: Option<&Workers>,
    ) -> Result<SimRun, SimError> {
        let nodes = self.netlist.num_nodes();
        // Lane-width hygiene before any work launches: masks are single
        // u64 words and power-of-two widths keep full lane groups inside
        // one claim word.
        let lanes = options.resolved_lanes();
        if !lanes.is_power_of_two() || lanes > 64 {
            return Err(SimError::InvalidLanes {
                lanes: options.lanes,
            });
        }
        let base_cap = options.resolved_arena_capacity();
        // Profiling is strictly observational: all instruments live in a
        // per-run registry touched only by this coordinator thread, so the
        // deterministic schedule (and therefore every waveform) is
        // identical whether the registry exists or not.
        let metrics = options.profiling.then(|| Metrics::new("engine"));
        let metrics = metrics.as_ref();
        let run_span = metrics.map(|m| m.span(phases::ENGINE_RUN));
        if let Some(m) = metrics {
            m.record(phases::ENGINE_LANES_WIDTH, lanes as u64);
            // Scenario instruments are recorded only when the work list
            // actually carries a multi-segment schedule or a Monte Carlo
            // die: a constant-schedule scenario launch lowers to static
            // slots and stays bit-identical to the static run — profile
            // included (DESIGN.md §15).
            if work
                .iter()
                .any(|w| w.assign.segments() > 1 || w.variation.is_some())
            {
                m.add(
                    phases::ENGINE_SCENARIO_SEGMENTS,
                    work.iter().map(|w| w.assign.segments() as u64).sum(),
                );
                m.add(
                    phases::ENGINE_MC_SAMPLES,
                    work.iter().filter(|w| w.variation.is_some()).count() as u64,
                );
            }
        }
        let start = Instant::now();
        // Fault injection: unarmed (the default) reduces every probe to
        // one Option-discriminant branch; an armed plan is consulted with
        // pure (site, key, salt) decisions, so the schedule — and with an
        // all-zero plan, every result bit — is identical to a clean run.
        let injector = options
            .fault_plan
            .as_ref()
            .map_or_else(Injector::unarmed, |p| Injector::armed(Arc::clone(p)));
        // Snapshot so a plan reused across runs reports per-run deltas.
        let fired_before = options.fault_plan.as_ref().map_or(0, |p| p.total_fired());
        let deadline_at = options.deadline.map(|d| start + d);
        // The watchdog observes coordinator progress (bumped at level
        // barriers) from a monitor thread; it never intervenes, so arming
        // it cannot perturb results. Disarmed on drop, Err paths included.
        let watchdog = options.stall_timeout.map(Watchdog::arm);
        // The caller's parked workers, or workers spawned here and
        // joined when the run returns; the spawn counts against the
        // deadline like the rest of the run. Every level of every batch
        // and retry round is released through the pool's epoch barrier
        // (the GPU grid analogue). A single-threaded run has no pool and
        // executes inline.
        let own;
        let workers = match parked {
            Some(workers) => workers,
            None => {
                own = Workers::new(options.threads);
                &own
            }
        };
        let pool = workers.pool();
        let tallies = PoolTallies::new(pool.map_or(1, WorkerPool::size));
        let mut diag = RunDiagnostics {
            clamped_loads: self.clamped_loads,
            validation_findings,
            ..RunDiagnostics::default()
        };
        let mut results: Vec<Option<SlotResult>> = vec![None; work.len()];
        let mut slot_sims = 0u64;
        // Quarantine-and-retry rounds: round 0 simulates every slot at the
        // base capacity; each later round re-simulates only the slots that
        // overflowed, at geometrically grown capacity — the CPU analogue of
        // the GPU's overflow-flag-and-relaunch loop.
        let mut pending: Vec<usize> = (0..work.len()).collect();
        let mut cap = base_cap;
        let mut round = 0u32;
        loop {
            let batch_slots =
                (options.waveform_budget / (nodes.max(1) * cap)).clamp(1, pending.len());
            let mut arena = WaveformArena::new(batch_slots * nodes, cap);
            let mut overflowed: Vec<usize> = Vec::new();
            for chunk in pending.chunks(batch_slots) {
                // Between-batch deadline check: once the budget is spent,
                // remaining batches are not even launched — their slots
                // resolve to DeadlineExceeded while completed ones keep
                // their results (graceful degradation).
                if deadline_at.is_some_and(|t| Instant::now() >= t) {
                    for &slot in chunk {
                        results[slot] = Some(SlotResult::failed(
                            SlotSpec {
                                pattern: work[slot].pattern,
                                voltage: work[slot].voltage,
                            },
                            SlotStatus::DeadlineExceeded,
                        ));
                        diag.deadline_aborts += 1;
                        diag.budget_tripped = Some(TrippedBudget::Deadline);
                        diag.failed_slots.push(slot);
                    }
                    continue;
                }
                slot_sims += chunk.len() as u64;
                if let Some(m) = metrics {
                    m.add(phases::ENGINE_BATCHES, 1);
                    m.record(phases::ENGINE_BATCH_SLOTS, chunk.len() as u64);
                }
                self.run_batch(
                    patterns,
                    work,
                    chunk,
                    options,
                    round,
                    pool,
                    &tallies,
                    &injector,
                    deadline_at,
                    watchdog.as_ref(),
                    &mut arena,
                    &mut results,
                    &mut overflowed,
                    &mut diag,
                    metrics,
                )?;
                if let Some(m) = metrics {
                    m.record(
                        phases::ENGINE_ARENA_OCCUPANCY,
                        arena.peak_occupancy() as u64,
                    );
                }
            }
            diag.peak_arena_occupancy = diag.peak_arena_occupancy.max(arena.peak_occupancy());
            for &s in &overflowed {
                if !diag.overflowed_slots.contains(&s) {
                    diag.overflowed_slots.push(s);
                }
            }
            if overflowed.is_empty() {
                break;
            }
            if round >= options.overflow_retries {
                for &s in &overflowed {
                    results[s] = Some(SlotResult::failed(
                        SlotSpec {
                            pattern: work[s].pattern,
                            voltage: work[s].voltage,
                        },
                        SlotStatus::Overflowed { capacity: cap },
                    ));
                    diag.failed_slots.push(s);
                }
                break;
            }
            round += 1;
            // Retry admission control: growing the arena ×4 is the one
            // place the engine's memory use escalates, so the memory
            // budget (and the injected allocation-cap breach that
            // rehearses it) gates entry into the next round. Denied slots
            // fail as BudgetExceeded at today's capacity instead of
            // growing it.
            let next_cap = cap.saturating_mul(CAPACITY_GROWTH);
            let admitted: Vec<usize> = if options.memory_budget != 0 || injector.is_armed() {
                let mut admitted = Vec::with_capacity(overflowed.len());
                for &slot in &overflowed {
                    let over_budget = options.memory_budget != 0
                        && slot_arena_bytes(nodes, next_cap) > options.memory_budget;
                    let injected = injector.fires(
                        InjectionSite::AllocCapBreach,
                        slot as u64,
                        u64::from(round),
                    );
                    if over_budget || injected {
                        results[slot] = Some(SlotResult::failed(
                            SlotSpec {
                                pattern: work[slot].pattern,
                                voltage: work[slot].voltage,
                            },
                            SlotStatus::BudgetExceeded,
                        ));
                        diag.budget_denials += 1;
                        diag.budget_tripped = Some(TrippedBudget::Memory);
                        diag.failed_slots.push(slot);
                    } else {
                        admitted.push(slot);
                    }
                }
                admitted
            } else {
                overflowed
            };
            if admitted.is_empty() {
                break;
            }
            if let Some(m) = metrics {
                m.add(phases::ENGINE_RETRY_ROUNDS, 1);
            }
            diag.slot_retries += admitted.len() as u64;
            cap = next_cap;
            pending = admitted;
        }
        diag.overflowed_slots.sort_unstable();
        diag.panicked_slots.sort_unstable();
        diag.failed_slots.sort_unstable();
        if let Some(wd) = &watchdog {
            diag.watchdog_stalls = wd.stalls();
        }
        diag.faults_injected = options
            .fault_plan
            .as_ref()
            .map_or(0, |p| p.total_fired())
            .saturating_sub(fired_before);
        if let Some(m) = metrics {
            // Always recorded (created at zero on clean runs) so report
            // tooling can assert a profiled run was fault- and budget-free.
            m.add(phases::ENGINE_FAULTS_INJECTED, diag.faults_injected);
            m.add(phases::ENGINE_DEADLINE_ABORTS, diag.deadline_aborts);
            m.add(phases::ENGINE_BUDGET_DENIALS, diag.budget_denials);
        }
        let slots: Vec<SlotResult> = results
            .into_iter()
            .map(|r| r.expect("every slot resolved by the retry loop"))
            .collect();
        if slots.iter().all(|s| !s.status.is_completed()) {
            return Err(SimError::AllSlotsFailed { slots: slots.len() });
        }
        if let Some(m) = metrics {
            let mut steals = 0u64;
            for w in 0..tallies.tasks.len() {
                m.record(
                    phases::ENGINE_POOL_WORKER_TASKS,
                    tallies.tasks[w].load(Ordering::Relaxed),
                );
                steals += tallies.steals[w].load(Ordering::Relaxed);
            }
            m.add(phases::ENGINE_POOL_STEALS, steals);
        }
        let elapsed = start.elapsed();
        if let Some(span) = run_span {
            span.finish();
        }
        Ok(SimRun {
            slots,
            elapsed,
            node_evaluations: (nodes as u64) * slot_sims,
            diagnostics: diag,
            profile: metrics.map(Metrics::snapshot),
            scenario: None,
        })
    }

    /// Simulates one batch (`chunk` indexes into `work`) against the
    /// bounded `arena`. Slots that overflow the arena are appended to
    /// `overflowed` for the caller's retry loop; slots whose delay
    /// evaluation panics are contained and recorded as failed. Only errors
    /// affecting the whole run (a delay-model error) propagate as `Err`.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        patterns: &PatternSet,
        work: &[SlotWork],
        chunk: &[usize],
        options: &SimOptions,
        round: u32,
        pool: Option<&WorkerPool>,
        tallies: &PoolTallies,
        injector: &Injector,
        deadline_at: Option<Instant>,
        watchdog: Option<&Watchdog>,
        arena: &mut WaveformArena,
        results: &mut [Option<SlotResult>],
        overflowed: &mut Vec<usize>,
        diag: &mut RunDiagnostics,
        metrics: Option<&Metrics>,
    ) -> Result<(), SimError> {
        let nodes = self.netlist.num_nodes();
        // The lane-major (slot-packed) address map of this batch: chunk
        // slots are grouped `L` at a time and one net's `L` waveforms are
        // stored contiguously, so every per-gate pass below advances a
        // whole lane group. `L = 1` degenerates exactly to the slot-major
        // layout, which is what the determinism matrix compares against.
        let layout = LaneLayout::new(options.resolved_lanes(), nodes.max(1), chunk.len());
        arena.reset();

        // Per-slot fault status within this batch. A dead slot's remaining
        // work is skipped; flags are only updated at level barriers so the
        // schedule stays deterministic.
        let mut dead: Vec<Option<Dead>> = vec![None; chunk.len()];

        // Level 0: stimuli waveforms, written through lane-group-disjoint
        // arena partitions (one per lane group of the batch; a group's
        // cells are contiguous by construction).
        time_option(metrics, phases::ENGINE_STIMULI, || {
            for (g, mut part) in arena
                .partitions(layout.group_entries())
                .take(layout.groups())
                .enumerate()
            {
                let w = layout.group_width(g);
                for lane in 0..w {
                    let si = layout.group_slot(g) + lane;
                    let pair = &patterns.pairs()[work[chunk[si]].pattern];
                    for (k, &pi) in self.netlist.inputs().iter().enumerate() {
                        let wf = Waveform::from_pattern(
                            pair.launch.bit(k),
                            pair.capture.bit(k),
                            options.launch_time_ps,
                        );
                        // Partition-local lane-major index: net-major
                        // within the group, lanes contiguous.
                        if part.write(pi.index() * w + lane, &wf).is_err() {
                            dead[si] = Some(Dead::Overflow);
                        }
                    }
                }
            }
        });

        // Distinct voltage groups within the batch: slots at the same
        // operating point share identical delay kernels ("the delay
        // calculations of threads from parallel instances of a gate
        // utilize the same coefficients and delay function calls"), so the
        // per-gate initialization phase runs once per (level, voltage)
        // instead of once per (slot, gate). A Monte Carlo die is part of
        // the key: sampled slots only share a group with slots of the
        // same die, since variation derates the initialized delays.
        let mut group_keys: Vec<(&VoltageAssign, Option<VariationSample>)> = Vec::new();
        let group_of_slot: Vec<usize> = chunk
            .iter()
            .map(|&slot| {
                let key = (&work[slot].assign, work[slot].variation);
                match group_keys
                    .iter()
                    .position(|(a, v)| *a == key.0 && *v == key.1)
                {
                    Some(g) => g,
                    None => {
                        group_keys.push(key);
                        group_keys.len() - 1
                    }
                }
            })
            .collect();
        let group_assigns: Vec<&VoltageAssign> = group_keys.iter().map(|(a, _)| *a).collect();
        let group_variation: Vec<Option<VariationSample>> =
            group_keys.iter().map(|(_, v)| *v).collect();

        // Delay sources per voltage group. A group whose supply is
        // uniform per schedule segment reads the artifact's cached
        // per-voltage tables ([`CompiledNetlist::delay_table`]), one per
        // segment — a Monte Carlo die included: it reads the same tables
        // and multiplies in its hashed derates at use. Voltage-island
        // groups, every group under an armed fault plan (factor
        // corruption is keyed per run and round) and groups whose table
        // build failed fill each level lazily through the same
        // [`CompiledNetlist::scale_level`] instead, so a model error or
        // panic surfaces at the level where it happens and only for the
        // groups still live there.
        let table_span = metrics.map(|m| m.span(phases::ENGINE_DELAY_KERNEL));
        let group_tables: Vec<Option<Vec<Arc<DelayTable>>>> = group_assigns
            .iter()
            .map(|assign| {
                if injector.is_armed() {
                    return None;
                }
                let v_norms: &[f64] = match assign {
                    VoltageAssign::Uniform(v) => std::slice::from_ref(v),
                    VoltageAssign::Scheduled(s) => &s.v_norms,
                    VoltageAssign::PerNode(_) => return None,
                };
                v_norms
                    .iter()
                    .map(|&v| {
                        catch_unwind(AssertUnwindSafe(|| self.delay_table(v, metrics)))
                            .ok()?
                            .ok()
                    })
                    .collect()
            })
            .collect();
        if let Some(span) = table_span {
            span.finish();
        }
        if let Some(m) = metrics {
            if group_tables.iter().all(Option::is_some) {
                m.add(phases::ENGINE_DELAY_TABLE_HITS, 1);
            }
        }

        // Levels 1…L: the vertical dimension with a barrier per level.
        let mut fallbacks = 0u64;
        let mut variation_draws = 0u64;
        // One buffer per (voltage group, schedule segment), filled for
        // lazily resolved and derated groups; static groups have exactly
        // one segment.
        let mut level_delays: Vec<Vec<Vec<PinDelays>>> = group_assigns
            .iter()
            .map(|a| vec![Vec::new(); a.segments()])
            .collect();
        for level in 1..self.levels.depth() {
            if dead.iter().all(Option::is_some) {
                break;
            }
            let level_nodes = self.levels.level(level);
            if level_nodes.is_empty() {
                continue;
            }
            if let Some(m) = metrics {
                m.add(phases::ENGINE_LEVELS, 1);
            }

            // Level plan: gates become pool tasks; primary outputs are mere
            // passthroughs, copied cell-to-cell at the barrier instead of
            // being scheduled as tasks. Precomputed once at compile.
            let plan = &self.level_plans[level];
            let gate_nodes = &plan.gate_nodes;
            let gate_offsets = &plan.gate_offsets;
            let output_nodes = &plan.output_nodes;
            let kernel_span = metrics.map(|m| m.span(phases::ENGINE_DELAY_KERNEL));
            let mut kernel_evals = 0u64;
            for bufs in level_delays.iter_mut() {
                for buf in bufs.iter_mut() {
                    buf.clear();
                }
            }
            // Voltage groups still live this level (a group is live while
            // any of its slots is).
            let live_vgroups: Vec<usize> = (0..group_assigns.len())
                .filter(|&g| {
                    group_of_slot
                        .iter()
                        .zip(&dead)
                        .any(|(&gg, d)| gg == g && d.is_none())
                })
                .collect();
            for &g in &live_vgroups {
                let bufs = &mut level_delays[g];
                if let Some(tables) = &group_tables[g] {
                    // Replay each table's fallback tally, so cached and
                    // lazily filled groups report identical
                    // [`RunDiagnostics::kernel_fallbacks`].
                    for t in tables {
                        fallbacks += t.fallbacks_per_level[level];
                    }
                    if group_variation[g].is_some() {
                        for (buf, t) in bufs.iter_mut().zip(tables) {
                            buf.extend_from_slice(&t.per_level[level]);
                        }
                    }
                } else {
                    // Injected non-finite kernel output, keyed by the
                    // global slot of the group's first batch member (a
                    // voltage group shares one delay fill, so the site is
                    // per group): corrupted factors meet the non-finite
                    // guard exactly like an organically broken kernel's.
                    let nf_key = injector.is_armed().then(|| {
                        let si = group_of_slot
                            .iter()
                            .position(|&gg| gg == g)
                            .expect("live group has a member");
                        chunk[si] as u64
                    });
                    let assign = group_assigns[g];
                    let corrupt = |f: f64| match nf_key {
                        Some(key) => injector.corrupt_factor(f, key, u64::from(round)),
                        None => f,
                    };
                    let filled = catch_unwind(AssertUnwindSafe(|| -> Result<u64, SimError> {
                        let mut fb = 0u64;
                        for (seg, buf) in bufs.iter_mut().enumerate() {
                            fb += self.scale_level(
                                level,
                                |node| assign.v_norm_at(node, seg),
                                corrupt,
                                buf,
                            )?;
                        }
                        Ok(fb)
                    }));
                    match filled {
                        Ok(Ok(fb)) => {
                            fallbacks += fb;
                            // Two kernel evaluations (rise + fall) per pin
                            // per segment.
                            kernel_evals += bufs.iter().map(|b| 2 * b.len() as u64).sum::<u64>();
                        }
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            for buf in bufs.iter_mut() {
                                buf.clear();
                            }
                            for (si, &gg) in group_of_slot.iter().enumerate() {
                                if gg == g && dead[si].is_none() {
                                    dead[si] = Some(Dead::Panic);
                                }
                            }
                            continue;
                        }
                    }
                }
                if let Some(die) = &group_variation[g] {
                    variation_draws += self.derate_level(level, die, bufs);
                }
            }

            if let Some(m) = metrics {
                m.add(phases::ENGINE_KERNEL_EVALS, kernel_evals);
            }
            if let Some(span) = kernel_span {
                span.finish();
            }

            // Task grid of the level: live lane groups × gates. Dead
            // lanes are masked out of their group's live mask up front, so
            // neither round 0 nor retry rounds ever evaluate a quarantined
            // slot's lanes; a fully dead group is dropped from the grid.
            let live_count = dead.iter().filter(|d| d.is_none()).count();
            let live_groups: Vec<(usize, u64)> = (0..layout.groups())
                .filter_map(|g| {
                    let mut mask = 0u64;
                    for lane in 0..layout.group_width(g) {
                        if dead[layout.group_slot(g) + lane].is_none() {
                            mask |= 1 << lane;
                        }
                    }
                    (mask != 0).then_some((g, mask))
                })
                .collect();
            if live_groups.is_empty() {
                continue;
            }
            if let Some(m) = metrics {
                m.add(phases::ENGINE_LANES_GROUPS, live_groups.len() as u64);
            }
            // Per-(slot, gate) grid size — the unit the activity counters
            // are denominated in, independent of the lane width.
            let grid_tasks = live_count * gate_nodes.len();
            // Per-group delay slices for this level — one slice per
            // schedule segment plus the boundaries selecting among them:
            // borrowed from the artifact's cached tables, or from the
            // group's buffers when it was filled lazily or derated.
            let level_slices: Vec<GroupDelays<'_>> = (0..group_assigns.len())
                .map(|g| GroupDelays {
                    segs: match &group_tables[g] {
                        Some(tables) if group_variation[g].is_none() => tables
                            .iter()
                            .map(|t| t.per_level[level].as_slice())
                            .collect(),
                        _ => level_delays[g].iter().map(Vec::as_slice).collect(),
                    },
                    boundaries: group_assigns[g].boundaries(),
                })
                .collect();
            let ctx = LevelCtx {
                gate_nodes,
                gate_offsets,
                level_delays: &level_slices,
                group_of_slot: &group_of_slot,
                live_groups: &live_groups,
                layout,
            };
            // Verdicts (grid-task index, fault) collected by workers;
            // applied deterministically at the barrier below.
            let verdicts: Mutex<Vec<(usize, Dead)>> = Mutex::new(Vec::new());
            let merge_span = metrics.map(|m| m.span(phases::ENGINE_WAVEFORM_MERGE));
            if grid_tasks > 0 {
                // Injected forced overflow: an armed run installs a hook
                // that maps the written cell back to its global slot and
                // asks the plan; a firing cell reports CapacityOverflow
                // exactly like a real capacity miss, feeding the same
                // quarantine-and-retry loop.
                let overflow_hook = injector.is_armed().then_some(move |idx: usize| {
                    injector.fires(
                        InjectionSite::ArenaOverflow,
                        chunk[layout.slot_of(idx)] as u64,
                        u64::from(round),
                    )
                });
                // In-place epoch writer: tasks write this level's cells
                // directly into the arena (claim-guarded, cell-disjoint)
                // while reading only previous levels' cells — no per-task
                // waveform allocation, no serial write-back.
                let writer = arena.level_writer_hooked(
                    overflow_hook
                        .as_ref()
                        .map(|h| h as &avfs_waveform::OverflowHook),
                );
                // Activity gating, lane-packed: a gate whose fanin cells
                // are all quiet (zero transitions) has a constant output.
                // Per (lane group, gate) the quiet lanes are found with
                // word-wide quiet-bit reads, the constant outputs computed
                // with one bit-parallel `eval_lanes` word op, and written
                // back under a single masked run claim — the coordinator
                // resolves whole lane words at once and only lanes with
                // active fanin survive into the scheduled task list. The
                // scan claims runs in (group, gate) order on one thread,
                // so the schedule stays deterministic; retry rounds
                // re-derive quiet bits from the surviving lanes' freshly
                // written cells.
                let active: Option<(Vec<(usize, u64)>, u64)> = options.activity_gating.then(|| {
                    let mut active: Vec<(usize, u64)> = Vec::new();
                    let mut quiet_lanes = 0u64;
                    let mut fan_words: Vec<u64> = Vec::new();
                    for (gi, &(g, live_mask)) in live_groups.iter().enumerate() {
                        let w = layout.group_width(g);
                        for (pos, &node_id) in gate_nodes.iter().enumerate() {
                            let node = self.netlist.node(node_id);
                            let mut quiet = live_mask;
                            for f in node.fanin() {
                                if quiet == 0 {
                                    break;
                                }
                                quiet &= writer.quiet_run(layout.run_start(g, f.index()), w);
                            }
                            if quiet != 0 {
                                fan_words.clear();
                                fan_words.extend(node.fanin().iter().map(|f| {
                                    writer.initial_run(layout.run_start(g, f.index()), w)
                                }));
                                let cell = self.netlist.cell_of(node_id).expect("gate has a cell");
                                writer.write_constant_run(
                                    layout.run_start(g, node_id.index()),
                                    quiet,
                                    cell.eval_lanes(&fan_words),
                                );
                                quiet_lanes += u64::from(quiet.count_ones());
                            }
                            let rest = live_mask & !quiet;
                            if rest != 0 {
                                active.push((gi * gate_nodes.len() + pos, rest));
                            }
                        }
                    }
                    (active, quiet_lanes)
                });
                if let (Some(m), Some((active, quiet_lanes))) = (metrics, active.as_ref()) {
                    m.add(phases::ENGINE_GATES_SKIPPED_QUIET, *quiet_lanes);
                    let active_lanes: u64 = active
                        .iter()
                        .map(|&(_, mask)| u64::from(mask.count_ones()))
                        .sum();
                    m.record(
                        phases::ENGINE_LEVEL_ACTIVITY,
                        active_lanes * 100 / grid_tasks as u64,
                    );
                }
                // The scheduled task list: (lane-group grid index, eval
                // mask) pairs — the whole grid when ungated, the surviving
                // active lanes when gated.
                let gates = gate_nodes.len();
                let scheduled: Vec<(usize, u64)> = match active {
                    Some((active, _)) => active,
                    None => live_groups
                        .iter()
                        .enumerate()
                        .flat_map(|(gi, &(_, mask))| {
                            (0..gates).map(move |pos| (gi * gates + pos, mask))
                        })
                        .collect(),
                };
                let tasks = scheduled.len();
                if tasks > 0 {
                    let workers = pool.map_or(1, WorkerPool::size).clamp(1, tasks);
                    let chunk_tasks =
                        (tasks / (workers * STEAL_GRABS_PER_WORKER)).clamp(1, MAX_STEAL_CHUNK);
                    let cursor = AtomicUsize::new(0);
                    let ctx_ref = &ctx;
                    let writer_ref = &writer;
                    let scheduled_ref = &scheduled;
                    // One worker's share of the level: steal task chunks
                    // off the shared cursor until it runs dry. A task is
                    // one (lane group, gate) pair; its eval mask names the
                    // lanes to run, each evaluated under its own
                    // catch_unwind so one lane's panic or overflow never
                    // takes down the group's other slots.
                    let job = |w: usize| {
                        let mut scratch = GateScratch::new();
                        let mut inputs: Vec<WaveformView<'_>> = Vec::new();
                        let mut local_verdicts: Vec<(usize, Dead)> = Vec::new();
                        let mut executed = 0u64;
                        let mut grabs = 0u64;
                        loop {
                            let t0 = cursor.fetch_add(chunk_tasks, Ordering::Relaxed);
                            if t0 >= tasks {
                                break;
                            }
                            grabs += 1;
                            let t1 = (t0 + chunk_tasks).min(tasks);
                            for &(gt, mask) in &scheduled_ref[t0..t1] {
                                let gi = gt / ctx_ref.gate_nodes.len();
                                let pos = gt % ctx_ref.gate_nodes.len();
                                let (g, _) = ctx_ref.live_groups[gi];
                                let mut rem = mask;
                                while rem != 0 {
                                    let lane = rem.trailing_zeros() as usize;
                                    rem &= rem - 1;
                                    let si = ctx_ref.layout.group_slot(g) + lane;
                                    executed += 1;
                                    // Verdicts carry the slot-major grid
                                    // index (slot × gates + gate) so
                                    // barrier reconciliation is independent
                                    // of gating, lane width and stealing.
                                    let grid = si * ctx_ref.gate_nodes.len() + pos;
                                    let r = catch_unwind(AssertUnwindSafe(|| {
                                        // Injected kernel panic: every lane
                                        // task of the affected (slot,
                                        // round) panics, so the
                                        // first-in-grid-order verdict is
                                        // schedule-independent.
                                        if injector.is_armed()
                                            && injector.fires(
                                                InjectionSite::KernelPanic,
                                                chunk[si] as u64,
                                                u64::from(round),
                                            )
                                        {
                                            panic!("injected kernel panic (slot {})", chunk[si]);
                                        }
                                        self.eval_lane(
                                            si,
                                            pos,
                                            ctx_ref,
                                            writer_ref,
                                            &mut scratch,
                                            &mut inputs,
                                        )
                                    }));
                                    inputs.clear();
                                    match r {
                                        Ok(Ok(())) => {}
                                        Ok(Err(_)) => {
                                            local_verdicts.push((grid, Dead::Overflow));
                                        }
                                        Err(_) => local_verdicts.push((grid, Dead::Panic)),
                                    }
                                }
                            }
                        }
                        if !local_verdicts.is_empty() {
                            verdicts
                                .lock()
                                .expect("verdict lock survives (worker panics are contained)")
                                .extend(local_verdicts);
                        }
                        tallies.tasks[w].fetch_add(executed, Ordering::Relaxed);
                        tallies.steals[w].fetch_add(grabs.saturating_sub(1), Ordering::Relaxed);
                    };
                    match pool {
                        Some(p) => {
                            let idle = p.run(&job, injector, metrics.is_some());
                            if let Some(m) = metrics {
                                m.record_duration(phases::ENGINE_POOL_IDLE, idle);
                            }
                        }
                        None => job(0),
                    }
                }
            }
            if let Some(span) = merge_span {
                span.finish();
            }
            // The barrier: primary-output passthroughs, then fault
            // verdicts. Sorting by task index makes reconciliation
            // independent of which worker stole which chunk — first fault
            // in task order wins, exactly as a serial sweep would decide.
            time_option(metrics, phases::ENGINE_BARRIER, || {
                for &(g, mask) in &live_groups {
                    let mut rem = mask;
                    while rem != 0 {
                        let lane = rem.trailing_zeros() as usize;
                        rem &= rem - 1;
                        let si = layout.group_slot(g) + lane;
                        for &out in output_nodes {
                            let from = self.netlist.node(out).fanin()[0].index();
                            arena.copy_cell(layout.index(si, from), layout.index(si, out.index()));
                        }
                    }
                }
                let mut pending = verdicts
                    .into_inner()
                    .expect("verdict lock survives (worker panics are contained)");
                pending.sort_unstable_by_key(|&(t, _)| t);
                for (t, verdict) in pending {
                    let si = t / gate_nodes.len();
                    if dead[si].is_none() {
                        dead[si] = Some(verdict);
                    }
                }
            });
            // Level-barrier progress bump (the watchdog's liveness signal)
            // and the cooperative deadline check: a level runs to its
            // barrier, then every still-live slot of an expired batch is
            // abandoned at once.
            if let Some(wd) = watchdog {
                wd.progress();
            }
            if deadline_at.is_some_and(|t| Instant::now() >= t) {
                for d in dead.iter_mut() {
                    if d.is_none() {
                        *d = Some(Dead::Deadline);
                    }
                }
                break;
            }
        }
        diag.kernel_fallbacks += fallbacks;
        if variation_draws > 0 {
            if let Some(m) = metrics {
                m.add(phases::ENGINE_VARIATION_DRAWS, variation_draws);
            }
        }

        // Waveform analysis (Fig. 2, step 4) for surviving slots;
        // quarantine verdicts for the rest.
        let analysis_span = metrics.map(|m| m.span(phases::ENGINE_ANALYSIS));
        for (si, &slot) in chunk.iter().enumerate() {
            let spec = SlotSpec {
                pattern: work[slot].pattern,
                voltage: work[slot].voltage,
            };
            match dead[si] {
                Some(Dead::Overflow) => overflowed.push(slot),
                Some(Dead::Panic) => {
                    results[slot] = Some(SlotResult::failed(spec, SlotStatus::Panicked));
                    diag.panicked_slots.push(slot);
                    diag.failed_slots.push(slot);
                }
                Some(Dead::Deadline) => {
                    results[slot] = Some(SlotResult::failed(spec, SlotStatus::DeadlineExceeded));
                    diag.deadline_aborts += 1;
                    diag.budget_tripped = Some(TrippedBudget::Deadline);
                    diag.failed_slots.push(slot);
                }
                None => {
                    let mut responses = Vec::with_capacity(self.netlist.outputs().len());
                    let mut latest: Option<f64> = None;
                    for &po in self.netlist.outputs() {
                        let stats = WaveformStats::of(&arena.view(layout.index(si, po.index())));
                        responses.push(stats.final_value);
                        latest = match (latest, stats.latest_transition) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (a, b) => a.or(b),
                        };
                    }
                    let activity = SwitchingActivity::of(
                        (0..nodes).map(|net| arena.view(layout.index(si, net))),
                    );
                    if let Some(m) = metrics {
                        // The activity headroom gating exploits: quiet
                        // cells observed over the whole window (recorded
                        // whether or not gating is on).
                        m.add(
                            phases::ENGINE_QUIET_CELLS,
                            (activity.nets - activity.active_nets) as u64,
                        );
                    }
                    results[slot] = Some(SlotResult {
                        spec,
                        status: SlotStatus::Completed { retries: round },
                        responses,
                        latest_output_transition_ps: latest,
                        activity,
                        waveforms: options.keep_waveforms.then(|| {
                            (0..nodes)
                                .map(|net| arena.to_waveform(layout.index(si, net)))
                                .collect()
                        }),
                    });
                }
            }
        }
        if let Some(span) = analysis_span {
            span.finish();
        }
        Ok(())
    }

    /// Evaluates one lane of a (lane group, gate) task — gate
    /// `gate_nodes[pos]` for batch slot `si` — the body of a device
    /// thread. The modified delays were precomputed per (level, voltage
    /// group) by the initialization phase. Inputs are read through the
    /// epoch `writer` from previous levels' cells and the result is
    /// written in place into this level's output cell; `inputs` is
    /// reusable scratch whose borrows of the writer end when the function
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityOverflow`] when the gate's output history would
    /// outgrow the arena's per-net capacity — the quarantine signal (the
    /// output cell is left untouched and unclaimed).
    fn eval_lane<'a>(
        &self,
        si: usize,
        pos: usize,
        ctx: &LevelCtx<'_>,
        writer: &'a LevelWriter<'_>,
        scratch: &mut GateScratch,
        inputs: &mut Vec<WaveformView<'a>>,
    ) -> Result<(), CapacityOverflow> {
        let node_id = ctx.gate_nodes[pos];
        let node = self.netlist.node(node_id);
        let cell = self.netlist.cell_of(node_id).expect("gate has a cell");
        let npins = node.fanin().len();
        let off = ctx.gate_offsets[pos];
        let gd = &ctx.level_delays[ctx.group_of_slot[si]];
        inputs.clear();
        inputs.extend(
            node.fanin()
                .iter()
                .map(|f| writer.view(ctx.layout.index(si, f.index()))),
        );
        let eval = |vals: &[bool]| cell.eval(vals);
        let initial = if gd.boundaries.is_empty() {
            // Static timeline: one slice, no segment lookup.
            let delays = &gd.segs[0][off..off + npins];
            evaluate_gate_bounded_raw(
                inputs,
                |_, pin| delays[pin],
                eval,
                scratch,
                writer.capacity(),
            )?
        } else {
            // Scheduled timeline: each input event is charged the delay
            // of the segment its cause time falls in (see
            // [`NormalizedSchedule`]).
            evaluate_gate_bounded_raw(
                inputs,
                |t, pin| gd.segs[gd.boundaries.partition_point(|b| *b <= t)][off + pin],
                eval,
                scratch,
                writer.capacity(),
            )?
        };
        writer.write(
            ctx.layout.index(si, node_id.index()),
            initial,
            scratch.scheduled(),
        )
    }

    /// Multiplies one level's scaled delays — one buffer per schedule
    /// segment, laid out like the level plan's `gate_offsets` — by a
    /// Monte Carlo die's hashed per-(node, pin, polarity) derates, which
    /// do not depend on the segment. Returns the number of draws.
    fn derate_level(
        &self,
        level: usize,
        die: &VariationSample,
        bufs: &mut [Vec<PinDelays>],
    ) -> u64 {
        let plan = &self.level_plans[level];
        let mut draws = 0u64;
        for (&node_id, &off) in plan.gate_nodes.iter().zip(&plan.gate_offsets) {
            for pin in 0..self.annotation.node_delays(node_id).len() {
                let [dr, df] = [Polarity::Rise, Polarity::Fall].map(|polarity| {
                    avfs_delay::variation::derate(&die.config, die.sample, node_id, pin, polarity)
                });
                draws += 2;
                for buf in bufs.iter_mut() {
                    let d = &mut buf[off + pin];
                    d.rise = derate_delay(d.rise, dr);
                    d.fall = derate_delay(d.fall, df);
                }
            }
        }
        draws
    }
}

/// Applies a Monte Carlo process-variation derate to an already-scaled
/// delay. A zero-sigma die derates by exactly `1.0`, and `d * 1.0 == d`
/// bit-exactly for every value the non-finite guard can return, so such
/// a die leaves its table's delays untouched. Both operands are finite
/// and non-negative (the derate is `(1 + ε).max(0)` with bounded `ε`),
/// so the product needs no fallback guard of its own.
#[inline]
fn derate_delay(scaled: f64, derate: f64) -> f64 {
    (scaled * derate).max(0.0)
}

/// Why a slot died within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dead {
    /// A gate's output outgrew the bounded arena — retry at larger
    /// capacity.
    Overflow,
    /// The slot's evaluation panicked — contained, no retry.
    Panic,
    /// The run's wall-clock deadline expired at a level barrier — the
    /// slot is abandoned, no retry.
    Deadline,
}

/// Per-worker execution tallies over a whole run (tasks executed and
/// work-stealing chunk grabs beyond the first per level), folded into the
/// profile at run end. Atomics make them writable from the pool without
/// synchronizing the level schedule.
struct PoolTallies {
    tasks: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
}

impl PoolTallies {
    fn new(workers: usize) -> PoolTallies {
        PoolTallies {
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One slot's resolved work: which pattern to replay under which voltage
/// assignment.
#[derive(Debug, Clone)]
struct SlotWork {
    pattern: usize,
    assign: VoltageAssign,
    /// Representative voltage reported in the result spec (the global
    /// supply for uniform slots, the domain-0 supply for island slots,
    /// the segment-0 supply for scheduled slots).
    voltage: f64,
    /// Monte Carlo process-variation sample of this slot (`None` = the
    /// nominal die). Part of the voltage-group key: two slots share a
    /// delay-initialization group only when both their voltage
    /// assignment *and* their die agree.
    variation: Option<VariationSample>,
}

/// One Monte Carlo die: a variation configuration plus the sample index
/// that addresses its hashed draws (see
/// [`avfs_delay::variation::derate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct VariationSample {
    config: avfs_delay::VariationConfig,
    sample: u32,
}

/// Normalized voltage assignment of one slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VoltageAssign {
    /// One global supply (normalized).
    Uniform(f64),
    /// Per-node normalized voltage (voltage islands), expanded from the
    /// domain map once per slot.
    PerNode(Arc<Vec<f64>>),
    /// A piecewise operating-point schedule (always ≥ 2 segments: the
    /// scenario layer lowers a single-segment schedule to `Uniform`, so
    /// the constant-schedule ≡ static identity holds by construction).
    Scheduled(Arc<NormalizedSchedule>),
}

/// A slot's normalized piecewise supply schedule. Segment 0 covers the
/// launch instant; an input event at time `t` belongs to segment
/// `boundaries.partition_point(|b| *b <= t)` (an event exactly at a
/// boundary sees the *later* segment's supply).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NormalizedSchedule {
    /// Per-segment normalized supply (clamped into the characterized
    /// domain, like every other assignment).
    pub(crate) v_norms: Vec<f64>,
    /// Start times (ps) of segments `1..` — strictly increasing; one
    /// fewer entry than `v_norms`.
    pub(crate) boundaries: Vec<f64>,
}

impl VoltageAssign {
    #[inline]
    fn v_norm_at(&self, node: usize, segment: usize) -> f64 {
        match self {
            VoltageAssign::Uniform(v) => *v,
            VoltageAssign::PerNode(per_node) => per_node[node],
            VoltageAssign::Scheduled(s) => s.v_norms[segment],
        }
    }

    /// How many delay-table segments this assignment needs (1 for every
    /// non-scheduled assignment).
    #[inline]
    pub(crate) fn segments(&self) -> usize {
        match self {
            VoltageAssign::Scheduled(s) => s.v_norms.len(),
            _ => 1,
        }
    }

    /// The segment boundaries (empty = static timeline).
    #[inline]
    fn boundaries(&self) -> &[f64] {
        match self {
            VoltageAssign::Scheduled(s) => &s.boundaries,
            _ => &[],
        }
    }
}

/// Shared per-level context handed to the device threads. The task grid
/// is `live_groups × gate_nodes`: scheduled entry `(gt, mask)` evaluates
/// gate `gate_nodes[gt % gates]` for every lane set in `mask` of lane
/// group `live_groups[gt / gates]`.
struct LevelCtx<'l> {
    /// The level's gate nodes (outputs are barrier passthroughs, not
    /// tasks).
    gate_nodes: &'l [NodeId],
    /// `level_delays[group].segs[segment][gate_offsets[pos] + pin]` —
    /// modified pin delays per voltage group and schedule segment
    /// (borrowed from the artifact's cached per-voltage tables or from
    /// the batch's freshly computed buffers). Static groups have exactly
    /// one segment and empty boundaries.
    level_delays: &'l [GroupDelays<'l>],
    gate_offsets: &'l [usize],
    group_of_slot: &'l [usize],
    /// Lane groups with at least one live lane at the start of the level,
    /// as `(group index, live-lane mask)`.
    live_groups: &'l [(usize, u64)],
    /// The batch's lane-major arena layout.
    layout: LaneLayout,
}

/// One voltage group's delay view of a level: one pin-delay slice per
/// schedule segment plus the segment boundaries that select among them.
/// `segs.len() == 1` with empty `boundaries` is the static case, which
/// [`CompiledNetlist::eval_lane`] dispatches to the exact single-segment
/// evaluator the static engine has always used.
struct GroupDelays<'l> {
    segs: Vec<&'l [PinDelays]>,
    boundaries: &'l [f64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::{at_voltage, cross};
    use avfs_delay::model::DelayModel;
    use avfs_delay::op::NormalizedPoint;
    use avfs_delay::TimingAnnotation;
    use avfs_delay::{ParameterSpace, StaticModel};
    use avfs_netlist::Netlist;
    use avfs_netlist::{CellLibrary, NetlistBuilder, NodeKind};

    fn chain_netlist() -> Arc<Netlist> {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn static_engine(netlist: &Arc<Netlist>, rise: f64, fall: f64) -> CompiledNetlist {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays { rise, fall };
                }
            }
        }
        CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::new(ann),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
        .unwrap()
    }

    fn one_pattern() -> PatternSet {
        use avfs_atpg::pattern::{Pattern, PatternPair};
        std::iter::once(
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
        )
        .collect()
    }

    #[test]
    fn chain_propagates_with_static_delays() {
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let opts = SimOptions {
            keep_waveforms: true,
            threads: 1,
            ..SimOptions::default()
        };
        let run = engine
            .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
            .unwrap();
        assert_eq!(run.slots.len(), 1);
        let slot = &run.slots[0];
        // Input rises at 0; y (after two inverters) rises at 20.
        assert_eq!(slot.latest_output_transition_ps, Some(20.0));
        assert_eq!(slot.responses, vec![true]);
        let wfs = slot.waveforms.as_ref().unwrap();
        let g1 = n.find("g1").unwrap();
        assert_eq!(wfs[g1.index()].transitions(), &[10.0]);
        assert!(!wfs[g1.index()].final_value());
        assert_eq!(run.node_evaluations, 4);
        assert!(run.meps() >= 0.0);
    }

    #[test]
    fn voltage_slots_share_pattern() {
        let n = chain_netlist();
        let engine = static_engine(&n, 5.0, 7.0);
        let run = engine
            .launch(
                &one_pattern(),
                &cross(1, &[0.6, 0.8, 1.0]),
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        // Static model: identical timing regardless of voltage.
        assert_eq!(run.slots.len(), 3);
        let t0 = run.slots[0].latest_output_transition_ps;
        assert!(run
            .slots
            .iter()
            .all(|s| s.latest_output_transition_ps == t0));
        assert_eq!(run.voltages(), vec![0.6, 0.8, 1.0]);
    }

    #[test]
    fn batching_is_transparent() {
        // Force a one-slot batch via a tiny waveform budget and compare
        // against an unbatched run.
        let n = chain_netlist();
        let engine = static_engine(&n, 3.0, 4.0);
        let patterns = one_pattern();
        let slots = cross(1, &[0.8, 0.9, 1.0, 1.1]);
        let big = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let tiny = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads: 1,
                    waveform_budget: 1, // → batch of one slot
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(big.slots.len(), tiny.slots.len());
        for (a, b) in big.slots.iter().zip(&tiny.slots) {
            assert_eq!(a.responses, b.responses);
            assert_eq!(a.latest_output_transition_ps, b.latest_output_transition_ps);
            assert_eq!(a.activity, b.activity);
        }
    }

    /// Determinism matrix: the hard invariant of the pooled engine is that
    /// results are bit-for-bit identical to the single-threaded path
    /// across worker counts, profiling on/off, and the fault paths
    /// (overflow quarantine-and-retry, panic containment).
    #[test]
    fn multithreaded_matches_single_threaded() {
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let rnd = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 11).unwrap());
        let rnd_engine = static_engine(&rnd, 8.0, 9.5);
        let rnd_patterns = PatternSet::lfsr(rnd.inputs().len(), 4, 5);
        let glitch = glitch_netlist();
        let glitch_engine = static_engine(&glitch, 10.0, 10.0);
        let chain = chain_netlist();
        let panicky_engine = CompiledNetlist::compile(
            Arc::clone(&chain),
            Arc::new(
                static_engine(&chain, 10.0, 10.0)
                    .annotation()
                    .as_ref()
                    .clone(),
            ),
            Arc::new(PanickyModel {
                inner: StaticModel::new(ParameterSpace::paper()),
            }),
        )
        .unwrap();
        type Scenario<'a> = (&'a str, Box<dyn Fn(SimOptions) -> SimRun + 'a>);
        let scenarios: Vec<Scenario<'_>> = vec![
            (
                "normal",
                Box::new(|opts| {
                    rnd_engine
                        .launch(
                            &rnd_patterns,
                            &cross(4, &[0.8, 1.0]),
                            &SimOptions {
                                keep_waveforms: true,
                                ..opts
                            },
                        )
                        .unwrap()
                }),
            ),
            (
                "overflow-retry",
                Box::new(|opts| {
                    glitch_engine
                        .launch(
                            &one_pattern(),
                            &cross(1, &[0.7, 0.8, 0.9, 1.0]),
                            &SimOptions {
                                keep_waveforms: true,
                                arena_capacity: 1,
                                ..opts
                            },
                        )
                        .unwrap()
                }),
            ),
            (
                "panicking",
                Box::new(|opts| {
                    // 1.1 V normalizes to the poisoned operating point.
                    panicky_engine
                        .launch(&one_pattern(), &cross(1, &[0.8, 1.1, 0.9]), &opts)
                        .unwrap()
                }),
            ),
        ];
        for (name, run) in &scenarios {
            // The reference is the plainest possible path: single thread,
            // unprofiled, activity gating off, scalar (lane width 1)
            // slot-major layout.
            let reference = run(SimOptions {
                threads: 1,
                profiling: false,
                activity_gating: false,
                lanes: 1,
                ..SimOptions::default()
            });
            if *name == "overflow-retry" {
                assert_eq!(reference.diagnostics.slot_retries, 4, "scenario {name}");
            }
            for injection in ["unarmed", "armed-empty"] {
                // The profiled-identity principle extended to injection:
                // an armed-but-empty fault plan (every rate zero) must be
                // bit-for-bit identical to no plan at all.
                let fault_plan =
                    (injection == "armed-empty").then(|| Arc::new(FaultPlan::empty(0xC0FFEE)));
                for activity_gating in [false, true] {
                    for lanes in [1, 4, 8] {
                        for threads in [1, 2, 4, 8] {
                            for profiling in [false, true] {
                                let got = run(SimOptions {
                                    threads,
                                    profiling,
                                    activity_gating,
                                    lanes,
                                    fault_plan: fault_plan.clone(),
                                    ..SimOptions::default()
                                });
                                let case = format!(
                                    "{name}, threads={threads}, lanes={lanes}, \
                                     profiling={profiling}, gating={activity_gating}, \
                                     injection={injection}"
                                );
                                assert_eq!(got.slots, reference.slots, "{case}");
                                assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
                                assert_eq!(
                                    got.node_evaluations, reference.node_evaluations,
                                    "{case}"
                                );
                                assert_eq!(got.profile.is_some(), profiling, "{case}");
                            }
                        }
                    }
                }
                if let Some(plan) = &fault_plan {
                    assert_eq!(plan.total_fired(), 0, "an empty plan never fires");
                }
            }
        }
    }

    #[test]
    fn quiet_stimuli_resolve_without_pool_tasks() {
        // launch == capture: every stimulus is a constant, so every gate
        // of every level is quiet and the whole run resolves through the
        // coordinator's constant fast path — zero pool tasks.
        use avfs_atpg::pattern::PatternPair;
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 3).unwrap());
        let engine = static_engine(&n, 8.0, 9.0);
        let p = PatternSet::random(n.inputs().len(), 1, 0xBEEF).pairs()[0]
            .launch
            .clone();
        let patterns: PatternSet =
            std::iter::once(PatternPair::new(p.clone(), p).unwrap()).collect();
        let opts = SimOptions {
            threads: 1,
            profiling: true,
            keep_waveforms: true,
            ..SimOptions::default()
        };
        let run = engine
            .launch(&patterns, &at_voltage(1, 0.8), &opts)
            .unwrap();
        assert!(run.is_complete());
        let gates = n
            .iter()
            .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
            .count() as u64;
        let profile = run.profile.as_ref().unwrap();
        assert_eq!(
            profile.counter(phases::ENGINE_GATES_SKIPPED_QUIET),
            Some(gates),
            "every gate resolved by the quiet fast path"
        );
        assert_eq!(
            profile.counter(phases::ENGINE_QUIET_CELLS),
            Some(n.num_nodes() as u64),
            "every cell stayed quiet"
        );
        // Nothing toggles: every retained waveform is constant and the
        // responses are the combinational function of the launch values.
        assert_eq!(run.slots[0].activity.total_transitions, 0);
        for wf in run.slots[0].waveforms.as_ref().unwrap() {
            assert_eq!(wf.num_transitions(), 0);
        }
        // The ungated run agrees bit for bit and reports no skip counter.
        let ungated = engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    activity_gating: false,
                    ..opts
                },
            )
            .unwrap();
        assert_eq!(run.slots, ungated.slots);
        assert_eq!(
            ungated
                .profile
                .as_ref()
                .unwrap()
                .counter(phases::ENGINE_GATES_SKIPPED_QUIET),
            None,
            "ungated runs record no skip counter"
        );
    }

    #[test]
    fn lane_width_validation() {
        let n = chain_netlist();
        let engine = static_engine(&n, 1.0, 1.0);
        let patterns = one_pattern();
        for lanes in [3usize, 5, 6, 128] {
            let err = engine
                .launch(
                    &patterns,
                    &at_voltage(1, 0.8),
                    &SimOptions {
                        lanes,
                        threads: 1,
                        ..SimOptions::default()
                    },
                )
                .unwrap_err();
            assert_eq!(err, SimError::InvalidLanes { lanes });
        }
        // 0 resolves to the default width; every power of two ≤ 64 works.
        for lanes in [0usize, 1, 2, 64] {
            engine
                .launch(
                    &patterns,
                    &at_voltage(1, 0.8),
                    &SimOptions {
                        lanes,
                        threads: 1,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
        }
    }

    #[test]
    fn partial_tail_lane_groups_match_scalar() {
        // 5 slots at lane width 4 → one full group plus a 1-lane tail;
        // lane width 64 → a single partial group wider than the whole
        // batch. Both must be bit-identical to the scalar layout.
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 7).unwrap());
        let engine = static_engine(&n, 6.0, 7.0);
        let patterns = PatternSet::lfsr(n.inputs().len(), 5, 3);
        let slots: Vec<SlotSpec> = (0..5)
            .map(|p| SlotSpec {
                pattern: p,
                voltage: 0.8,
            })
            .collect();
        let opts = |lanes| SimOptions {
            threads: 1,
            lanes,
            keep_waveforms: true,
            ..SimOptions::default()
        };
        let reference = engine.launch(&patterns, &slots, &opts(1)).unwrap();
        for lanes in [4, 64] {
            let got = engine.launch(&patterns, &slots, &opts(lanes)).unwrap();
            assert_eq!(got.slots, reference.slots, "lanes={lanes}");
            assert_eq!(got.diagnostics, reference.diagnostics, "lanes={lanes}");
        }
    }

    #[test]
    fn quarantined_lane_masking_on_overflow_retry() {
        // A capacity-1 arena overflows the glitching slots of a lane
        // group while their constant-stimulus neighbours complete in
        // round 0; the retry rounds must mask the quarantined lanes out
        // of their groups' live masks (never re-evaluating the finished
        // lanes) and end bit-identical to the scalar path.
        use avfs_atpg::pattern::{Pattern, PatternPair};
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let patterns: PatternSet = [
            // Glitches: the XOR of a rising input with its inverse.
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
            // Constant: nothing ever toggles.
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
        ]
        .into_iter()
        .collect();
        let slots: Vec<SlotSpec> = (0..6)
            .map(|i| SlotSpec {
                pattern: i % 2,
                voltage: 0.8,
            })
            .collect();
        let opts = |lanes| SimOptions {
            threads: 1,
            lanes,
            arena_capacity: 1,
            keep_waveforms: true,
            ..SimOptions::default()
        };
        let reference = engine.launch(&patterns, &slots, &opts(1)).unwrap();
        assert!(
            reference.diagnostics.slot_retries > 0,
            "glitch slots must hit the quarantine-and-retry path"
        );
        for lanes in [4, 8] {
            let got = engine.launch(&patterns, &slots, &opts(lanes)).unwrap();
            assert_eq!(got.slots, reference.slots, "lanes={lanes}");
            assert_eq!(got.diagnostics, reference.diagnostics, "lanes={lanes}");
        }
    }

    #[test]
    fn launch_time_offsets_all_transitions() {
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let patterns = one_pattern();
        let base = engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    launch_time_ps: 0.0,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let shifted = engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    launch_time_ps: 250.0,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let (t0, t1) = (
            base.slots[0].latest_output_transition_ps.unwrap(),
            shifted.slots[0].latest_output_transition_ps.unwrap(),
        );
        assert!((t1 - t0 - 250.0).abs() < 1e-9, "{t0} vs {t1}");
        assert_eq!(base.slots[0].responses, shifted.slots[0].responses);
    }

    #[test]
    fn mixed_island_vectors_group_correctly() {
        // Slots with different per-domain voltage vectors in ONE launch:
        // the per-(level, voltage-assignment) grouping must keep them
        // apart; results must match per-vector launches.
        let lib = CellLibrary::nangate15_like();
        let n = Arc::new(avfs_circuits::ripple_carry_adder(4, &lib).unwrap());
        // A voltage-sensitive analytic model so distinct vectors actually
        // produce distinct timing.
        let mut ann = TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays {
                        rise: 6.0,
                        fall: 7.0,
                    };
                }
            }
        }
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::new(ann),
            Arc::new(avfs_delay::AlphaPowerModel::new(
                0.24,
                1.35,
                ParameterSpace::paper(),
            )),
        )
        .unwrap();
        let domains = crate::domains::VoltageDomains::by_output_cones(&n, 2);
        let patterns = PatternSet::lfsr(n.inputs().len(), 2, 8);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let mixed = vec![
            crate::domains::DomainSlotSpec {
                pattern: 0,
                voltages: vec![0.8, 0.8],
            },
            crate::domains::DomainSlotSpec {
                pattern: 1,
                voltages: vec![0.6, 1.0],
            },
            crate::domains::DomainSlotSpec {
                pattern: 0,
                voltages: vec![0.6, 1.0],
            },
        ];
        let run = engine
            .launch_domains(&patterns, &domains, &mixed, &opts)
            .unwrap();
        assert_eq!(run.slots.len(), 3);
        for (spec, slot) in mixed.iter().zip(&run.slots) {
            let solo = engine
                .launch_domains(&patterns, &domains, std::slice::from_ref(spec), &opts)
                .unwrap();
            assert_eq!(slot.responses, solo.slots[0].responses);
            assert_eq!(
                slot.latest_output_transition_ps,
                solo.slots[0].latest_output_transition_ps
            );
        }
    }

    #[test]
    fn input_validation() {
        let n = chain_netlist();
        let engine = static_engine(&n, 1.0, 1.0);
        let patterns = one_pattern();
        assert!(matches!(
            engine.launch(&patterns, &[], &SimOptions::default()),
            Err(SimError::EmptySlots)
        ));
        assert!(matches!(
            engine.launch(
                &patterns,
                &[SlotSpec {
                    pattern: 7,
                    voltage: 0.8
                }],
                &SimOptions::default()
            ),
            Err(SimError::BadPatternIndex {
                index: 7,
                available: 1
            })
        ));
        // Wrong-width pattern.
        use avfs_atpg::pattern::{Pattern, PatternPair};
        let wide: PatternSet =
            std::iter::once(PatternPair::new(Pattern::zeros(3), Pattern::zeros(3)).unwrap())
                .collect();
        assert!(matches!(
            engine.launch(&wide, &at_voltage(1, 0.8), &SimOptions::default()),
            Err(SimError::PatternWidth {
                expected: 1,
                got: 3
            })
        ));
    }

    #[test]
    fn annotation_mismatch_rejected() {
        let n = chain_netlist();
        let other = {
            let lib = CellLibrary::nangate15_like();
            let mut b = NetlistBuilder::new("other", &lib);
            let a = b.add_input("a").unwrap();
            b.add_output("y", a).unwrap();
            Arc::new(b.finish().unwrap())
        };
        let ann = Arc::new(TimingAnnotation::zero(&other));
        let model = Arc::new(StaticModel::new(ParameterSpace::paper()));
        assert!(matches!(
            CompiledNetlist::compile(Arc::clone(&n), ann, model),
            Err(SimError::AnnotationMismatch)
        ));
    }

    /// A delay model that panics for operating points at the top of the
    /// normalized voltage range — the fault-injection vehicle for the
    /// panic-containment tests (distinct voltages form distinct kernel
    /// groups, so the panic hits exactly the marker slot).
    #[derive(Debug)]
    struct PanickyModel {
        inner: StaticModel,
    }

    impl avfs_delay::model::DelayModel for PanickyModel {
        fn factor(
            &self,
            _cell: avfs_netlist::CellId,
            _pin: usize,
            _polarity: avfs_netlist::library::Polarity,
            p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            assert!(p.v < 0.999, "injected fault: poisoned operating point");
            Ok(1.0)
        }
        fn name(&self) -> &str {
            "panicky"
        }
        fn space(&self) -> &ParameterSpace {
            self.inner.space()
        }
    }

    /// A delay model whose kernel output is garbage (non-finite factors):
    /// exercises the online-delay-calculation guard.
    #[derive(Debug)]
    struct BrokenKernelModel {
        space: ParameterSpace,
    }

    impl avfs_delay::model::DelayModel for BrokenKernelModel {
        fn factor(
            &self,
            _cell: avfs_netlist::CellId,
            _pin: usize,
            _polarity: avfs_netlist::library::Polarity,
            _p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            Ok(f64::INFINITY)
        }
        fn name(&self) -> &str {
            "broken-kernel"
        }
        fn space(&self) -> &ParameterSpace {
            &self.space
        }
    }

    /// A glitching netlist: reconvergent XOR whose output pulses on every
    /// input transition (see `glitch_visible_in_activity`).
    fn glitch_netlist() -> Arc<Netlist> {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("glitch", &lib);
        let a = b.add_input("a").unwrap();
        let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
        let x = b.add_gate("x", "XOR2_X1", &[a, inv]).unwrap();
        b.add_output("y", x).unwrap();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn invalid_operating_points_rejected() {
        let n = chain_netlist();
        let engine = static_engine(&n, 1.0, 1.0);
        let patterns = one_pattern();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.8] {
            let slots = [
                SlotSpec {
                    pattern: 0,
                    voltage: 0.8,
                },
                SlotSpec {
                    pattern: 0,
                    voltage: bad,
                },
            ];
            match engine.launch(&patterns, &slots, &SimOptions::default()) {
                Err(SimError::InvalidOperatingPoint { slot: 1, voltage }) => {
                    assert!(voltage.is_nan() || voltage == bad);
                }
                other => panic!("expected InvalidOperatingPoint, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_annotation_rejected() {
        let n = chain_netlist();
        let model: Arc<dyn DelayModel> = Arc::new(StaticModel::new(ParameterSpace::paper()));
        // Non-finite load.
        let mut ann = TimingAnnotation::zero(&n);
        ann.set_load_ff(n.find("g1").unwrap(), f64::NAN);
        assert!(matches!(
            CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
            Err(SimError::InvalidLoad { node, .. }) if node == "g1"
        ));
        // Negative load.
        let mut ann = TimingAnnotation::zero(&n);
        ann.set_load_ff(n.find("g2").unwrap(), -3.0);
        assert!(matches!(
            CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
            Err(SimError::InvalidLoad { node, load }) if node == "g2" && load == -3.0
        ));
        // Non-finite delay.
        let mut ann = TimingAnnotation::zero(&n);
        ann.node_delays_mut(n.find("g1").unwrap())[0] = PinDelays {
            rise: f64::NAN,
            fall: 1.0,
        };
        assert!(matches!(
            CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
            Err(SimError::InvalidDelay { gate, pin: 0 }) if gate == "g1"
        ));
        // Negative delay.
        let mut ann = TimingAnnotation::zero(&n);
        ann.node_delays_mut(n.find("g2").unwrap())[0] = PinDelays {
            rise: 1.0,
            fall: -2.0,
        };
        assert!(matches!(
            CompiledNetlist::compile(Arc::clone(&n), Arc::new(ann), Arc::clone(&model)),
            Err(SimError::InvalidDelay { gate, pin: 0 }) if gate == "g2"
        ));
    }

    #[test]
    fn combinational_loop_rejected() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("loop", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "NAND2_X1", &[a, a]).unwrap();
        let g2 = b.add_gate("g2", "INV_X1", &[g1]).unwrap();
        b.add_output("y", g2).unwrap();
        b.rewire_unchecked(g1, 1, g2);
        let n = Arc::new(b.finish_unchecked());
        let ann = Arc::new(TimingAnnotation::zero(&n));
        let model = Arc::new(StaticModel::new(ParameterSpace::paper()));
        match CompiledNetlist::compile(n, ann, model) {
            Err(SimError::Netlist(avfs_netlist::NetlistError::CombinationalLoop { nodes })) => {
                let mut nodes = nodes;
                nodes.sort();
                assert_eq!(nodes, vec!["g1".to_owned(), "g2".to_owned()]);
            }
            other => panic!("expected a combinational-loop error, got {other:?}"),
        }
    }

    #[test]
    fn model_error_propagates() {
        /// Rejects every factor request.
        #[derive(Debug)]
        struct NoKernelModel {
            space: ParameterSpace,
        }
        impl avfs_delay::model::DelayModel for NoKernelModel {
            fn factor(
                &self,
                cell: avfs_netlist::CellId,
                _pin: usize,
                _polarity: avfs_netlist::library::Polarity,
                _p: NormalizedPoint,
            ) -> Result<f64, avfs_delay::DelayError> {
                Err(avfs_delay::DelayError::MissingCell {
                    cell_index: cell.index(),
                })
            }
            fn name(&self) -> &str {
                "no-kernel"
            }
            fn space(&self) -> &ParameterSpace {
                &self.space
            }
        }
        let n = chain_netlist();
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::new(TimingAnnotation::zero(&n)),
            Arc::new(NoKernelModel {
                space: ParameterSpace::paper(),
            }),
        )
        .unwrap();
        assert!(matches!(
            engine.launch(&one_pattern(), &at_voltage(1, 0.8), &SimOptions::default()),
            Err(SimError::Model(avfs_delay::DelayError::MissingCell { .. }))
        ));
    }

    #[test]
    fn overflow_quarantine_and_retry_converges() {
        // The glitch pulse needs 2 transitions per net; a capacity-1 arena
        // must overflow, quarantine the slot and retry at capacity 4.
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let patterns = one_pattern();
        let tight = SimOptions {
            threads: 1,
            keep_waveforms: true,
            arena_capacity: 1,
            ..SimOptions::default()
        };
        let run = engine
            .launch(&patterns, &at_voltage(1, 0.8), &tight)
            .unwrap();
        assert!(run.is_complete());
        assert_eq!(run.slots[0].status, SlotStatus::Completed { retries: 1 });
        assert_eq!(run.diagnostics.overflowed_slots, vec![0]);
        assert_eq!(run.diagnostics.slot_retries, 1);
        assert!(run.diagnostics.failed_slots.is_empty());
        assert_eq!(run.diagnostics.peak_arena_occupancy, 2);
        // Retries are visible in the throughput accounting.
        assert_eq!(run.node_evaluations, 2 * n.num_nodes() as u64);
        // The retried result is identical to an untroubled run.
        let easy = engine
            .launch(
                &patterns,
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    keep_waveforms: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots[0].responses, easy.slots[0].responses);
        assert_eq!(run.slots[0].activity, easy.slots[0].activity);
        assert_eq!(run.slots[0].waveforms, easy.slots[0].waveforms);
    }

    #[test]
    fn overflow_past_retry_limit_fails_only_that_slot() {
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        // Pattern 0 glitches (input rises); pattern 1 is quiet.
        use avfs_atpg::pattern::{Pattern, PatternPair};
        let patterns: PatternSet = [
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
        ]
        .into_iter()
        .collect();
        let slots = [
            SlotSpec {
                pattern: 0,
                voltage: 0.8,
            },
            SlotSpec {
                pattern: 1,
                voltage: 0.8,
            },
        ];
        let opts = SimOptions {
            threads: 1,
            arena_capacity: 1,
            overflow_retries: 0,
            ..SimOptions::default()
        };
        let run = engine.launch(&patterns, &slots, &opts).unwrap();
        assert!(!run.is_complete());
        assert_eq!(run.slots[0].status, SlotStatus::Overflowed { capacity: 1 });
        assert!(run.slots[0].responses.is_empty());
        assert_eq!(run.slots[1].status, SlotStatus::Completed { retries: 0 });
        assert_eq!(run.slots[1].responses, vec![true]); // quiet XOR: a ⊕ ā = 1
        assert_eq!(run.diagnostics.failed_slots, vec![0]);
        assert_eq!(run.diagnostics.overflowed_slots, vec![0]);
        assert_eq!(run.diagnostics.slot_retries, 0);
    }

    #[test]
    fn all_slots_failed_is_an_error() {
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let opts = SimOptions {
            threads: 1,
            arena_capacity: 1,
            overflow_retries: 0,
            ..SimOptions::default()
        };
        assert!(matches!(
            engine.launch(&one_pattern(), &at_voltage(1, 0.8), &opts),
            Err(SimError::AllSlotsFailed { slots: 1 })
        ));
    }

    #[test]
    fn panicking_slot_is_contained() {
        let n = chain_netlist();
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::new(static_engine(&n, 10.0, 10.0).annotation().as_ref().clone()),
            Arc::new(PanickyModel {
                inner: StaticModel::new(ParameterSpace::paper()),
            }),
        )
        .unwrap();
        let patterns = one_pattern();
        // 1.1 V normalizes to 1.0 — the poisoned operating point.
        let slots = cross(1, &[0.8, 1.1, 0.9]);
        for threads in [1, 4] {
            let opts = SimOptions {
                threads,
                ..SimOptions::default()
            };
            let run = engine.launch(&patterns, &slots, &opts).unwrap();
            assert!(!run.is_complete());
            assert_eq!(run.slots[1].status, SlotStatus::Panicked);
            assert!(run.slots[1].responses.is_empty());
            assert_eq!(run.diagnostics.panicked_slots, vec![1]);
            assert_eq!(run.diagnostics.failed_slots, vec![1]);
            // The healthy slots are unaffected.
            for i in [0, 2] {
                assert_eq!(run.slots[i].status, SlotStatus::Completed { retries: 0 });
                assert_eq!(run.slots[i].latest_output_transition_ps, Some(20.0));
                assert_eq!(run.slots[i].responses, vec![true]);
            }
        }
        // All slots at the poisoned point → the run itself errors.
        assert!(matches!(
            engine.launch(&patterns, &at_voltage(1, 1.1), &SimOptions::default()),
            Err(SimError::AllSlotsFailed { slots: 1 })
        ));
    }

    #[test]
    fn kernel_fallback_guards_nonfinite_delays() {
        let n = chain_netlist();
        let mut ann = TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                ann.node_delays_mut(id)[0] = PinDelays {
                    rise: 10.0,
                    fall: 10.0,
                };
            }
        }
        let broken = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::new(ann),
            Arc::new(BrokenKernelModel {
                space: ParameterSpace::paper(),
            }),
        )
        .unwrap();
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let run = broken
            .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
            .unwrap();
        // Every scaled delay was non-finite; all fell back to nominal.
        assert!(run.diagnostics.kernel_fallbacks > 0);
        assert!(run.is_complete());
        let nominal = static_engine(&n, 10.0, 10.0)
            .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
            .unwrap();
        assert_eq!(run.slots[0].responses, nominal.slots[0].responses);
        assert_eq!(
            run.slots[0].latest_output_transition_ps,
            nominal.slots[0].latest_output_transition_ps
        );
        // A healthy kernel reports no fallbacks.
        assert_eq!(nominal.diagnostics.kernel_fallbacks, 0);
    }

    #[test]
    fn dangling_net_clamp_reported() {
        // TimingAnnotation::zero leaves dangling nets at 0 fF, below the
        // paper space's 0.5 fF minimum — the engine clamps and reports.
        let n = chain_netlist();
        let engine = static_engine(&n, 1.0, 1.0);
        let run = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(run.diagnostics.clamped_loads > 0);
    }

    #[test]
    fn strict_validation_modes() {
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let patterns = one_pattern();
        // 0.3 V is well below the paper space's 0.55 V minimum; Warn (the
        // default) clamps-and-records, Deny refuses the launch.
        let low = at_voltage(1, 0.3);
        let warn = engine
            .launch(
                &patterns,
                &low,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(
            warn.diagnostics
                .validation_findings
                .iter()
                .any(|f| f.contains("AVC-D005") && f.contains("slot 0")),
            "{:?}",
            warn.diagnostics.validation_findings
        );
        let off = engine
            .launch(
                &patterns,
                &low,
                &SimOptions {
                    threads: 1,
                    strict_validation: ValidationMode::Off,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(off.diagnostics.validation_findings.is_empty());
        assert_eq!(off.slots, warn.slots, "validation never changes results");
        let denied = engine.launch(
            &patterns,
            &low,
            &SimOptions {
                threads: 1,
                strict_validation: ValidationMode::Deny,
                ..SimOptions::default()
            },
        );
        match denied {
            Err(SimError::Validation { findings }) => {
                assert!(findings.iter().any(|f| f.contains("AVC-D005")));
            }
            other => panic!("expected SimError::Validation, got {other:?}"),
        }
    }

    #[test]
    fn deny_passes_a_clean_launch() {
        // Explicit in-range loads so the setup stage has nothing to clamp.
        let n = chain_netlist();
        let delays = n
            .nodes()
            .iter()
            .map(|node| {
                vec![
                    PinDelays {
                        rise: 10.0,
                        fall: 10.0
                    };
                    node.fanin().len()
                ]
            })
            .collect();
        let ann = TimingAnnotation::from_parts(delays, vec![1.0; n.num_nodes()]);
        let engine = CompiledNetlist::compile(
            Arc::clone(&n),
            Arc::new(ann),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
        .unwrap();
        assert!(engine.setup_findings().is_empty());
        let run = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    strict_validation: ValidationMode::Deny,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(run.diagnostics.validation_findings.is_empty());
    }

    #[test]
    fn glitch_visible_in_activity() {
        // Reconvergent XOR: a ─┬────────► x
        //                      └─ inv ──► x ; x = a ⊕ ā glitches on input
        // change when path delays differ.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("glitch", &lib);
        let a = b.add_input("a").unwrap();
        let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
        let x = b.add_gate("x", "XOR2_X1", &[a, inv]).unwrap();
        b.add_output("y", x).unwrap();
        let n = Arc::new(b.finish().unwrap());
        let engine = static_engine(&n, 10.0, 10.0);
        let run = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    keep_waveforms: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let slot = &run.slots[0];
        // x is 1 in steady state both before and after (a ⊕ ā = 1); the
        // inverter delay opens a 10 ps window where both inputs agree →
        // a glitch pulse at the XOR output.
        let wfs = slot.waveforms.as_ref().unwrap();
        let x_wf = &wfs[n.find("x").unwrap().index()];
        assert_eq!(x_wf.num_transitions(), 2, "expected a glitch pulse");
        assert!(x_wf.initial_value() && x_wf.final_value());
        assert!(slot.activity.total_glitch_transitions >= 2);
    }

    /// A delay model that sleeps at the poisoned operating point (v_norm
    /// ≈ 1): the kernel phase runs on the coordinator, so the sleep
    /// stalls exactly the path the deadline and the watchdog observe.
    #[derive(Debug)]
    struct SlowModel {
        inner: StaticModel,
        sleep: Duration,
    }

    impl avfs_delay::model::DelayModel for SlowModel {
        fn factor(
            &self,
            _cell: avfs_netlist::CellId,
            _pin: usize,
            _polarity: avfs_netlist::library::Polarity,
            p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            if p.v >= 0.999 {
                std::thread::sleep(self.sleep);
            }
            Ok(1.0)
        }
        fn name(&self) -> &str {
            "slow"
        }
        fn space(&self) -> &ParameterSpace {
            self.inner.space()
        }
    }

    fn slow_engine(netlist: &Arc<Netlist>, sleep: Duration) -> CompiledNetlist {
        CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::new(
                static_engine(netlist, 10.0, 10.0)
                    .annotation()
                    .as_ref()
                    .clone(),
            ),
            Arc::new(SlowModel {
                inner: StaticModel::new(ParameterSpace::paper()),
                sleep,
            }),
        )
        .unwrap()
    }

    #[test]
    fn memory_budget_denies_retry_growth() {
        // The glitch slot needs capacity 2, so the capacity-1 round
        // overflows and the retry wants cap 4 — which the budget refuses.
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        use avfs_atpg::pattern::{Pattern, PatternPair};
        let patterns: PatternSet = [
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
        ]
        .into_iter()
        .collect();
        let slots = [
            SlotSpec {
                pattern: 0,
                voltage: 0.8,
            },
            SlotSpec {
                pattern: 1,
                voltage: 0.8,
            },
        ];
        let budget = super::slot_arena_bytes(n.num_nodes(), 4) - 1;
        let run = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads: 1,
                    arena_capacity: 1,
                    memory_budget: budget,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots[0].status, SlotStatus::BudgetExceeded);
        assert!(run.slots[0].responses.is_empty());
        assert_eq!(run.slots[1].status, SlotStatus::Completed { retries: 0 });
        assert_eq!(run.diagnostics.budget_denials, 1);
        assert_eq!(run.diagnostics.budget_tripped, Some(TrippedBudget::Memory));
        // Admission was denied, so no retry round ran and no capacity grew.
        assert_eq!(run.diagnostics.slot_retries, 0);
        assert_eq!(run.diagnostics.peak_arena_occupancy, 1);
        assert_eq!(run.diagnostics.failed_slots, vec![0]);
        // One byte more admits the retry and the slot completes.
        let run = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads: 1,
                    arena_capacity: 1,
                    memory_budget: budget + 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots[0].status, SlotStatus::Completed { retries: 1 });
        assert_eq!(run.diagnostics.budget_denials, 0);
        assert_eq!(run.diagnostics.budget_tripped, None);
    }

    #[test]
    fn zero_deadline_fails_every_slot() {
        // An already-expired deadline abandons every slot before any
        // batch launches — and an all-loss run is an error, like any
        // other total failure.
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let err = engine.launch(
            &one_pattern(),
            &cross(1, &[0.7, 0.8, 0.9]),
            &SimOptions {
                threads: 1,
                deadline: Some(Duration::ZERO),
                ..SimOptions::default()
            },
        );
        assert!(matches!(err, Err(SimError::AllSlotsFailed { slots: 3 })));
    }

    #[test]
    fn deadline_degrades_gracefully_mid_run() {
        // One-slot batches; the second slot's kernel phase sleeps past
        // the deadline, so the first slot's completed result is returned
        // while the second resolves to DeadlineExceeded at the barrier.
        let n = chain_netlist();
        let engine = slow_engine(&n, Duration::from_millis(40));
        // 1.1 V normalizes to the slow operating point.
        let slots = cross(1, &[0.8, 1.1]);
        let run = engine
            .launch(
                &one_pattern(),
                &slots,
                &SimOptions {
                    threads: 1,
                    waveform_budget: 1, // → one slot per batch
                    deadline: Some(Duration::from_millis(60)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(!run.is_complete());
        assert_eq!(run.slots[0].status, SlotStatus::Completed { retries: 0 });
        assert_eq!(run.slots[0].responses, vec![true]);
        assert_eq!(run.slots[1].status, SlotStatus::DeadlineExceeded);
        assert!(run.slots[1].responses.is_empty());
        assert_eq!(run.diagnostics.deadline_aborts, 1);
        assert_eq!(
            run.diagnostics.budget_tripped,
            Some(TrippedBudget::Deadline)
        );
        assert_eq!(run.diagnostics.failed_slots, vec![1]);
    }

    #[test]
    fn watchdog_counts_engine_stalls() {
        let n = chain_netlist();
        let engine = slow_engine(&n, Duration::from_millis(40));
        // The slow kernel phase stalls far past the 5 ms timeout; the
        // watchdog observes it but the run still completes untouched.
        let run = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 1.1),
                &SimOptions {
                    threads: 1,
                    stall_timeout: Some(Duration::from_millis(5)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert!(run.is_complete());
        assert!(
            run.diagnostics.watchdog_stalls >= 1,
            "stalls: {}",
            run.diagnostics.watchdog_stalls
        );
        // A generous timeout on a fast run records nothing.
        let calm = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 0.8),
                &SimOptions {
                    threads: 1,
                    stall_timeout: Some(Duration::from_secs(10)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(calm.diagnostics.watchdog_stalls, 0);
        assert_eq!(calm.slots[0].responses, run.slots[0].responses);
    }

    #[test]
    fn injected_overflow_hits_predicted_slots_and_replays() {
        // The plan's decisions are pure (site, key, salt) hashes, so the
        // harness can predict the affected slots offline — and a second
        // run with the same seed replays bit for bit.
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let slots = cross(1, &[0.8; 4]);
        let mk_plan = || Arc::new(FaultPlan::empty(7).with_rate(InjectionSite::ArenaOverflow, 0.5));
        let plan = mk_plan();
        let opts = SimOptions {
            threads: 2,
            overflow_retries: 0,
            fault_plan: Some(Arc::clone(&plan)),
            ..SimOptions::default()
        };
        let run = engine.launch(&one_pattern(), &slots, &opts).unwrap();
        let mut predicted_hits = 0;
        for (i, slot) in run.slots.iter().enumerate() {
            if plan.decide(InjectionSite::ArenaOverflow, i as u64, 0) {
                predicted_hits += 1;
                assert_eq!(
                    slot.status,
                    SlotStatus::Overflowed { capacity: 64 },
                    "slot {i}"
                );
            } else {
                assert_eq!(
                    slot.status,
                    SlotStatus::Completed { retries: 0 },
                    "slot {i}"
                );
            }
        }
        assert!(predicted_hits >= 1, "seed 7 must hit at least one slot");
        assert!(predicted_hits < 4, "seed 7 must spare at least one slot");
        assert_eq!(run.diagnostics.faults_injected, plan.total_fired());
        assert_eq!(
            plan.fired_keys(InjectionSite::ArenaOverflow).len(),
            predicted_hits
        );
        // Replay from a fresh plan with the same seed.
        let replay = engine
            .launch(
                &one_pattern(),
                &slots,
                &SimOptions {
                    fault_plan: Some(mk_plan()),
                    ..opts.clone()
                },
            )
            .unwrap();
        assert_eq!(replay.slots, run.slots);
        assert_eq!(replay.diagnostics, run.diagnostics);
    }

    #[test]
    fn injected_kernel_panic_is_contained_like_an_organic_one() {
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let slots = cross(1, &[0.8; 4]);
        let plan = Arc::new(FaultPlan::empty(3).with_rate(InjectionSite::KernelPanic, 0.5));
        let run = engine
            .launch(
                &one_pattern(),
                &slots,
                &SimOptions {
                    threads: 2,
                    fault_plan: Some(Arc::clone(&plan)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let mut panicked = Vec::new();
        for (i, slot) in run.slots.iter().enumerate() {
            if plan.decide(InjectionSite::KernelPanic, i as u64, 0) {
                panicked.push(i);
                assert_eq!(slot.status, SlotStatus::Panicked, "slot {i}");
            } else {
                assert_eq!(
                    slot.status,
                    SlotStatus::Completed { retries: 0 },
                    "slot {i}"
                );
            }
        }
        assert!(!panicked.is_empty() && panicked.len() < 4, "{panicked:?}");
        assert_eq!(run.diagnostics.panicked_slots, panicked);
    }

    #[test]
    fn injected_nonfinite_kernel_falls_back_to_nominal() {
        // A corrupted (infinite) kernel factor exercises the
        // scale_or_fallback guard: results equal the nominal-delay run,
        // with the fallback and the fault both on the books.
        let n = chain_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        let plan = Arc::new(FaultPlan::empty(1).with_rate(InjectionSite::NonFiniteKernel, 1.0));
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let injected = engine
            .launch(
                &one_pattern(),
                &at_voltage(1, 0.8),
                &SimOptions {
                    fault_plan: Some(Arc::clone(&plan)),
                    ..opts.clone()
                },
            )
            .unwrap();
        let clean = engine
            .launch(&one_pattern(), &at_voltage(1, 0.8), &opts)
            .unwrap();
        assert!(injected.is_complete());
        assert!(injected.diagnostics.kernel_fallbacks > 0);
        assert!(injected.diagnostics.faults_injected > 0);
        assert_eq!(injected.slots, clean.slots);
        assert_eq!(clean.diagnostics.kernel_fallbacks, 0);
        assert_eq!(clean.diagnostics.faults_injected, 0);
    }

    #[test]
    fn injected_alloc_cap_breach_denies_the_retry() {
        // Rate-1.0 AllocCapBreach: the organic overflow wants a retry,
        // the injected breach denies the admission — BudgetExceeded
        // without any memory_budget configured.
        let n = glitch_netlist();
        let engine = static_engine(&n, 10.0, 10.0);
        use avfs_atpg::pattern::{Pattern, PatternPair};
        let patterns: PatternSet = [
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([true])).unwrap(),
            PatternPair::new(Pattern::from_bits([false]), Pattern::from_bits([false])).unwrap(),
        ]
        .into_iter()
        .collect();
        let slots = [
            SlotSpec {
                pattern: 0,
                voltage: 0.8,
            },
            SlotSpec {
                pattern: 1,
                voltage: 0.8,
            },
        ];
        let plan = Arc::new(FaultPlan::empty(9).with_rate(InjectionSite::AllocCapBreach, 1.0));
        let run = engine
            .launch(
                &patterns,
                &slots,
                &SimOptions {
                    threads: 1,
                    arena_capacity: 1,
                    fault_plan: Some(Arc::clone(&plan)),
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots[0].status, SlotStatus::BudgetExceeded);
        assert_eq!(run.slots[1].status, SlotStatus::Completed { retries: 0 });
        assert_eq!(run.diagnostics.budget_denials, 1);
        assert_eq!(run.diagnostics.budget_tripped, Some(TrippedBudget::Memory));
        assert_eq!(run.diagnostics.slot_retries, 0);
        assert_eq!(plan.fired_keys(InjectionSite::AllocCapBreach), vec![0]);
    }

    // ---- scenario engine: schedules and Monte Carlo variation ----

    use crate::scenario::{cross_schedules, MonteCarlo, ScenarioSpec, Schedule};
    use avfs_delay::VariationConfig;

    /// A kernel whose factor actually depends on voltage — the flat
    /// [`StaticModel`] would make every schedule segment indistinguishable,
    /// so the segment-snapping and schedule tests need this instead.
    #[derive(Debug)]
    struct VoltageScaledModel {
        space: ParameterSpace,
    }

    impl avfs_delay::model::DelayModel for VoltageScaledModel {
        fn factor(
            &self,
            _cell: avfs_netlist::CellId,
            _pin: usize,
            _polarity: avfs_netlist::library::Polarity,
            p: NormalizedPoint,
        ) -> Result<f64, avfs_delay::DelayError> {
            // Monotone decreasing in voltage, strictly positive on [0, 1].
            Ok(1.5 - p.v)
        }
        fn name(&self) -> &str {
            "voltage-scaled"
        }
        fn space(&self) -> &ParameterSpace {
            &self.space
        }
    }

    fn voltage_scaled_engine(netlist: &Arc<Netlist>, rise: f64, fall: f64) -> CompiledNetlist {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = PinDelays { rise, fall };
                }
            }
        }
        CompiledNetlist::compile(
            Arc::clone(netlist),
            Arc::new(ann),
            Arc::new(VoltageScaledModel {
                space: ParameterSpace::paper(),
            }),
        )
        .unwrap()
    }

    /// The tentpole identity: a constant (single-segment) schedule is the
    /// static run, bit for bit — slots, diagnostics, node evaluations —
    /// at every thread count and lane width, profiled or not, and the
    /// profile carries no scenario instruments (so even profiles stay
    /// identical to the static launch).
    #[test]
    fn constant_schedule_is_bit_identical_to_static() {
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 23).unwrap());
        let engine = voltage_scaled_engine(&n, 8.0, 9.5);
        let patterns = PatternSet::lfsr(n.inputs().len(), 4, 5);
        let voltages = [0.7, 0.9];
        let slots = cross(patterns.len(), &voltages);
        let scenarios = cross_schedules(
            patterns.len(),
            &[Schedule::constant(0.7), Schedule::constant(0.9)],
        );
        for threads in [1usize, 4] {
            for lanes in [1usize, 8] {
                for profiling in [false, true] {
                    let opts = SimOptions {
                        threads,
                        lanes,
                        profiling,
                        ..SimOptions::default()
                    };
                    let case = format!("threads={threads}, lanes={lanes}, profiling={profiling}");
                    let fixed = engine.launch(&patterns, &slots, &opts).unwrap();
                    let scheduled = engine
                        .launch_scenarios(&patterns, &scenarios, None, None, &opts)
                        .unwrap();
                    assert_eq!(scheduled.slots, fixed.slots, "{case}");
                    assert_eq!(scheduled.diagnostics, fixed.diagnostics, "{case}");
                    assert_eq!(scheduled.node_evaluations, fixed.node_evaluations, "{case}");
                    if profiling {
                        let profile = scheduled.profile.as_ref().unwrap();
                        assert_eq!(
                            profile.counter(phases::ENGINE_SCENARIO_SEGMENTS),
                            None,
                            "constant schedules record no scenario instruments ({case})"
                        );
                        assert_eq!(profile.counter(phases::ENGINE_MC_SAMPLES), None, "{case}");
                        assert_eq!(
                            profile.counter(phases::ENGINE_VARIATION_DRAWS),
                            None,
                            "{case}"
                        );
                    }
                    let summary = scheduled.scenario.as_ref().unwrap();
                    assert_eq!(summary.samples_per_scenario, 1);
                    assert_eq!(summary.points.len(), voltages.len());
                }
            }
        }
    }

    /// Multi-segment schedules and Monte Carlo sampling obey the same
    /// determinism matrix as every other engine path: bit-identical to
    /// the single-threaded scalar reference at all thread counts and lane
    /// widths, profiled or not.
    #[test]
    fn scheduled_mc_runs_match_single_threaded_reference() {
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 31).unwrap());
        let engine = voltage_scaled_engine(&n, 8.0, 9.5);
        let patterns = PatternSet::lfsr(n.inputs().len(), 3, 9);
        let scenarios = cross_schedules(
            patterns.len(),
            &[
                Schedule::droop(0.9, 0.15, 12.0, 40.0),
                Schedule::steps([(0.0, 0.7), (25.0, 1.0)]),
            ],
        );
        let mc = MonteCarlo {
            samples: 3,
            variation: VariationConfig {
                sigma: 0.05,
                max_deviation: 0.2,
                seed: 0xD1CE,
            },
        };
        let reference = engine
            .launch_scenarios(
                &patterns,
                &scenarios,
                Some(&mc),
                Some(500.0),
                &SimOptions {
                    threads: 1,
                    lanes: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reference.slots.len(), scenarios.len() * mc.samples);
        for threads in [1usize, 4] {
            for lanes in [1usize, 8] {
                for profiling in [false, true] {
                    let case = format!("threads={threads}, lanes={lanes}, profiling={profiling}");
                    let got = engine
                        .launch_scenarios(
                            &patterns,
                            &scenarios,
                            Some(&mc),
                            Some(500.0),
                            &SimOptions {
                                threads,
                                lanes,
                                profiling,
                                ..SimOptions::default()
                            },
                        )
                        .unwrap();
                    assert_eq!(got.slots, reference.slots, "{case}");
                    assert_eq!(got.diagnostics, reference.diagnostics, "{case}");
                    assert_eq!(got.scenario, reference.scenario, "{case}");
                    if profiling {
                        let profile = got.profile.as_ref().unwrap();
                        // 3 segments + 2 segments, × patterns × dice.
                        let segments = (3 + 2) as u64 * patterns.len() as u64 * mc.samples as u64;
                        assert_eq!(
                            profile.counter(phases::ENGINE_SCENARIO_SEGMENTS),
                            Some(segments),
                            "{case}"
                        );
                        assert_eq!(
                            profile.counter(phases::ENGINE_MC_SAMPLES),
                            Some(reference.slots.len() as u64),
                            "{case}"
                        );
                        assert!(
                            profile.counter(phases::ENGINE_VARIATION_DRAWS).unwrap() > 0,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// Segment selection snaps on the *cause* (input event) time: an
    /// event exactly at a boundary belongs to the later segment, one just
    /// before it to the earlier — checked through a two-inverter chain
    /// whose second stage's input event lands exactly on the boundary.
    #[test]
    fn boundary_event_snaps_to_later_segment() {
        let n = chain_netlist();
        let engine = voltage_scaled_engine(&n, 10.0, 10.0);
        let space = ParameterSpace::paper();
        let c_min = space.load_range().0;
        let f = |v: f64| 1.5 - space.normalize_clamped(OperatingPoint::new(v, c_min)).v;
        let (v0, v1) = (0.7, 1.0);
        // Input flips at t = 0 (segment 0): g1's output lands at t1.
        let t1 = 10.0 * f(v0);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let run_with_boundary = |boundary: f64| {
            let scenarios = [ScenarioSpec {
                pattern: 0,
                schedule: Schedule::steps([(0.0, v0), (boundary, v1)]),
            }];
            let run = engine
                .launch_scenarios(&one_pattern(), &scenarios, None, None, &opts)
                .unwrap();
            run.slots[0].latest_output_transition_ps.unwrap()
        };
        // Boundary exactly at g2's input event: the event sees the
        // *later* (faster) segment.
        let at = run_with_boundary(t1);
        assert!(
            (at - (t1 + 10.0 * f(v1))).abs() < 1e-9,
            "boundary event must use the later segment: got {at}"
        );
        // Boundary just after the event: still the earlier segment.
        let after = run_with_boundary(t1 + 0.01);
        assert!(
            (after - (t1 + 10.0 * f(v0))).abs() < 1e-9,
            "pre-boundary event must use the earlier segment: got {after}"
        );
    }

    /// Monte Carlo draws replay exactly from the seed (pure hashes, no
    /// stateful RNG), a different seed draws different dice, and a
    /// zero-sigma die is bit-identical to the variation-free run.
    #[test]
    fn mc_replays_exactly_from_seed() {
        let lib = CellLibrary::nangate15_like();
        let cfg = avfs_circuits::GeneratorConfig::small();
        let n = Arc::new(avfs_circuits::random_netlist("rnd", &cfg, &lib, 47).unwrap());
        let engine = voltage_scaled_engine(&n, 8.0, 9.0);
        let patterns = PatternSet::lfsr(n.inputs().len(), 2, 3);
        let scenarios = cross_schedules(patterns.len(), &[Schedule::droop(0.9, 0.1, 15.0, 60.0)]);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let mc = |sigma: f64, seed: u64| MonteCarlo {
            samples: 4,
            variation: VariationConfig {
                sigma,
                max_deviation: 0.25,
                seed,
            },
        };
        let a = engine
            .launch_scenarios(&patterns, &scenarios, Some(&mc(0.08, 7)), None, &opts)
            .unwrap();
        let b = engine
            .launch_scenarios(&patterns, &scenarios, Some(&mc(0.08, 7)), None, &opts)
            .unwrap();
        assert_eq!(a.slots, b.slots, "same seed must replay exactly");
        assert_eq!(a.scenario, b.scenario);
        let c = engine
            .launch_scenarios(&patterns, &scenarios, Some(&mc(0.08, 8)), None, &opts)
            .unwrap();
        assert_ne!(
            a.slots
                .iter()
                .map(|s| s.latest_output_transition_ps)
                .collect::<Vec<_>>(),
            c.slots
                .iter()
                .map(|s| s.latest_output_transition_ps)
                .collect::<Vec<_>>(),
            "a different seed must draw different dice"
        );
        // Zero sigma: derates are exactly 1.0, so the sampled run is the
        // variation-free run bit for bit (slot-for-slot: each scenario's
        // single nominal die).
        let nominal = engine
            .launch_scenarios(
                &patterns,
                &scenarios,
                Some(&MonteCarlo {
                    samples: 1,
                    variation: VariationConfig {
                        sigma: 0.0,
                        max_deviation: 0.25,
                        seed: 99,
                    },
                }),
                None,
                &opts,
            )
            .unwrap();
        let plain = engine
            .launch_scenarios(&patterns, &scenarios, None, None, &opts)
            .unwrap();
        assert_eq!(nominal.slots, plain.slots);
    }

    #[test]
    fn malformed_scenarios_rejected() {
        let n = chain_netlist();
        let engine = voltage_scaled_engine(&n, 10.0, 10.0);
        let patterns = one_pattern();
        let opts = SimOptions::default();
        let launch = |schedule: Schedule| {
            engine.launch_scenarios(
                &patterns,
                &[ScenarioSpec {
                    pattern: 0,
                    schedule,
                }],
                None,
                None,
                &opts,
            )
        };
        // Structurally un-lowerable shapes: refused in every validation
        // mode (the segment lookup has no semantics for them).
        for (name, schedule) in [
            ("empty", Schedule { segments: vec![] }),
            (
                "unsorted",
                Schedule::steps([(0.0, 0.8), (50.0, 0.7), (40.0, 0.9)]),
            ),
            (
                "duplicate",
                Schedule::steps([(0.0, 0.8), (50.0, 0.7), (50.0, 0.9)]),
            ),
            ("nan-start", Schedule::steps([(0.0, 0.8), (f64::NAN, 0.7)])),
        ] {
            match launch(schedule) {
                Err(SimError::InvalidSchedule { slot: 0, .. }) => {}
                other => panic!("{name}: expected InvalidSchedule, got {other:?}"),
            }
        }
        // Voltage problems: the same refusal a static slot gets.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.8] {
            match launch(Schedule::steps([(0.0, 0.8), (10.0, bad)])) {
                Err(SimError::InvalidOperatingPoint { slot: 0, .. }) => {}
                other => panic!("expected InvalidOperatingPoint, got {other:?}"),
            }
        }
        // Empty launches.
        assert_eq!(
            engine
                .launch_scenarios(&patterns, &[], None, None, &opts)
                .unwrap_err(),
            SimError::EmptySlots
        );
        assert_eq!(
            engine
                .launch_scenarios(
                    &patterns,
                    &[ScenarioSpec {
                        pattern: 0,
                        schedule: Schedule::constant(0.8),
                    }],
                    Some(&MonteCarlo {
                        samples: 0,
                        variation: VariationConfig::sigma5(0),
                    }),
                    None,
                    &opts,
                )
                .unwrap_err(),
            SimError::EmptySlots
        );
        // Pattern index out of range.
        match engine.launch_scenarios(
            &patterns,
            &[ScenarioSpec {
                pattern: 7,
                schedule: Schedule::constant(0.8),
            }],
            None,
            None,
            &opts,
        ) {
            Err(SimError::BadPatternIndex {
                index: 7,
                available: 1,
            }) => {}
            other => panic!("expected BadPatternIndex, got {other:?}"),
        }
    }

    /// Repairable schedule findings — an unanchored first segment
    /// (`AVC-N010`, lowering extends it back to `t = 0`) and supplies
    /// outside the characterized range (`AVC-D006`, the kernel clamps) —
    /// follow `SimOptions::strict_validation` instead of hard-failing:
    /// recorded under `Warn`, refused under `Deny`, silent under `Off`.
    #[test]
    fn repairable_schedules_follow_validation_mode() {
        let n = chain_netlist();
        let engine = voltage_scaled_engine(&n, 10.0, 10.0);
        let patterns = one_pattern();
        let launch = |schedule: Schedule, mode: ValidationMode| {
            engine.launch_scenarios(
                &patterns,
                &[ScenarioSpec {
                    pattern: 0,
                    schedule,
                }],
                None,
                None,
                &SimOptions {
                    strict_validation: mode,
                    ..SimOptions::default()
                },
            )
        };
        // The paper space characterizes [0.55, 1.1] V; 1.3 V clamps.
        let cases = [
            ("AVC-N010", Schedule::steps([(5.0, 0.8), (20.0, 0.7)])),
            ("AVC-D006", Schedule::steps([(0.0, 0.8), (20.0, 1.3)])),
        ];
        for (rule, schedule) in &cases {
            // Warn (the default): the run proceeds, the finding lands in
            // the diagnostics.
            let run = launch(schedule.clone(), ValidationMode::Warn).unwrap();
            assert!(
                run.diagnostics
                    .validation_findings
                    .iter()
                    .any(|f| f.contains(rule)),
                "{rule} missing from {:?}",
                run.diagnostics.validation_findings
            );
            assert!(run.slots[0].status.is_completed());
            // Deny: the same launch is refused, carrying the finding.
            match launch(schedule.clone(), ValidationMode::Deny) {
                Err(SimError::Validation { findings }) => {
                    assert!(findings.iter().any(|f| f.contains(rule)), "{findings:?}");
                }
                other => panic!("{rule}: expected Validation refusal, got {other:?}"),
            }
            // Off: runs, records nothing.
            let off = launch(schedule.clone(), ValidationMode::Off).unwrap();
            assert!(off.diagnostics.validation_findings.is_empty());
        }
        // An unanchored schedule still lowers soundly: segment 0 extends
        // back to the launch instant, so this two-segment trace equals
        // the anchored trace with the same boundary.
        let unanchored = launch(
            Schedule::steps([(5.0, 0.8), (20.0, 0.7)]),
            ValidationMode::Warn,
        )
        .unwrap();
        let anchored = launch(
            Schedule::steps([(0.0, 0.8), (20.0, 0.7)]),
            ValidationMode::Warn,
        )
        .unwrap();
        assert_eq!(unanchored.slots, anchored.slots);
    }

    /// The failure-probability reduction against a capture deadline:
    /// lower supplies are slower under the voltage-scaled kernel, so a
    /// deadline between the two arrival times separates the curve.
    #[test]
    fn scenario_summary_separates_voltages_at_a_deadline() {
        let n = chain_netlist();
        let engine = voltage_scaled_engine(&n, 10.0, 10.0);
        let space = ParameterSpace::paper();
        let c_min = space.load_range().0;
        let f = |v: f64| 1.5 - space.normalize_clamped(OperatingPoint::new(v, c_min)).v;
        let (slow_v, fast_v) = (0.6, 1.0);
        let deadline = 20.0 * (f(slow_v) + f(fast_v)) / 2.0;
        let scenarios =
            cross_schedules(1, &[Schedule::constant(slow_v), Schedule::constant(fast_v)]);
        let run = engine
            .launch_scenarios(
                &one_pattern(),
                &scenarios,
                None,
                Some(deadline),
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        let summary = run.scenario.as_ref().unwrap();
        assert_eq!(summary.capture_deadline_ps, Some(deadline));
        assert_eq!(summary.points.len(), 2);
        let slow = summary.points.iter().find(|p| p.voltage == slow_v).unwrap();
        let fast = summary.points.iter().find(|p| p.voltage == fast_v).unwrap();
        assert_eq!((slow.samples, slow.failures), (1, 1), "slow slot misses");
        assert!((slow.p_fail - 1.0).abs() < 1e-12);
        assert_eq!((fast.samples, fast.failures), (1, 0), "fast slot makes it");
        assert_eq!(fast.p_fail, 0.0);
    }
}
