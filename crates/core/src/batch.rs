//! Cross-run batch execution: a parked worker pool and bounded artifact
//! caches — the server-shaped front half of the compile-once /
//! simulate-many split.
//!
//! Where a [`Session`](crate::session::Session) binds one compiled
//! artifact to one pool, a [`BatchRunner`] is the amortization hub for a
//! whole workload:
//!
//! * **pool reuse** — one worker pool, spawned at construction, serves
//!   every run (runs serialize on an internal lock; the queue depth is
//!   instrumented);
//! * **artifact caching** — compiled netlists and characterized
//!   libraries live in bounded LRUs keyed by
//!   [`CompileKey`] = (netlist hash, library hash, corner), with
//!   `engine.compile_{hits,misses}` counters riding `avfs-obs`.
//!
//! A run is exactly a [`CompiledNetlist::launch`] (or
//! [`CompiledNetlist::launch_scenarios`]) on the parked pool: the same
//! preparation, validation and waveform-budget batch loop, so deadlines,
//! fault-injection keys, diagnostics and profiles cover the whole grid,
//! and slots and diagnostics are bit-for-bit those of a bare launch.

use crate::compile::CompiledNetlist;
use crate::engine::{Grid, SimOptions};
use crate::phases;
use crate::pool::Workers;
use crate::results::SimRun;
use crate::scenario::{MonteCarlo, ScenarioSpec};
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::CharacterizedLibrary;
use avfs_netlist::Netlist;
use avfs_obs::{Metrics, Profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key of one compiled artifact: what the compile step actually
/// depends on — the netlist's structure, the characterized library's
/// fitted content, and a caller-chosen corner label (annotation corner,
/// characterization config, anything that distinguishes otherwise
/// identical inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    netlist: u64,
    library: u64,
    corner: u64,
}

impl CompileKey {
    /// Builds a key from pre-computed content hashes and a corner label.
    pub fn new(netlist_hash: u64, library_hash: u64, corner: &str) -> CompileKey {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_str(corner);
        CompileKey {
            netlist: netlist_hash,
            library: library_hash,
            corner: h.finish(),
        }
    }

    /// Convenience: keys a (netlist, characterized library, corner)
    /// triple by content hash.
    pub fn of(netlist: &Netlist, library: &CharacterizedLibrary, corner: &str) -> CompileKey {
        CompileKey::new(netlist.content_hash(), library.content_hash(), corner)
    }
}

/// A bounded LRU over a small linear-scan table — caches hold a handful
/// of multi-megabyte artifacts, so scan cost is noise and zero
/// dependencies beat an ordered map. Shared with the engine's
/// per-voltage delay-table cache
/// ([`CompiledNetlist::delay_table`](crate::CompiledNetlist)).
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    cap: usize,
    tick: u64,
    entries: Vec<(K, V, u64)>,
}

impl<K: PartialEq + Copy, V> Lru<K, V> {
    pub(crate) fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
        }
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, t)| {
                *t = tick;
                &*v
            })
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            entry.1 = value;
            entry.2 = self.tick;
            return;
        }
        if self.entries.len() >= self.cap {
            // Evict the least recently used entry.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(i, _)| i)
                .expect("full cache has entries");
            self.entries.swap_remove(lru);
        }
        self.entries.push((key, value, self.tick));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A compile-and-launch hub: one parked worker pool plus bounded LRU
/// caches of compiled artifacts and characterized libraries, shared
/// across threads (`&self` everywhere; runs serialize internally).
///
/// ```
/// use avfs_core::{slots, BatchRunner, CompileKey, CompiledNetlist, SimOptions};
/// use avfs_atpg::PatternSet;
/// use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
/// use avfs_netlist::CellLibrary;
/// use std::sync::Arc;
///
/// let library = CellLibrary::nangate15_like();
/// let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library)?);
/// let runner = BatchRunner::new(1, 8);
/// let key = CompileKey::new(netlist.content_hash(), library.content_hash(), "typ");
/// let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
/// let slot_list = slots::at_voltage(patterns.len(), 0.8);
/// for _ in 0..3 {
///     // Compiles once; the two later iterations are cache hits.
///     let compiled = runner.compile(key, || {
///         CompiledNetlist::compile(
///             Arc::clone(&netlist),
///             Arc::new(TimingAnnotation::zero(&netlist)),
///             Arc::new(StaticModel::new(ParameterSpace::paper())),
///         )
///     })?;
///     runner.run(&compiled, &patterns, &slot_list, &SimOptions::default())?;
/// }
/// assert_eq!(runner.compile_misses(), 1);
/// assert_eq!(runner.compile_hits(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchRunner {
    /// The parked workers, resolved once at construction.
    workers: Workers,
    /// Serializes runs: the epoch-barrier pool admits one run at a time.
    run_lock: Mutex<()>,
    /// Runs currently waiting on (or holding) the run lock — sampled
    /// into the queue-depth histogram as each run gets in line.
    waiting: AtomicU64,
    artifacts: Mutex<Lru<CompileKey, Arc<CompiledNetlist>>>,
    libraries: Mutex<Lru<u64, Arc<CharacterizedLibrary>>>,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    library_hits: AtomicU64,
    library_misses: AtomicU64,
    /// The runner's own instrument registry (cache and queue
    /// instruments; per-run engine profiles remain per run).
    metrics: Metrics,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (0 resolves to available
    /// parallelism once, here) and at most `cache_capacity` entries in
    /// each artifact cache (clamped to at least 1).
    pub fn new(threads: usize, cache_capacity: usize) -> BatchRunner {
        BatchRunner {
            workers: Workers::new(threads),
            run_lock: Mutex::new(()),
            waiting: AtomicU64::new(0),
            artifacts: Mutex::new(Lru::new(cache_capacity)),
            libraries: Mutex::new(Lru::new(cache_capacity)),
            compile_hits: AtomicU64::new(0),
            compile_misses: AtomicU64::new(0),
            library_hits: AtomicU64::new(0),
            library_misses: AtomicU64::new(0),
            metrics: Metrics::new("engine"),
        }
    }

    /// The worker count resolved at construction.
    pub fn threads(&self) -> usize {
        self.workers.threads()
    }

    /// Returns the cached artifact for `key`, or compiles it via
    /// `build` and caches the result. The build runs *outside* the cache
    /// lock, so a slow compile never blocks hits on other keys — and a
    /// failed (or panicking) compile caches nothing and poisons
    /// nothing: the next request for the same key simply builds again.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; the cache is left untouched on `Err`.
    pub fn compile(
        &self,
        key: CompileKey,
        build: impl FnOnce() -> Result<CompiledNetlist, SimError>,
    ) -> Result<Arc<CompiledNetlist>, SimError> {
        if let Some(hit) = self
            .artifacts
            .lock()
            .expect("artifact cache lock")
            .get(&key)
        {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.add(phases::ENGINE_COMPILE_HITS, 1);
            return Ok(Arc::clone(hit));
        }
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.add(phases::ENGINE_COMPILE_MISSES, 1);
        let built = Arc::new(build()?);
        let mut cache = self.artifacts.lock().expect("artifact cache lock");
        cache.insert(key, Arc::clone(&built));
        self.metrics
            .set_gauge(phases::ENGINE_CACHE_OCCUPANCY, cache.len() as f64);
        Ok(built)
    }

    /// Returns the cached characterized library for `library_hash`, or
    /// builds and caches it — the SetupKit-shaped half of amortization:
    /// one characterization serves every corner and netlist that shares
    /// the library. Same non-caching failure semantics as
    /// [`BatchRunner::compile`].
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; the cache is left untouched on `Err`.
    pub fn characterized<E>(
        &self,
        library_hash: u64,
        build: impl FnOnce() -> Result<CharacterizedLibrary, E>,
    ) -> Result<Arc<CharacterizedLibrary>, E> {
        if let Some(hit) = self
            .libraries
            .lock()
            .expect("library cache lock")
            .get(&library_hash)
        {
            self.library_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.add(phases::ENGINE_LIBRARY_HITS, 1);
            return Ok(Arc::clone(hit));
        }
        self.library_misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.add(phases::ENGINE_LIBRARY_MISSES, 1);
        let built = Arc::new(build()?);
        self.libraries
            .lock()
            .expect("library cache lock")
            .insert(library_hash, Arc::clone(&built));
        Ok(built)
    }

    /// Artifact-cache hits so far.
    pub fn compile_hits(&self) -> u64 {
        self.compile_hits.load(Ordering::Relaxed)
    }

    /// Artifact-cache misses (= compiles actually performed) so far.
    pub fn compile_misses(&self) -> u64 {
        self.compile_misses.load(Ordering::Relaxed)
    }

    /// Library-cache hits so far.
    pub fn library_hits(&self) -> u64 {
        self.library_hits.load(Ordering::Relaxed)
    }

    /// Library-cache misses so far.
    pub fn library_misses(&self) -> u64 {
        self.library_misses.load(Ordering::Relaxed)
    }

    /// Snapshot of the runner's instrument registry
    /// (`engine.compile_{hits,misses}`, `engine.library_{hits,misses}`,
    /// `engine.batch_runs`, queue depth, cache occupancy).
    pub fn profile(&self) -> Profile {
        self.metrics.snapshot()
    }

    /// Simulates `slots` over `patterns` on the parked pool, exactly as
    /// a [`CompiledNetlist::launch`] of the same grid does: slots and
    /// diagnostics are bit-for-bit identical, and a profiled run carries
    /// its profile.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledNetlist::launch`], plus
    /// [`SimError::ThreadMismatch`] for a per-run
    /// [`SimOptions::threads`] override that differs from the runner's
    /// pool.
    pub fn run(
        &self,
        compiled: &Arc<CompiledNetlist>,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.queued(|workers| {
            compiled.execute(patterns, Grid::Uniform(slots), options, Some(workers))
        })
    }

    /// Simulates piecewise-scheduled scenarios (optionally Monte Carlo
    /// sampled) on the parked pool, bit-for-bit identical to a
    /// [`CompiledNetlist::launch_scenarios`] of the same scenarios
    /// (summary included) — see there for semantics and errors, plus
    /// [`SimError::ThreadMismatch`] as for [`BatchRunner::run`].
    pub fn run_scenarios(
        &self,
        compiled: &Arc<CompiledNetlist>,
        patterns: &PatternSet,
        scenarios: &[ScenarioSpec],
        mc: Option<&MonteCarlo>,
        capture_deadline_ps: Option<f64>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let grid = Grid::Scenarios {
            scenarios,
            mc,
            capture_deadline_ps,
        };
        self.queued(|workers| compiled.execute(patterns, grid, options, Some(workers)))
    }

    /// Runs `launch` on the parked workers once this caller holds the
    /// run lock, recording the queue depth it found on arrival.
    fn queued(
        &self,
        launch: impl FnOnce(&Workers) -> Result<SimRun, SimError>,
    ) -> Result<SimRun, SimError> {
        let depth = self.waiting.fetch_add(1, Ordering::Relaxed);
        let _guard = self.run_lock.lock().expect("run lock");
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        self.metrics.record(phases::ENGINE_BATCH_QUEUE_DEPTH, depth);
        self.metrics.add(phases::ENGINE_BATCH_RUNS, 1);
        launch(&self.workers)
    }
}

impl std::fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("threads", &self.threads())
            .field("compile_hits", &self.compile_hits())
            .field("compile_misses", &self.compile_misses())
            .finish()
    }
}

// The runner is the intended cross-thread amortization point.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BatchRunner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::cross;
    use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
    use avfs_netlist::CellLibrary;

    /// Uniform nonzero gate delays: the adder's carry chain then
    /// staggers arrivals and glitches internal nets, giving the
    /// tight-arena scenario real multi-transition waveforms.
    fn adder_annotation(netlist: &Arc<avfs_netlist::Netlist>) -> TimingAnnotation {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), avfs_netlist::NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = avfs_waveform::PinDelays {
                        rise: 10.0,
                        fall: 7.0,
                    };
                }
            }
        }
        ann
    }

    fn compiled_adder() -> Arc<CompiledNetlist> {
        Arc::new(build_adder().unwrap())
    }

    fn adder_key(corner: &str) -> CompileKey {
        let library = CellLibrary::nangate15_like();
        let netlist = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        CompileKey::new(netlist.content_hash(), library.content_hash(), corner)
    }

    fn build_adder() -> Result<CompiledNetlist, SimError> {
        let library = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::ripple_carry_adder(8, &library).unwrap());
        let annotation = adder_annotation(&netlist);
        CompiledNetlist::compile(
            Arc::clone(&netlist),
            Arc::new(annotation),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
    }

    /// `BatchRunner ≡ CompiledNetlist::launch{,_scenarios}`: a runner run
    /// is a bare launch on a parked pool. Across threads (1, 4) × lanes
    /// (1, 8), in a normal, a tight-arena (quarantine-and-retry) and an
    /// armed kernel-panic scenario, under a waveform budget that splits
    /// every grid into 3 arena batches, slots, diagnostics, node
    /// evaluations and the scenario summary are bit-identical to the
    /// single-threaded bare launch — fault-injection keys included, since
    /// they are grid indexes of the one work list. A profiled run returns
    /// the profile of all 3 batches.
    #[test]
    fn batch_runner_matches_bare_launch_matrix() {
        use crate::scenario::{cross_schedules, MonteCarlo, Schedule};
        use avfs_inject::{FaultPlan, InjectionSite};
        let compiled = compiled_adder();
        let nodes = compiled.netlist().num_nodes();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 10, 7);
        let slot_list = cross(patterns.len(), &[0.7, 0.8]); // 20 slots
        let scenarios = cross_schedules(
            5,
            &[
                Schedule::droop(0.8, 0.1, 20.0, 70.0),
                Schedule::constant(0.7),
            ],
        );
        let mc = MonteCarlo {
            samples: 2, // 5 patterns x 2 schedules x 2 dice = 20 slots
            variation: avfs_delay::VariationConfig {
                sigma: 0.06,
                max_deviation: 0.2,
                seed: 0xA11CE,
            },
        };
        let deadline = Some(120.0);
        let plan = Arc::new(FaultPlan::empty(5).with_rate(InjectionSite::KernelPanic, 0.3));
        let cases: [(&str, SimOptions); 3] = [
            ("normal", SimOptions::default()),
            (
                "tight-arena",
                SimOptions {
                    // Capacity 1 overflows glitchy carry-chain nets and
                    // exercises quarantine-and-retry.
                    arena_capacity: 1,
                    ..SimOptions::default()
                },
            ),
            (
                "kernel-panic",
                SimOptions {
                    fault_plan: Some(Arc::clone(&plan)),
                    ..SimOptions::default()
                },
            ),
        ];
        for (name, base) in cases {
            // 7 slots per round-0 arena batch: 20 slots run as 7 + 7 + 6.
            let base = SimOptions {
                waveform_budget: nodes * base.resolved_arena_capacity() * 7,
                ..base
            };
            let single = SimOptions {
                threads: 1,
                ..base.clone()
            };
            let reference = compiled.launch(&patterns, &slot_list, &single).unwrap();
            let scenario_reference = compiled
                .launch_scenarios(&patterns, &scenarios, Some(&mc), deadline, &single)
                .unwrap();
            match name {
                "tight-arena" => assert!(reference.diagnostics.slot_retries > 0),
                "kernel-panic" => assert!(!reference.diagnostics.panicked_slots.is_empty()),
                _ => {}
            }
            for threads in [1usize, 4] {
                let runner = BatchRunner::new(threads, 4);
                for lanes in [1usize, 8] {
                    let label = format!("{name} threads={threads} lanes={lanes}");
                    let options = SimOptions {
                        lanes,
                        ..base.clone()
                    };
                    let run = runner
                        .run(&compiled, &patterns, &slot_list, &options)
                        .unwrap();
                    assert_eq!(run.slots, reference.slots, "{label}");
                    assert_eq!(run.diagnostics, reference.diagnostics, "{label}");
                    assert_eq!(run.node_evaluations, reference.node_evaluations, "{label}");
                    let run = runner
                        .run_scenarios(
                            &compiled,
                            &patterns,
                            &scenarios,
                            Some(&mc),
                            deadline,
                            &options,
                        )
                        .unwrap();
                    let want = &scenario_reference;
                    assert_eq!(run.slots, want.slots, "scenarios {label}");
                    assert_eq!(run.diagnostics, want.diagnostics, "scenarios {label}");
                    assert_eq!(
                        run.node_evaluations, want.node_evaluations,
                        "scenarios {label}"
                    );
                    assert_eq!(run.scenario, want.scenario, "scenarios {label}");
                }
                let profiled = runner
                    .run(
                        &compiled,
                        &patterns,
                        &slot_list,
                        &SimOptions {
                            profiling: true,
                            ..base.clone()
                        },
                    )
                    .unwrap();
                assert_eq!(profiled.slots, reference.slots, "{name} threads={threads}");
                let profile = profiled
                    .profile
                    .expect("a profiled run returns its profile");
                if name != "tight-arena" {
                    assert_eq!(profile.counter(phases::ENGINE_BATCHES), Some(3), "{name}");
                }
            }
        }
    }

    #[test]
    fn thread_override_mismatch_is_rejected() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 2, 7);
        let slot_list = cross(patterns.len(), &[0.8]);
        let runner = BatchRunner::new(2, 4);
        let err = runner
            .run(
                &compiled,
                &patterns,
                &slot_list,
                &SimOptions {
                    threads: 8,
                    ..SimOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ThreadMismatch {
                pool: 2,
                requested: 8
            }
        );
    }

    #[test]
    fn cache_hit_miss_and_eviction() {
        let runner = BatchRunner::new(1, 2);
        let (k1, k2, k3) = (adder_key("fast"), adder_key("typ"), adder_key("slow"));
        assert_ne!(k1, k2, "corner label discriminates keys");
        let a = runner.compile(k1, build_adder).unwrap();
        let b = runner.compile(k1, build_adder).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the cached artifact");
        assert_eq!((runner.compile_hits(), runner.compile_misses()), (1, 1));
        runner.compile(k2, build_adder).unwrap();
        // Touch k1 so k2 is the least recently used entry...
        runner.compile(k1, build_adder).unwrap();
        // ...and a third key evicts k2 from the 2-entry cache.
        runner.compile(k3, build_adder).unwrap();
        let c = runner.compile(k1, build_adder).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "k1 survived eviction");
        runner.compile(k2, build_adder).unwrap(); // evicted → rebuilt
        assert_eq!((runner.compile_hits(), runner.compile_misses()), (3, 4));
    }

    #[test]
    fn cache_shares_one_arc_across_threads() {
        let runner = Arc::new(BatchRunner::new(1, 4));
        let key = adder_key("typ");
        let first = runner.compile(key, build_adder).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let runner = Arc::clone(&runner);
                    let first = Arc::clone(&first);
                    scope.spawn(move || {
                        let got = runner.compile(key, build_adder).unwrap();
                        assert!(Arc::ptr_eq(&got, &first), "same artifact on every thread");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(runner.compile_hits(), 4);
        assert_eq!(runner.compile_misses(), 1);
    }

    #[test]
    fn failed_and_panicking_compiles_cache_nothing() {
        let runner = BatchRunner::new(1, 4);
        let key = adder_key("typ");
        let err = runner
            .compile(key, || Err(SimError::AnnotationMismatch))
            .unwrap_err();
        assert_eq!(err, SimError::AnnotationMismatch);
        // The build runs outside the cache lock, so a panicking compile
        // cannot poison the cache either.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = runner.compile(key, || panic!("injected compile panic"));
        }));
        assert!(panicked.is_err());
        // Neither failure was cached: the next compile builds again and
        // succeeds, and from then on the key hits.
        let built = runner.compile(key, build_adder).unwrap();
        let again = runner.compile(key, build_adder).unwrap();
        assert!(Arc::ptr_eq(&built, &again));
        assert_eq!(runner.compile_hits(), 1);
        assert_eq!(runner.compile_misses(), 3);
    }

    #[test]
    fn library_cache_follows_the_same_protocol() {
        let runner = BatchRunner::new(1, 2);
        let library = CellLibrary::nangate15_like();
        let hash = library.content_hash();
        let build = || {
            let ids = [library.find("INV_X1").unwrap()];
            avfs_delay::characterize_library(
                &library,
                &avfs_spice::Technology::nm15(),
                &avfs_delay::characterize::CharacterizationConfig::fast(),
                Some(&ids),
            )
        };
        let a = runner.characterized(hash, build).unwrap();
        let b = runner.characterized(hash, build).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((runner.library_hits(), runner.library_misses()), (1, 1));
        // The characterized library's own content hash is stable and
        // usable as a CompileKey component.
        assert_eq!(a.content_hash(), b.content_hash());
        let key = CompileKey::of(
            &avfs_circuits::ripple_carry_adder(2, &library).unwrap(),
            &a,
            "typ",
        );
        assert_eq!(
            key,
            CompileKey::of(
                &avfs_circuits::ripple_carry_adder(2, &library).unwrap(),
                &a,
                "typ"
            )
        );
    }

    /// Content hashes are stable across rebuilds and sensitive to
    /// structural perturbation — the property the cache key rests on.
    #[test]
    fn content_hashes_discriminate() {
        let library = CellLibrary::nangate15_like();
        let a = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        let b = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        assert_eq!(a.content_hash(), b.content_hash(), "rebuild is stable");
        let c = avfs_circuits::ripple_carry_adder(9, &library).unwrap();
        assert_ne!(a.content_hash(), c.content_hash(), "structure changes hash");
        let zero = TimingAnnotation::zero(&a);
        let mut loads = vec![1.0; a.num_nodes()];
        loads[0] = 1.5;
        let perturbed = TimingAnnotation::from_parts(
            a.nodes()
                .iter()
                .map(|n| vec![avfs_waveform::PinDelays::default(); n.fanin().len()])
                .collect(),
            loads,
        );
        assert_ne!(
            zero.content_hash(),
            perturbed.content_hash(),
            "annotation content changes hash"
        );
    }
}
