//! Cross-version golden digests of the voltage-scaled delay resolution.
//!
//! Every launch kind that resolves delays differently — uniform supplies,
//! droop schedules, Monte Carlo dice, voltage islands and armed fault
//! plans — is run once over a polynomial model whose factors depend on
//! both the supply and the load, and its results are folded into one FNV
//! digest. The expected values were recorded from an earlier
//! implementation of the delay initialization; a refactor of that phase
//! must reproduce them bit for bit.

use avfs::atpg::PatternSet;
use avfs::circuits::{random_netlist, GeneratorConfig};
use avfs::delay::{
    CoefficientTable, ParameterSpace, PolynomialModel, SurfacePolynomial, TimingAnnotation,
    VariationConfig,
};
use avfs::inject::{FaultPlan, InjectionSite};
use avfs::netlist::{CellLibrary, Netlist, NodeKind};
use avfs::sim::{
    cross, cross_schedules, CompiledNetlist, DomainSlotSpec, MonteCarlo, Schedule, SimOptions,
    SimRun, VoltageDomains,
};
use avfs::waveform::PinDelays;
use std::sync::Arc;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything a delay-resolution change could move: per slot
/// the status, responses, latest output transition (bits) and activity,
/// plus the run's fallback, injection, panic and evaluation tallies.
fn digest(run: &SimRun) -> u64 {
    let mut h = Fnv::new();
    for slot in &run.slots {
        h.bytes(format!("{:?}", slot.status).as_bytes());
        for &r in &slot.responses {
            h.bytes(&[u8::from(r)]);
        }
        h.u64(
            slot.latest_output_transition_ps
                .map_or(u64::MAX, f64::to_bits),
        );
        let a = &slot.activity;
        h.u64(a.total_transitions as u64);
        h.u64(a.total_glitch_transitions as u64);
        h.u64(a.active_nets as u64);
        h.u64(a.nets as u64);
        h.u64(a.latest_transition.map_or(u64::MAX, f64::to_bits));
    }
    let d = &run.diagnostics;
    h.u64(d.kernel_fallbacks);
    h.u64(d.faults_injected);
    h.u64(d.panicked_slots.len() as u64);
    for &s in &d.panicked_slots {
        h.u64(s as u64);
    }
    h.u64(run.node_evaluations);
    h.0
}

/// A cubic polynomial model with a distinct supply- and load-dependent
/// surface per (cell, pin, polarity), so every lane of the delay kernel
/// computes a different factor.
fn polynomial_model(library: &CellLibrary) -> PolynomialModel {
    const ORDER: usize = 3;
    let mut table = CoefficientTable::new(library.len(), ORDER);
    for (id, cell) in library.iter() {
        let k = id.index() as f64;
        let surfaces: Vec<[SurfacePolynomial; 2]> = (0..cell.num_inputs())
            .map(|pin| {
                let surface = |polarity: f64| {
                    let coeffs: Vec<f64> = (0..(ORDER + 1) * (ORDER + 1))
                        .map(|i| {
                            let (vi, ci) = (i / (ORDER + 1), i % (ORDER + 1));
                            let base = match (vi, ci) {
                                (0, 0) => 0.35,
                                (1, 0) => -0.55,
                                (0, 1) => 0.12,
                                (2, 0) => 0.08,
                                _ => 0.0,
                            };
                            base + 0.003
                                * ((k + 1.7 * pin as f64 + polarity) * (i as f64 + 1.0)).sin()
                        })
                        .collect();
                    SurfacePolynomial::new(ORDER, coeffs).expect("order-3 surface")
                };
                [surface(0.0), surface(0.5)]
            })
            .collect();
        table.insert(id, &surfaces).expect("cell in range");
    }
    PolynomialModel::new(table, ParameterSpace::paper())
}

/// A deep random netlist with per-pin nominal delays and loads spread
/// across the characterized load interval.
fn golden_engine() -> (Arc<Netlist>, CompiledNetlist) {
    let library = CellLibrary::nangate15_like();
    let cfg = GeneratorConfig {
        nodes: 260,
        inputs: 18,
        outputs: 12,
        depth: 14,
        two_input_fraction: 0.7,
    };
    let netlist = Arc::new(random_netlist("golden", &cfg, &library, 23).expect("generates"));
    let mut ann = TimingAnnotation::zero(&netlist);
    let (c_lo, c_hi) = ParameterSpace::paper().load_range();
    for (id, node) in netlist.iter() {
        let n = id.index();
        if matches!(node.kind(), NodeKind::Gate(_)) {
            for (pin, d) in ann.node_delays_mut(id).iter_mut().enumerate() {
                *d = PinDelays {
                    rise: 4.0 + ((n * 7 + pin * 3) % 11) as f64 * 0.75,
                    fall: 5.0 + ((n * 5 + pin) % 13) as f64 * 0.6,
                };
            }
        }
        ann.set_load_ff(id, c_lo + (c_hi - c_lo) * ((n * 37) % 101) as f64 / 100.0);
    }
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::new(ann),
        Arc::new(polynomial_model(&library)),
    )
    .expect("compiles");
    (netlist, engine)
}

fn options() -> SimOptions {
    SimOptions {
        threads: 2,
        ..SimOptions::default()
    }
}

fn droop_schedules() -> Vec<Schedule> {
    vec![
        Schedule::droop(0.8, 0.15, 6.0, 28.0),
        Schedule::steps([(0.0, 0.65), (9.0, 1.0), (21.0, 0.6)]),
    ]
}

fn check(case: &str, run: &SimRun, expected: u64) {
    let got = digest(run);
    assert_eq!(
        got, expected,
        "{case}: digest {got:#018x} differs from the recorded {expected:#018x}"
    );
}

#[test]
fn uniform_multi_voltage_launch() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 6, 3);
    let slots = cross(patterns.len(), &[0.55, 0.62, 0.7, 0.8, 0.95, 1.1]);
    let run = engine.launch(&patterns, &slots, &options()).expect("runs");
    check("uniform", &run, 0x771f_35f7_a7b7_e0c5);
}

#[test]
fn droop_schedule_launch() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 6, 5);
    let scenarios = cross_schedules(patterns.len(), &droop_schedules());
    let run = engine
        .launch_scenarios(&patterns, &scenarios, None, None, &options())
        .expect("runs");
    check("droop", &run, 0x6052_540e_dcd8_6de2);
}

#[test]
fn monte_carlo_dice_across_two_schedules() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 3, 9);
    let mut schedules = droop_schedules();
    schedules.truncate(1);
    schedules.push(Schedule::constant(0.7));
    let scenarios = cross_schedules(patterns.len(), &schedules);
    let mc = MonteCarlo {
        samples: 5,
        variation: VariationConfig::sigma5(41),
    };
    let run = engine
        .launch_scenarios(&patterns, &scenarios, Some(&mc), None, &options())
        .expect("runs");
    check("monte carlo", &run, 0x6933_7ad9_2f3d_a2e2);
}

#[test]
fn voltage_island_launch() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 13);
    let domains = VoltageDomains::by_output_cones(&netlist, 3);
    let specs: Vec<DomainSlotSpec> = [[0.6, 0.8, 1.0], [1.1, 0.55, 0.7], [0.8, 0.8, 0.8]]
        .iter()
        .flat_map(|v| {
            (0..patterns.len()).map(move |pattern| DomainSlotSpec {
                pattern,
                voltages: v.to_vec(),
            })
        })
        .collect();
    let run = engine
        .launch_domains(&patterns, &domains, &specs, &options())
        .expect("runs");
    check("islands", &run, 0x9505_380a_13e1_b2e4);
}

#[test]
fn non_finite_kernel_fault_plan() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 6, 17);
    let slots = cross(patterns.len(), &[0.6, 0.8, 1.0]);
    let plan = FaultPlan::empty(77).with_rate(InjectionSite::NonFiniteKernel, 0.4);
    let run = engine
        .launch(
            &patterns,
            &slots,
            &SimOptions {
                fault_plan: Some(Arc::new(plan)),
                ..options()
            },
        )
        .expect("runs");
    assert!(run.diagnostics.faults_injected > 0, "the plan fires");
    check("non-finite kernel", &run, 0xdbbc_00d1_4143_9845);
}

#[test]
fn zero_rate_armed_plan() {
    let (netlist, engine) = golden_engine();
    let patterns = PatternSet::lfsr(netlist.inputs().len(), 3, 19);
    let scenarios = cross_schedules(patterns.len(), &droop_schedules());
    let mc = MonteCarlo {
        samples: 2,
        variation: VariationConfig::sigma5(3),
    };
    let run = engine
        .launch_scenarios(
            &patterns,
            &scenarios,
            Some(&mc),
            None,
            &SimOptions {
                fault_plan: Some(Arc::new(FaultPlan::empty(5))),
                ..options()
            },
        )
        .expect("runs");
    check("zero-rate armed", &run, 0xa477_1618_a838_68fc);
}
