//! Tests of the benchmark's own helpers, and a seconds-long end-to-end
//! run of every workload on an 8-bit adder.

use avfs_core::{SlotResult, SlotSpec, SlotStatus};
use avfs_obs::Json;
use avfs_waveform::SwitchingActivity;
use perfbench::digest;
use perfbench::report::{valid_name, valid_unit, Outcome, END_TO_END, PER_LAYER};
use perfbench::stats::{median, quartiles, tail};
use perfbench::trace::Tracer;
use perfbench::workload::{self, Config, Size, Workload};
use std::collections::BTreeSet;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Many samples: the ladder's top, p95.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&v).expect("samples");
    assert_eq!((t.value, t.percentile, t.samples), (950.0, 95.0, 1000));
    // 199 samples: p95 leaves only 9 beyond, p90 leaves 19.
    let v: Vec<f64> = (1..=199).map(f64::from).collect();
    assert_eq!(tail(&v).expect("samples").percentile, 90.0);
    // 100 samples: p90 leaves exactly 10 beyond.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&v).expect("samples").percentile, 90.0);
    // 20 samples: only the median leaves 10 beyond.
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    let t = tail(&v).expect("samples");
    assert_eq!((t.value, t.percentile), (10.0, 50.0));
    // Too few for any ladder percentile: the maximum, as p100.
    let t = tail(&[2.0, 9.0, 4.0]).expect("samples");
    assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
    assert!(tail(&[]).is_none());
}

#[test]
fn metric_names_are_validated() {
    for ok in ["setup_s", "engine.kernel_evals", "a-b", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "ä", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "%", "MEPS", "count"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(valid_unit(spec.unit), "{}", spec.unit);
        assert!(seen.insert(spec.name), "{} listed twice", spec.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let expect = |catalogue: &[perfbench::report::MetricSpec]| -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|s| {
                (
                    s.name.to_owned(),
                    s.unit.to_owned(),
                    s.better.as_str().to_owned(),
                )
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(END_TO_END));
    assert_eq!(listed("per_layer"), expect(PER_LAYER));
    for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

fn slot(latest: Option<f64>, responses: Vec<bool>) -> SlotResult {
    SlotResult {
        spec: SlotSpec {
            pattern: 0,
            voltage: 0.8,
        },
        status: SlotStatus::default(),
        responses,
        latest_output_transition_ps: latest,
        activity: SwitchingActivity::default(),
        waveforms: None,
    }
}

#[test]
fn digest_is_stable_and_sensitive() {
    let base = vec![
        slot(Some(120.5), vec![true, false]),
        slot(None, vec![false; 70]),
    ];
    assert_eq!(digest::slots(&base), digest::slots(&base.clone()));

    let mut flipped = base.clone();
    flipped[1].responses[69] = true;
    assert_ne!(digest::slots(&base), digest::slots(&flipped));

    let mut later = base.clone();
    later[0].latest_output_transition_ps = Some(f64::from_bits(120.5f64.to_bits() + 1));
    assert_ne!(digest::slots(&base), digest::slots(&later));

    let mut failed = base.clone();
    failed[0].status = SlotStatus::Panicked;
    assert_ne!(digest::slots(&base), digest::slots(&failed));

    let mut busier = base.clone();
    busier[1].activity.total_transitions = 1;
    assert_ne!(digest::slots(&base), digest::slots(&busier));

    let swapped = vec![base[1].clone(), base[0].clone()];
    assert_ne!(digest::slots(&base), digest::slots(&swapped));
}

#[test]
fn self_time_subtracts_child_spans() {
    let mut t = Tracer::new(true);
    let root = t.begin("launch", Some(7));
    let (_, _) = t.time("child", Some(7), || {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    std::thread::sleep(std::time::Duration::from_millis(10));
    t.end(root);
    let layers = t.layer_times();
    let (launch, child) = (layers["launch"], layers["child"]);
    assert_eq!((launch.calls, child.calls), (1, 1));
    assert!(child.total_ms >= 20.0 && child.self_ms == child.total_ms);
    assert!((launch.self_ms - (launch.total_ms - child.total_ms)).abs() < 1e-6);
    assert!(launch.self_ms >= 10.0 && launch.self_ms < launch.total_ms);
    let events = t.chrome_trace();
    let events = events
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    assert_eq!(events.len(), 2);
    let child_args = events[1].get("args").expect("args");
    assert_eq!(
        child_args.get("parent").and_then(Json::as_str),
        Some("launch")
    );
    assert_eq!(child_args.get("launch").and_then(Json::as_f64), Some(7.0));

    let mut off = Tracer::new(false);
    let id = off.begin("x", None);
    off.end(id);
    assert!(off.spans().is_empty());
}

#[test]
fn result_line_is_json_with_every_metric() {
    let values: Vec<(&str, f64)> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name, 1.25 + i as f64))
        .collect();
    let outcome = Outcome::new(true, 10, 0, END_TO_END, &values).expect("complete");
    let doc = Json::parse(&outcome.json_line()).expect("valid JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), END_TO_END.len());
    let setup = doc
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

    assert!(Outcome::new(true, 1, 0, END_TO_END, &values[1..]).is_err());
    let mut bad = values.clone();
    bad[0].1 = f64::NAN;
    assert!(Outcome::new(true, 1, 0, END_TO_END, &bad).is_err());
}

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        threads: 2,
        size: Size::tiny(),
    }
}

#[test]
fn every_workload_runs_correctly_on_an_adder() {
    for workload in Workload::ALL {
        let first = workload::run(&tiny(workload, false)).expect("runs");
        assert!(
            first.outcome.correct,
            "{}: {:?}",
            workload.name(),
            first.log
        );
        assert_eq!(first.outcome.failed, 0);
        assert!(first.outcome.attempted > 0);
        assert_eq!(first.outcome.metrics.len(), END_TO_END.len());
        assert!(first.trace.is_none());
        let digest_line = |log: &[String]| {
            log.iter()
                .find(|l| l.starts_with("digest:"))
                .cloned()
                .expect("digest printed")
        };
        // The same seed reproduces the same results.
        let again = workload::run(&tiny(workload, false)).expect("runs");
        assert_eq!(digest_line(&first.log), digest_line(&again.log));

        let traced = workload::run(&tiny(workload, true)).expect("runs");
        assert!(
            traced.outcome.correct,
            "{}: {:?}",
            workload.name(),
            traced.log
        );
        assert_eq!(traced.outcome.metrics.len(), PER_LAYER.len());
        assert!(traced.trace.is_some() && traced.layers.is_some());
        assert_eq!(digest_line(&first.log), digest_line(&traced.log));
    }
}
