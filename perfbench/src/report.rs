//! The metric catalogue and the machine-readable result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions: `BENCHMARK.json` is checked against them
//! by the package tests, and a run's result line must carry exactly the
//! metrics of the catalogue it reports.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, reported by untraced runs.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", Lower),
    spec("sim_meps", "MEPS", Higher),
    spec("ed_meps", "MEPS", Higher),
    spec("launch_p50_ms", "ms", Lower),
    spec("launch_tail_ms", "ms", Lower),
    spec("peak_rss_mb", "MB", Lower),
    spec("delay_err_holdout_pct", "%", Lower),
];

/// Metrics of single layers, reported by traced runs.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("circuits.synthesize_ms", "ms", Lower),
    spec("delay.characterize_ms", "ms", Lower),
    spec("spice.sweep_ms", "ms", Lower),
    spec("spice.transient_points", "count", Lower),
    spec("regression.fit_ms", "ms", Lower),
    spec("regression.fits", "count", Lower),
    spec("delay.annotate_ms", "ms", Lower),
    spec("atpg.patterns_ms", "ms", Lower),
    spec("core.compile_ms", "ms", Lower),
    spec("core.pool_spawn_ms", "ms", Lower),
    spec("engine.run_ms", "ms", Lower),
    spec("engine.delay_kernel_ms", "ms", Lower),
    spec("engine.kernel_evals", "count", Lower),
    spec("engine.delay_table_hit_ratio", "ratio", Higher),
    spec("engine.waveform_merge_ms", "ms", Lower),
    spec("engine.analysis_ms", "ms", Lower),
    spec("engine.stimuli_ms", "ms", Lower),
    spec("engine.barrier_ms", "ms", Lower),
    spec("engine.pool_idle_ms", "ms", Lower),
    spec("engine.pool_steals", "count", Lower),
    spec("engine.pool_task_imbalance", "ratio", Lower),
    spec("engine.quiet_skip_ratio", "ratio", Higher),
    spec("engine.lane_fill", "ratio", Higher),
    spec("engine.retry_rounds", "count", Lower),
    spec("engine.arena_peak", "count", Lower),
    spec("batch.compile_hits", "count", Higher),
    spec("batch.compile_misses", "count", Lower),
    spec("scenario.segments", "count", Lower),
    spec("scenario.mc_samples", "count", Lower),
    spec("scenario.variation_draws", "count", Lower),
    spec("ed.simulate_ms", "ms", Lower),
    spec("ed.events", "count", Lower),
    spec("ed.queue_depth", "count", Lower),
    spec("sta.crosscheck_ms", "ms", Lower),
    spec("trace.overhead_pct", "%", Lower),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run, as the last line of its output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Slots attempted (plus launches that failed before yielding slots).
    pub attempted: u64,
    /// Failed launches, slots not `Ok`, and check mismatches.
    pub failed: u64,
    /// `(name, value)` per metric of the reported catalogue, in
    /// catalogue order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
}

impl Outcome {
    /// Builds an outcome from measured values looked up by name in
    /// `catalogue`.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric that `values` lacks or that is not a
    /// finite number.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalogue: &'static [MetricSpec],
        values: &[(&str, f64)],
    ) -> Result<Outcome, String> {
        let metrics = catalogue
            .iter()
            .map(|spec| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
                if !value.is_finite() {
                    return Err(format!("metric {} is not finite ({value})", spec.name));
                }
                Ok((spec, value))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value": v, "unit": u}`), values printed with
    /// every digit of their shortest round-trip form.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(spec, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    json_number(*value),
                    spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float as a JSON number (Rust's shortest round-trip form,
/// which never uses an exponent and so is always valid JSON).
fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s == "-0" {
        "0".to_owned()
    } else {
        s
    }
}
