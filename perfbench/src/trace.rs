//! Benchmark-side spans around each call into the simulator's public
//! layers. Spans live in memory and are written once, at the end, as
//! Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).
//! A disabled tracer records nothing, so untraced runs pay one branch
//! per boundary.

use avfs_obs::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer boundary name, e.g. `core.session_run`.
    pub name: String,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation (`None` while open).
    pub end: Option<Duration>,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The launch the span belongs to (set-up spans have none).
    pub launch: Option<u64>,
    /// Extra numbers shown with the span (e.g. engine phase totals).
    pub args: Vec<(String, f64)>,
}

/// Self and total time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed durations minus the time their child spans cover, ms.
    pub self_ms: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, launch: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            start: self.epoch.elapsed(),
            end: None,
            parent: self.open.last().copied(),
            launch,
            args: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end.get_or_insert(now);
            if top == idx {
                break;
            }
        }
    }

    /// Attaches a number to a span.
    pub fn arg(&mut self, id: SpanId, key: &str, value: f64) {
        if let Some(idx) = id.0 {
            self.spans[idx].args.push((key.to_owned(), value));
        }
    }

    /// Runs `f` inside a span and returns its result with the wall time
    /// of the call (measured whether or not the tracer records).
    pub fn time<R>(
        &mut self,
        name: &str,
        launch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, launch);
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        self.end(id);
        (out, elapsed)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self and total time per span name.
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        layer_times(&self.spans)
    }

    /// The spans as a Chrome trace-event document.
    pub fn chrome_trace(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .filter_map(|s| {
                let end = s.end?;
                let mut args = vec![];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), Json::Str(self.spans[p].name.clone())));
                }
                if let Some(l) = s.launch {
                    args.push(("launch".to_owned(), Json::Num(l as f64)));
                }
                args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Some(Json::Obj(vec![
                    ("name".to_owned(), Json::Str(s.name.clone())),
                    ("cat".to_owned(), Json::Str("perfbench".to_owned())),
                    ("ph".to_owned(), Json::Str("X".to_owned())),
                    ("ts".to_owned(), us(s.start)),
                    ("dur".to_owned(), us(end.saturating_sub(s.start))),
                    ("pid".to_owned(), Json::Num(1.0)),
                    ("tid".to_owned(), Json::Num(1.0)),
                    ("args".to_owned(), Json::Obj(args)),
                ]))
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
        ])
    }
}

/// Self and total time per span name over finished spans. A span's self
/// time is its duration minus the part of it its direct children cover;
/// children of one caller never overlap, so that part is their summed
/// duration clipped to the parent's interval.
fn layer_times(spans: &[SpanRecord]) -> BTreeMap<String, LayerTime> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        let (Some(p), Some(end)) = (s.parent, s.end) else {
            continue;
        };
        let parent = &spans[p];
        let lo = s.start.max(parent.start);
        let hi = parent.end.map_or(end, |pe| end.min(pe));
        covered[p] += hi.saturating_sub(lo);
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, cover) in spans.iter().zip(&covered) {
        let Some(end) = s.end else { continue };
        let total = end.saturating_sub(s.start);
        let entry = out.entry(s.name.clone()).or_default();
        entry.calls += 1;
        entry.total_ms += total.as_secs_f64() * 1e3;
        entry.self_ms += total.saturating_sub(*cover).as_secs_f64() * 1e3;
    }
    out
}
