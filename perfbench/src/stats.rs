//! Order statistics for timing samples: median, quartiles and the tail
//! percentile the benchmark reports next to every median.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile with the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so the
/// benchmark's own spread figure equals the one an external checker
/// computes from the same values. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// The percentiles a tail figure may be reported at, highest last. The
/// ladder stops at p95: on a shared 2-CPU host 1–3 % of short launches
/// land in host stalls lasting 100–200 ms, so p99 of a 10 s run flips
/// between stalled and unstalled values from run to run (its
/// interquartile spread over five runs was 0.49 of its median), while
/// p95 stays below the stall fraction.
const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail figure: the value, the percentile it sits at (`100` = the
/// maximum) and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile.
    pub value: f64,
    /// The percentile, 0–100; `100.0` means the maximum was reported
    /// because no ladder percentile had enough samples beyond it.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank). With too few
/// samples for any of them the maximum is reported as percentile 100.
/// `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    let max = *s.last()?;
    let pick = TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| (s[rank - 1], p))
    });
    let (value, percentile) = pick.unwrap_or((max, 100.0));
    Some(Tail {
        value,
        percentile,
        samples: n,
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
