//! End-to-end benchmark of the CrowdWiFi reading → map → query path.
//!
//! Three workloads drive only the program's public entry points:
//! [`campaign`] runs durable crowdsensing campaigns (vehicle sensing,
//! upload, server rounds, write-ahead log, map ingest) followed by user
//! corridor queries on the map they built, and [`corridor`] serves
//! open-loop corridor queries against a large map while a writer keeps
//! absorbing re-observations. A traced run splits each workload's span
//! by layer with the wrappers of [`trace`]; [`stats`] holds the
//! percentile, open-loop and counting rules.

pub mod campaign;
pub mod corridor;
pub mod stats;
pub mod trace;

use crowdwifi_geo::{Point, Rect};
use crowdwifi_geomap::{GeoMap, MapConfig};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name` with `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (not counting failures the workload's
    /// fault plan injected on purpose).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The final result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`. Only runs whose correctness
    /// gates all passed produce an outcome, so `correct` is always true.
    ///
    /// # Errors
    ///
    /// Rejects non-finite metric values, which JSON cannot carry.
    pub fn result_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Map configuration for a square world whose corner is `area`'s and
/// whose edge is `area`'s longer side, with buckets at least 64 m wide:
/// about the corridor half-width, so a query walks a handful of buckets
/// whatever the world's size. A 16 km world gets `MapConfig`'s default
/// levels.
pub fn map_config(area: Rect) -> MapConfig {
    let edge = area.width().max(area.height());
    let world = Rect::new(
        area.min(),
        Point::new(area.min().x + edge, area.min().y + edge),
    )
    .expect("a square on a valid rect's corner is valid");
    let mut cfg = MapConfig::new(world);
    cfg.bucket_level = (edge / 64.0).log2().floor().clamp(1.0, 30.0) as u8;
    cfg.shard_level = cfg.shard_level.min(cfg.bucket_level);
    cfg
}

/// All map entries a user can see (credit above the spurious floor).
pub fn visible_entries(map: &GeoMap) -> Vec<Point> {
    let area = map.world().area();
    let radius = area.width().hypot(area.height());
    map.query_radius(area.center(), radius)
        .into_iter()
        .map(|ap| ap.position)
        .collect()
}

/// Map fidelity against ground truth: `(count error, mean error m)`.
/// The count error is `|k̂ − k| / k`; the mean error is the mean
/// distance from each map entry to its nearest true AP (a grid index
/// keeps this linear, so it scales to the 100k-entry corridor map).
pub fn map_fidelity(truth: &[Point], map: &[Point]) -> (f64, f64) {
    assert!(!truth.is_empty(), "map fidelity needs ground truth");
    let count = (map.len() as f64 - truth.len() as f64).abs() / truth.len() as f64;
    if map.is_empty() {
        return (count, 0.0);
    }
    const CELL: f64 = 64.0;
    let key = |p: Point| ((p.x / CELL).floor() as i64, (p.y / CELL).floor() as i64);
    let mut grid: std::collections::HashMap<(i64, i64), Vec<Point>> =
        std::collections::HashMap::new();
    for &t in truth {
        grid.entry(key(t)).or_default().push(t);
    }
    let total: f64 = map
        .iter()
        .map(|&p| {
            let (cx, cy) = key(p);
            let mut best = f64::INFINITY;
            // Ring r holds cells at Chebyshev distance r; once a ring's
            // inner edge is farther than the best hit, no farther ring
            // can beat it.
            for r in 0i64.. {
                if best <= (r - 1).max(0) as f64 * CELL {
                    break;
                }
                for dx in -r..=r {
                    for dy in -r..=r {
                        if dx.abs().max(dy.abs()) != r {
                            continue;
                        }
                        for t in grid.get(&(cx + dx, cy + dy)).into_iter().flatten() {
                            best = best.min(p.distance(*t));
                        }
                    }
                }
            }
            best
        })
        .sum();
    (count, total / map.len() as f64)
}

/// Distance from `p` to the segment `a`–`b`.
fn dist_to_segment(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len2 = dx * dx + dy * dy;
    if len2 <= 0.0 {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0);
    p.distance(Point::new(a.x + t * dx, a.y + t * dy))
}

/// Distance from `p` to the polyline `path`.
pub fn dist_to_path(p: Point, path: &[Point]) -> f64 {
    match path {
        [] => f64::INFINITY,
        [only] => p.distance(*only),
        _ => path
            .windows(2)
            .map(|w| dist_to_segment(p, w[0], w[1]))
            .fold(f64::INFINITY, f64::min),
    }
}

/// Three-point route windows `length` m long along `polyline`, one
/// every `step` m: what a user vehicle driving the polyline asks the
/// map for as it goes.
pub fn windows_along(polyline: &[Point], length: f64, step: f64) -> Vec<[Point; 3]> {
    let mut cumulative = vec![0.0];
    for w in polyline.windows(2) {
        cumulative.push(cumulative.last().copied().unwrap_or(0.0) + w[0].distance(w[1]));
    }
    let total = cumulative.last().copied().unwrap_or(0.0);
    let at = |s: f64| -> Point {
        let i = cumulative
            .partition_point(|&c| c <= s)
            .clamp(1, polyline.len() - 1);
        let (a, b) = (polyline[i - 1], polyline[i]);
        let span = cumulative[i] - cumulative[i - 1];
        if span <= 0.0 {
            a
        } else {
            a.lerp(b, ((s - cumulative[i - 1]) / span).clamp(0.0, 1.0))
        }
    };
    let mut out = Vec::new();
    let mut s = 0.0;
    while s + length <= total {
        out.push([at(s), at(s + length / 2.0), at(s + length)]);
        s += step;
    }
    out
}

/// SplitMix64 finaliser: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            o.result_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Metric::new("x", f64::NAN, "s")],
            ..o
        };
        assert!(bad.result_json().is_err());
    }

    #[test]
    fn fidelity_matches_brute_force_nearest_truth() {
        let truth: Vec<Point> = (0..50)
            .map(|i| Point::new(f64::from(i) * 37.0 % 900.0, f64::from(i) * 53.0 % 700.0))
            .collect();
        let map: Vec<Point> = (0..80)
            .map(|i| Point::new(f64::from(i) * 11.0 % 950.0, f64::from(i) * 29.0 % 720.0))
            .collect();
        let (count, mean) = map_fidelity(&truth, &map);
        assert_eq!(count, 30.0 / 50.0);
        let brute: f64 = map
            .iter()
            .map(|p| {
                truth
                    .iter()
                    .map(|t| p.distance(*t))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / map.len() as f64;
        assert!((mean - brute).abs() < 1e-9, "{mean} vs {brute}");
    }

    #[test]
    fn windows_follow_the_polyline() {
        let path = [
            Point::new(0.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(200.0, 200.0),
        ];
        let w = windows_along(&path, 300.0, 50.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0][0], Point::new(0.0, 0.0));
        assert_eq!(w[0][1], Point::new(150.0, 0.0));
        assert_eq!(w[0][2], Point::new(200.0, 100.0));
        assert_eq!(w[2][2], Point::new(200.0, 200.0));
        assert!((dist_to_path(Point::new(100.0, 10.0), &path) - 10.0).abs() < 1e-12);
    }
}
