//! "APs ahead on my trajectory": corridor queries over the map.
//!
//! A user vehicle hands the map its upcoming route polyline; the map
//! walks the bucket cells the corridor can reach and filters their
//! entries by exact distance to the polyline. This is the paper's
//! offloading use case (§6.3) and the feed for `handoff`'s BRR policy.
//!
//! The cell cover is exact, not sampled. For each segment the walk
//! visits the cells of the segment's box padded by the half-width and
//! keeps a cell when its centre lies within the half-width plus half a
//! cell diagonal of the segment; every interior cell holding an entry
//! within the half-width passes that test. World-edge cells are always
//! kept, because entries outside the world are stored in them. The
//! kept codes are sorted, so each shard's cells are contiguous (Morton
//! order) and each shard generation is read-locked and cloned once.

use crate::geohash::deinterleave;
use crate::map::{canonical_order, GeoMap, MapAp};
use crowdwifi_geo::{Point, Rect};

/// Squared distance from `p` to the segment `a`–`b`.
fn dist2_to_segment(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len2 = dx * dx + dy * dy;
    let q = if len2 <= 0.0 {
        a
    } else {
        let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0);
        Point::new(a.x + t * dx, a.y + t * dy)
    };
    (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y)
}

/// The segments of a polyline; a one-point path is one degenerate
/// segment, so its distance is the distance to that point.
fn segments(path: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    let point = match path {
        [p] => Some((*p, *p)),
        _ => None,
    };
    point
        .into_iter()
        .chain(path.windows(2).map(|w| (w[0], w[1])))
}

/// Distance from `p` to a polyline (minimum over its segments; `sqrt`
/// is monotone, so one root of the least square is the same value).
fn dist_to_path(p: Point, path: &[Point]) -> f64 {
    segments(path)
        .map(|(a, b)| dist2_to_segment(p, a, b))
        .fold(f64::INFINITY, f64::min)
        .sqrt()
}

impl GeoMap {
    /// All entries within `half_width` meters of the route polyline
    /// `path` whose credit clears the spurious floor, deduplicated and
    /// in canonical order — the candidate list a vehicle's handoff
    /// policy consumes. Equal to filtering every stored entry by
    /// distance; see the [module docs](self) for the cell cover.
    pub fn aps_ahead(&self, path: &[Point], half_width: f64) -> Vec<MapAp> {
        if path.is_empty() || !half_width.is_finite() || half_width < 0.0 {
            return Vec::new();
        }
        let level = self.config().bucket_level;
        let area = self.world().area();
        let n = 1u64 << level;
        let (w, h) = (area.width() / n as f64, area.height() / n as f64);
        // A billionth of the query's scale absorbs rounding in the
        // centre and distance arithmetic.
        let reach =
            half_width + 0.5 * w.hypot(h) + 1e-9 * (area.width() + area.height() + half_width);
        let reach2 = reach * reach;

        // 1. Cover: the codes of every cell the corridor can reach.
        // A typical corridor keeps a few dozen cells: one allocation
        // instead of a run of regrowths.
        let mut codes: Vec<u64> = Vec::with_capacity(64);
        for (a, b) in segments(path) {
            let Ok(bbox) = Rect::new(
                Point::new(a.x.min(b.x) - half_width, a.y.min(b.y) - half_width),
                Point::new(a.x.max(b.x) + half_width, a.y.max(b.y) + half_width),
            ) else {
                continue;
            };
            self.world().for_each_cell_covering(bbox, level, |cell| {
                let (ix, iy) = deinterleave(cell.code);
                let edge = ix == 0 || iy == 0 || ix == n - 1 || iy == n - 1;
                let centre = Point::new(
                    area.min().x + (ix as f64 + 0.5) * w,
                    area.min().y + (iy as f64 + 0.5) * h,
                );
                if edge || dist2_to_segment(centre, a, b) <= reach2 {
                    codes.push(cell.code);
                }
            });
        }
        codes.sort_unstable();
        codes.dedup();

        // 2. Scan the cells in code order, filtering by exact distance.
        let floor = self.config().min_credit;
        let mut out: Vec<MapAp> = Vec::new();
        let mut cached = None;
        for code in codes {
            self.scan_bucket(&mut cached, code, |ap| {
                if ap.credit > floor && dist_to_path(ap.position, path) <= half_width {
                    out.push(*ap);
                }
            });
        }

        // 3. Canonical order + dedup (an entry can only appear once per
        // generation, but migrations mean defensive dedup is cheap).
        out.sort_by(canonical_order);
        out.dedup_by(|a, b| {
            a.id == b.id
                && a.position.x.to_bits() == b.position.x.to_bits()
                && a.position.y.to_bits() == b.position.y.to_bits()
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use crowdwifi_core::ApEstimate;

    fn map() -> GeoMap {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
        let mut cfg = MapConfig::new(world);
        cfg.shard_level = 2;
        cfg.bucket_level = 5; // 32 m buckets
        GeoMap::new(cfg).unwrap()
    }

    fn est(x: f64, y: f64, credit: f64) -> ApEstimate {
        ApEstimate {
            position: Point::new(x, y),
            credit,
        }
    }

    #[test]
    fn segment_distance_basics() {
        let dist_to_segment = |p, a, b| dist2_to_segment(p, a, b).sqrt();
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert!((dist_to_segment(Point::new(5.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        assert!((dist_to_segment(Point::new(-4.0, 0.0), a, b) - 4.0).abs() < 1e-12);
        assert!((dist_to_segment(Point::new(13.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment falls back to point distance.
        assert!((dist_to_segment(Point::new(3.0, 4.0), a, a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn corridor_keeps_near_route_aps_and_drops_far_ones() {
        let m = map();
        m.absorb_estimates(
            1,
            &[
                est(100.0, 210.0, 2.0), // 10 m off the route: kept
                est(500.0, 190.0, 2.0), // 10 m off: kept
                est(300.0, 500.0, 9.0), // 300 m off: dropped
                est(700.0, 200.0, 0.5), // on route but below credit floor
            ],
        );
        let route = [Point::new(0.0, 200.0), Point::new(900.0, 200.0)];
        let ahead = m.aps_ahead(&route, 50.0);
        let xs: Vec<f64> = ahead.iter().map(|a| a.position.x).collect();
        assert_eq!(xs, vec![100.0, 500.0]);
    }

    #[test]
    fn corridor_follows_turns() {
        let m = map();
        m.absorb_estimates(1, &[est(400.0, 395.0, 2.0), est(20.0, 20.0, 2.0)]);
        // L-shaped route passing near (400, 395) at the corner.
        let route = [
            Point::new(400.0, 100.0),
            Point::new(400.0, 390.0),
            Point::new(800.0, 390.0),
        ];
        let ahead = m.aps_ahead(&route, 20.0);
        assert_eq!(ahead.len(), 1);
        assert_eq!(ahead[0].position.y, 395.0);
    }

    #[test]
    fn empty_path_or_bad_width_yields_nothing() {
        let m = map();
        m.absorb_estimates(1, &[est(100.0, 100.0, 2.0)]);
        assert!(m.aps_ahead(&[], 50.0).is_empty());
        assert!(m
            .aps_ahead(&[Point::new(100.0, 100.0)], f64::NAN)
            .is_empty());
        // Single-point path: a disc query.
        assert_eq!(m.aps_ahead(&[Point::new(110.0, 100.0)], 20.0).len(), 1);
    }
}
