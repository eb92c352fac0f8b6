//! The `corridor_serving` workload: the map's user-facing read path
//! with writes beside reads.
//!
//! A 16 km square world is pre-filled with about 127k road-grid APs.
//! One thread issues drive-shaped `aps_ahead` queries — 300 m
//! three-point route polylines, 60 m half-width, consecutive queries
//! advancing along one road — in an open loop at a fixed offered rate.
//! A second thread absorbs jittered re-observation batches at a fixed
//! interval, so a read-path gain that costs ingest, or an ingest gain
//! that costs readers, shows.

use crate::stats::{median, run_open_loop, windowed, Distribution, OpenLoopRun, Tally};
use crate::trace::{layer_metrics, LayerSplit};
use crate::{
    dist_to_path, map_config, map_fidelity, mix, peak_rss_mb, visible_entries, Metric, Outcome,
};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_geomap::{canonical_order, GeoMap, IngestStats, MapAp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// World edge, meters.
const WORLD_M: f64 = 16_384.0;
/// Roads per direction and AP slots along each road.
const ROADS: usize = 64;
const SLOTS: usize = 1024;
/// Offered query rate: about half of the rate the map sustained at the
/// commit that introduced this benchmark (~10 µs per query on a 2-core
/// x86-64 container, ~100k queries/s). Fixed, so later commits are
/// measured at the same load.
const OFFERED_QUERIES_PER_S: f64 = 40_000.0;
/// Route window length and corridor half-width, meters.
const ROUTE_M: f64 = 300.0;
const HALF_WIDTH_M: f64 = 60.0;
/// Consecutive queries along one road, and the advance between them.
const DRIVE_LEN: usize = 256;
const DRIVE_STEP_M: f64 = 10.0;
/// Distinct query paths generated (the stream cycles through them).
const QUERY_POOL: usize = 65_536;
/// Re-observation batch size, interval, and positional jitter.
const WRITE_BATCH: usize = 1024;
const WRITE_INTERVAL: Duration = Duration::from_millis(50);
const WRITE_JITTER_M: f64 = 2.0;
/// Queries per latency window: 100 ms of the offered stream, long
/// enough for a p99 with 40 samples beyond it.
const WINDOW_QUERIES: usize = OFFERED_QUERIES_PER_S as usize / 10;
/// Latencies are read at this percentile across windows: on a shared
/// virtual machine the host stalls the process for milliseconds in many
/// windows, and the open loop turns each stall into hundreds of late
/// queries, so the first quartile gives the tail of a calm window.
const CALM_QUARTILE: f64 = 25.0;
/// Batches per write-latency window: one second of batches.
const WRITES_PER_WINDOW: usize = 20;
/// How early the writer wakes to spin until a batch is due.
const WAKE_MARGIN: Duration = Duration::from_millis(2);
/// Distinct re-observation batches generated (the writer cycles).
const WRITE_POOL: usize = 64;
/// Query paths checked against a brute-force filter before timing.
const GATE_QUERIES: usize = 64;
/// Map clock of the pre-fill, microseconds.
const PREFILL_MICROS: u64 = 1_000_000;
/// Times the set-up is repeated to take its median.
const SETUP_REPS: usize = 5;

fn world() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD_M, WORLD_M)).expect("ordered rect")
}

/// Everything the workload consumes, generated from the seed, plus the
/// pre-filled map.
struct Setup {
    truth: Vec<Point>,
    map: GeoMap,
    queries: Vec<[Point; 3]>,
    writes: Vec<Vec<ApEstimate>>,
}

/// Road-grid AP layout: `ROADS` streets per direction with `SLOTS` APs
/// along each, positions jittered by up to 3 m from the seed;
/// horizontal and vertical streets are offset so few intersections
/// collapse into one map entry.
fn truth(seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 10, 0));
    let road_gap = WORLD_M / ROADS as f64;
    let slot_gap = WORLD_M / SLOTS as f64;
    let mut out = Vec::with_capacity(2 * ROADS * SLOTS);
    for r in 0..ROADS {
        let line = (r as f64 + 0.5) * road_gap;
        for j in 0..SLOTS {
            let along = (j as f64 + 0.5) * slot_gap;
            let mut jitter = || rng.random_range(-3.0..3.0);
            out.push(Point::new(along + jitter(), line + jitter()));
            out.push(Point::new(line + 7.0 + jitter(), along + 5.0 + jitter()));
        }
    }
    out
}

/// Drive-shaped query stream: each drive starts on a random road at a
/// random point and direction, then advances `DRIVE_STEP_M` per query
/// with a little lateral wander.
fn queries(seed: u64) -> Vec<[Point; 3]> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 11, 0));
    let road_gap = WORLD_M / ROADS as f64;
    let mut out = Vec::with_capacity(QUERY_POOL);
    while out.len() < QUERY_POOL {
        let line = (rng.random_range(0..ROADS) as f64 + 0.5) * road_gap;
        let horizontal = rng.random_range(0..2u32) == 0;
        let forward = rng.random_range(0..2u32) == 0;
        let span = DRIVE_LEN as f64 * DRIVE_STEP_M + ROUTE_M;
        let mut s = rng.random_range(0.0..WORLD_M - span);
        if !forward {
            s += span;
        }
        let dir = if forward { 1.0 } else { -1.0 };
        for _ in 0..DRIVE_LEN {
            let lateral: f64 = rng.random_range(-10.0..10.0);
            let pt = |d: f64| {
                let along = s + dir * d;
                if horizontal {
                    Point::new(along, line + lateral)
                } else {
                    Point::new(line + 7.0 + lateral, along)
                }
            };
            out.push([pt(0.0), pt(ROUTE_M / 2.0), pt(ROUTE_M)]);
            s += dir * DRIVE_STEP_M;
        }
    }
    out.truncate(QUERY_POOL);
    out
}

/// Re-observation batches: random true APs seen again with up to 2 m
/// of positional jitter, credit 1.
fn writes(seed: u64, truth: &[Point]) -> Vec<Vec<ApEstimate>> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 12, 0));
    (0..WRITE_POOL)
        .map(|_| {
            (0..WRITE_BATCH)
                .map(|_| {
                    let t = truth[rng.random_range(0..truth.len())];
                    ApEstimate {
                        position: Point::new(
                            t.x + rng.random_range(-WRITE_JITTER_M..WRITE_JITTER_M),
                            t.y + rng.random_range(-WRITE_JITTER_M..WRITE_JITTER_M),
                        ),
                        credit: 1.0,
                    }
                })
                .collect()
        })
        .collect()
}

/// Generates the inputs and pre-fills the map.
///
/// # Errors
///
/// Propagates an invalid map configuration.
fn setup(seed: u64) -> Result<Setup, String> {
    let truth = truth(seed);
    let map = GeoMap::new(map_config(world())).map_err(|e| e.to_string())?;
    let founding: Vec<ApEstimate> = truth
        .iter()
        .map(|&position| ApEstimate {
            position,
            credit: 2.0,
        })
        .collect();
    for chunk in founding.chunks(8_192) {
        map.absorb_estimates(PREFILL_MICROS, chunk);
    }
    Ok(Setup {
        queries: queries(seed),
        writes: writes(seed, &truth),
        truth,
        map,
    })
}

/// Gate run before any timing: a sample of `aps_ahead` results must
/// equal a brute-force distance filter over every map entry.
///
/// # Errors
///
/// Describes the first mismatching query.
fn brute_force_gate(s: &Setup) -> Result<(), String> {
    let area = world();
    let mut all: Vec<MapAp> = Vec::new();
    s.map
        .for_each_near(area.center(), area.width().hypot(area.height()), |ap| {
            all.push(*ap)
        });
    let floor = s.map.config().min_credit;
    let stride = s.queries.len() / GATE_QUERIES;
    for (i, path) in s.queries.iter().step_by(stride).enumerate() {
        let mut expected: Vec<MapAp> = all
            .iter()
            .filter(|ap| ap.credit > floor && dist_to_path(ap.position, path) <= HALF_WIDTH_M)
            .copied()
            .collect();
        expected.sort_by(canonical_order);
        if s.map.aps_ahead(path, HALF_WIDTH_M) != expected {
            return Err(format!(
                "gate: aps_ahead of sample query {i} differs from the brute-force filter"
            ));
        }
    }
    Ok(())
}

/// What one open-loop serving pass observed.
struct Pass {
    reads: OpenLoopRun,
    hits: u64,
    empty: u64,
    /// Seconds inside `aps_ahead` (traced passes only).
    query_s: f64,
    /// Per-batch write latency from its due time, seconds.
    write_s: Vec<f64>,
    /// Seconds inside `absorb_estimates`.
    absorb_s: f64,
    ingest: IngestStats,
    batches: u64,
    /// Batches with at least one rejected estimate.
    bad_batches: u64,
}

/// One serving pass: the open-loop reader on this thread, the writer on
/// a second one, both for `duration`. `traced` adds a span around each
/// `aps_ahead` call.
fn serve(s: &Setup, duration: Duration, batch_offset: u64, traced: bool) -> Pass {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut write_s = Vec::new();
            let mut absorb_s = 0.0;
            let mut ingest = IngestStats::default();
            let mut bad_batches = 0u64;
            let start = Instant::now();
            for k in 0u64.. {
                let due = start + WRITE_INTERVAL * k as u32;
                if due >= start + duration || stop.load(Ordering::Relaxed) {
                    break;
                }
                // Sleep to just short of the due time, then spin, so the
                // scheduler's wake-up delay does not land in the latency.
                if let Some(wait) = due.checked_duration_since(Instant::now() + WAKE_MARGIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let batch = batch_offset + k;
                let now_micros = PREFILL_MICROS + (batch + 1) * WRITE_INTERVAL.as_micros() as u64;
                let t = Instant::now();
                let stats = s
                    .map
                    .absorb_estimates(now_micros, &s.writes[batch as usize % s.writes.len()]);
                let done = Instant::now();
                absorb_s += (done - t).as_secs_f64();
                write_s.push((done - due).as_secs_f64());
                ingest.merged += stats.merged;
                ingest.opened += stats.opened;
                ingest.rejected += stats.rejected;
                bad_batches += u64::from(stats.rejected > 0);
            }
            (write_s, absorb_s, ingest, bad_batches)
        });
        let (mut hits, mut empty, mut query_s) = (0u64, 0u64, 0.0);
        let reads = run_open_loop(OFFERED_QUERIES_PER_S, duration, |i| {
            let path = &s.queries[i % s.queries.len()];
            let found = if traced {
                let t = Instant::now();
                let found = s.map.aps_ahead(path, HALF_WIDTH_M);
                query_s += t.elapsed().as_secs_f64();
                found
            } else {
                s.map.aps_ahead(path, HALF_WIDTH_M)
            };
            hits += found.len() as u64;
            empty += u64::from(found.is_empty());
        });
        stop.store(true, Ordering::Relaxed);
        let (write_s, absorb_s, ingest, bad_batches) =
            writer.join().expect("writer thread panicked");
        Pass {
            reads,
            hits,
            empty,
            query_s,
            batches: write_s.len() as u64,
            write_s,
            absorb_s,
            ingest,
            bad_batches,
        }
    })
}

/// Each query's own time, from its issue to its completion, µs.
fn service_us(reads: &OpenLoopRun) -> Vec<f64> {
    reads
        .latency_us
        .iter()
        .zip(&reads.late_us)
        .map(|(l, late)| l - late)
        .collect()
}

/// Queries count as failed when they find nothing on a road lined with
/// APs; re-observation batches when the map rejects any estimate.
fn tally(pass: &Pass) -> Tally {
    let queries = pass.reads.latency_us.len() as u64;
    let failed = pass.empty + pass.bad_batches;
    Tally {
        attempted: queries + pass.batches,
        completed: queries + pass.batches - failed,
        failed,
    }
}

/// Runs `corridor_serving` for `seconds` and reports its end-to-end
/// metrics, or, when `traced`, its per-layer split.
///
/// # Errors
///
/// Fails when the brute-force gate fails or too few samples were taken.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = prepared.ok_or("no set-up")?;
    brute_force_gate(&s)?;
    let duration = Duration::from_secs_f64(seconds);
    if traced {
        return run_traced(&s, duration);
    }

    let pass = serve(&s, duration, 0, false);
    let reads = Distribution::new(pass.reads.latency_us.clone());
    let windows: Vec<&[f64]> = pass.reads.latency_us.chunks_exact(WINDOW_QUERIES).collect();
    let writes = Distribution::new(pass.write_s.clone());
    let write_windows: Vec<&[f64]> = pass.write_s.chunks_exact(WRITES_PER_WINDOW).collect();
    let write_p50 =
        windowed(&write_windows, 50.0, CALM_QUARTILE).ok_or("no full second of writes")?;
    let late = Distribution::new(pass.reads.late_us.clone());
    let t = tally(&pass);
    let entries = visible_entries(&s.map);
    let (count_error, mean_error) = map_fidelity(&s.truth, &entries);
    let p50 = windowed(&windows, 50.0, CALM_QUARTILE).ok_or("no full window of queries")?;
    let p99 = windowed(&windows, 99.0, CALM_QUARTILE)
        .ok_or("too few queries for a p99 with ten samples beyond it")?;
    let notes = vec![
        format!(
            "corridor_serving: {} queries offered at {OFFERED_QUERIES_PER_S}/s, {} re-observation batches of {WRITE_BATCH} every {} ms, map of {} entries for {} true APs",
            pass.reads.latency_us.len(),
            pass.batches,
            WRITE_INTERVAL.as_millis(),
            entries.len(),
            s.truth.len()
        ),
        format!(
            "map read (from due time): {}; reported: first quartile over {} 100 ms windows of each window's p50 and p99",
            reads.describe(1.0, "us"),
            windows.len()
        ),
        format!(
            "map write (from due time): {}; reported: first quartile over {} one-second windows of each window's p50",
            writes.describe(1e3, "ms"),
            write_windows.len()
        ),
        format!("generator lateness: {}", late.describe(1.0, "us")),
        format!("set-up: {} sample(s)", setup_s.len()),
    ];
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s).ok_or("no set-up samples")?, "s"),
            Metric::new(
                "ops_per_s",
                pass.reads.latency_us.len() as f64 / pass.reads.elapsed_s,
                "1/s",
            ),
            Metric::new("map_write_p50_ms", write_p50 * 1e3, "ms"),
            Metric::new("map_read_p50_us", p50, "us"),
            Metric::new("map_read_p99_us", p99, "us"),
            Metric::new("map_count_error", count_error, "ratio"),
            Metric::new("map_mean_error_m", mean_error, "m"),
            Metric::new("completed_ratio", t.completed_ratio(), "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
        notes,
    })
}

/// The traced run: an untraced pass, then a traced pass of the same
/// length. The split covers the reader's timeline (query spans, waiting
/// for due times, and the rest); the writer runs beside it on its own
/// thread and is reported on its own.
fn run_traced(s: &Setup, duration: Duration) -> Result<Outcome, String> {
    let half = duration / 2;
    let plain = serve(s, half, 0, false);
    let pass = serve(s, half, plain.batches, true);
    let queries = pass.reads.latency_us.len() as f64;
    let per_query = |p: &Pass| {
        service_us(&p.reads).iter().sum::<f64>() / p.reads.latency_us.len().max(1) as f64
    };
    let span = pass.reads.elapsed_s;
    let unattributed = span - pass.query_s - pass.reads.idle_s;
    let t = tally(&pass);
    let absorbed = pass.ingest.merged + pass.ingest.opened;
    let notes = vec![format!(
        "corridor_serving traced: reader span {span:.3} s = map query {:.3} + waiting for due times {:.3} + unattributed {unattributed:.3}; writer beside it: {} batches, {:.3} s absorbing",
        pass.query_s, pass.reads.idle_s, pass.batches, pass.absorb_s
    )];
    let mut metrics = layer_metrics(&LayerSplit {
        absorb_s: pass.absorb_s,
        absorbed: absorbed as f64,
        merged: pass.ingest.merged as f64,
        query_s: pass.query_s,
        queries,
        hits: pass.hits as f64,
        span_s: span,
        unattributed_s: unattributed,
        overhead_pct: (per_query(&pass) / per_query(&plain) - 1.0) * 100.0,
        ..LayerSplit::default()
    });
    metrics.push(Metric::new("bench.idle_s", pass.reads.idle_s, "s"));
    metrics.push(Metric::new(
        "bench.gen_late_p99_us",
        Distribution::new(pass.reads.late_us.clone())
            .at(99.0)
            .ok_or("too few queries for the generator's p99 lateness")?,
        "us",
    ));
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        notes,
    })
}
