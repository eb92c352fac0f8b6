//! The two campaign workloads: durable crowdsensing campaigns on
//! `FleetTransport` feeding a `GeoMap` through `GeoMapSink`, each
//! followed by a user vehicle driving the mapped road and asking the
//! map for the APs ahead.
//!
//! * `campus_campaign` — estimator-bound: six vehicles drive the UCI
//!   campus loop with the production online-CS configuration.
//! * `fleet_campaign` — round-engine-bound: ten thousand vehicles on
//!   the cheap 12-sample estimator, with link faults, vehicle crashes
//!   and stalls, and one server crash per round that WAL recovery
//!   replays.
//!
//! The campaigns of a run drive the same roads with the same drives
//! (they depend on the seed only) under their own platform and fault
//! randomness, so they are interchangeable samples of one unit of work.

use crate::stats::{median, windowed, Distribution, Tally};
use crate::trace::{
    layer_metrics, replay_vehicles, LayerSplit, LogTimes, ReplayTimes, SharedLogTimes,
    TimingLogSink, TimingRoundSink,
};
use crate::{
    map_config, map_fidelity, mix, peak_rss_mb, visible_entries, windows_along, Metric, Outcome,
};
use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::window::WindowConfig;
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Grid, Point, Rect};
use crowdwifi_geomap::GeoMap;
use crowdwifi_middleware::durability::{FileSink, LogSink, SnapshotStore};
use crowdwifi_middleware::fault::{FaultPlan, FaultPoint, ServerFault};
use crowdwifi_middleware::mapsink::GeoMapSink;
use crowdwifi_middleware::messages::VehicleId;
use crowdwifi_middleware::platform::{FaultTolerance, PlatformConfig, PlatformReport, VehicleFate};
use crowdwifi_middleware::segment::SegmentMap;
use crowdwifi_middleware::transport::{
    run_durable_campaign_into, sim_round_with_digest, FleetTransport,
};
use crowdwifi_middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi_obs::Registry;
use crowdwifi_vanet_sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per campaign.
const ROUNDS: usize = 3;
/// Transport workers of an untraced run; the traced run uses one so
/// the layer spans of a round are serial and add up.
pub const WORKERS: usize = 2;
/// Estimator threads per vehicle: parallelism lives in the transport.
pub const ESTIMATOR_THREADS: usize = 1;
/// Reliability smoothing across a campaign's rounds.
const SMOOTHING: f64 = 0.5;
/// Map clock advance per closed round.
const ROUND_PERIOD: Duration = Duration::from_secs(60);
/// User corridor queries after each round close. Spread over every
/// round of the run, the reads sample the machine at many moments
/// instead of one.
const READS_PER_ROUND: usize = 32_768;
/// User route window length and corridor half-width, meters.
const ROUTE_M: f64 = 300.0;
const HALF_WIDTH_M: f64 = 60.0;
/// Campaigns every run makes, each with its own platform and fault-plan
/// randomness; the map-fidelity metrics are their mean, which depends
/// on the seed only.
const FIDELITY_CAMPAIGNS: u64 = 3;
/// How often inputs are rebuilt before the first campaign, to take the
/// median set-up time.
const SETUP_REPS: usize = 9;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `campus_campaign`.
    Campus,
    /// `fleet_campaign`.
    Fleet,
}

/// Campus vehicles per round; the last one is the spammer.
const CAMPUS_VEHICLES: u32 = 6;
/// Fading streams of the campus drives: seed 7, the UCI drive seed of
/// the repository's pipeline benches, mixed per round and vehicle. The
/// drives are the same for every `--seed`: with only 8 APs, the map's
/// fidelity swings with the fading draws far more than with anything
/// the program does (count error 0.625–1.25 over five seed-drawn drive
/// sets), so the seed varies the platform's randomness instead.
const CAMPUS_DRIVES_SEED: u64 = 7;
/// Fleet vehicles per round.
const FLEET_VEHICLES: u32 = 10_000;
/// Fleet vehicles sharing one 150 m road segment and its AP.
const VEHICLES_PER_SEGMENT: u32 = 20;
const SEG_LEN: f64 = 150.0;
/// One crashing and one stalling vehicle per this many.
const FAULT_STRIDE: u32 = 2048;
/// Vehicles in the pre-timing FleetTransport ≡ SimTransport gate.
const GATE_VEHICLES: u32 = 200;

/// One round's vehicles as the traced replay re-runs them.
type Replay = Vec<(VehicleId, OnlineCs, Vec<RssReading>)>;

/// Everything one campaign consumes, generated from the seed.
struct Inputs {
    segments: SegmentMap,
    world: Rect,
    config: PlatformConfig,
    rounds: Vec<Vec<(CrowdVehicle, Vec<RssReading>)>>,
    plans: Vec<FaultPlan>,
    /// Vehicles the fault plans crash or stall on purpose.
    injected: BTreeSet<VehicleId>,
    /// Whether the fault plans drop and duplicate messages.
    lossy_links: bool,
    /// Per round, copies of every vehicle's estimator and drive for the
    /// traced replay (empty in untraced runs).
    replay: Vec<Replay>,
    truth: Vec<Point>,
    user_route: Vec<[Point; 3]>,
}

/// The production online-CS configuration of the campus drives.
fn campus_estimator() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 10,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        threads: ESTIMATOR_THREADS,
        ..OnlineCsConfig::default()
    }
}

/// The cheap per-vehicle estimator of the fleet road: one 12-sample
/// window, coarse lattice, short range, no global refinement.
fn fleet_estimator() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 12,
            step: 12,
            ..WindowConfig::default()
        },
        lattice: 10.0,
        radio_range: 60.0,
        max_ap_per_window: 2,
        global_refine: false,
        threads: ESTIMATOR_THREADS,
        ..OnlineCsConfig::default()
    }
}

/// Builds one vehicle with its own estimator, keeping an untraced copy
/// of the estimator and drive for the replay and binding the round's
/// estimator to `registry` when traced.
fn vehicle(
    id: VehicleId,
    estimator: (OnlineCsConfig, PathLossModel),
    behavior: Behavior,
    readings: Vec<RssReading>,
    registry: Option<&Registry>,
    replay: &mut Replay,
) -> Result<(CrowdVehicle, Vec<RssReading>), String> {
    let estimator = OnlineCs::new(estimator.0, estimator.1).map_err(|e| e.to_string())?;
    let estimator = match registry {
        Some(reg) => {
            replay.push((id, estimator.clone(), readings.clone()));
            estimator.with_registry(reg)
        }
        None => estimator,
    };
    Ok((CrowdVehicle::new(id, estimator, behavior), readings))
}

impl Kind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Campus => "campus_campaign",
            Kind::Fleet => "fleet_campaign",
        }
    }

    /// Generates the inputs of campaign number `campaign` from `seed`:
    /// the drives depend on the seed only, the platform's and the fault
    /// plans' randomness on both. With `registry`, the vehicles'
    /// estimators record `pipeline.*` counters into it and replay
    /// copies are kept.
    ///
    /// # Errors
    ///
    /// Propagates invalid estimator or scenario configurations.
    fn inputs(
        self,
        seed: u64,
        campaign: u64,
        registry: Option<&Registry>,
    ) -> Result<Inputs, String> {
        match self {
            Kind::Campus => campus_inputs(seed, campaign, registry),
            Kind::Fleet => fleet_inputs(seed, campaign, FLEET_VEHICLES, registry),
        }
    }
}

fn campus_inputs(seed: u64, campaign: u64, registry: Option<&Registry>) -> Result<Inputs, String> {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).map_err(|e| e.to_string())?;
    let scenario = scenario.snapped_to_grid(&grid);
    let route = mobility::uci_loop_route_with(1, 25.0);
    let collector = RssCollector::new(&scenario);
    let (mut rounds, mut replay) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS as u64 {
        let mut copies = Vec::new();
        let fleet = (0..CAMPUS_VEHICLES)
            .map(|v| {
                let mut rng = ChaCha8Rng::seed_from_u64(mix(CAMPUS_DRIVES_SEED, r, u64::from(v)));
                let readings = collector.collect_along(&route, route.duration() / 181.0, &mut rng);
                let behavior = if v == CAMPUS_VEHICLES - 1 {
                    Behavior::Spammer
                } else {
                    Behavior::Honest
                };
                vehicle(
                    VehicleId(v),
                    (campus_estimator(), *scenario.pathloss()),
                    behavior,
                    readings,
                    registry,
                    &mut copies,
                )
            })
            .collect::<Result<_, _>>()?;
        rounds.push(fleet);
        replay.push(copies);
    }
    let path: Vec<Point> = route.waypoints().iter().map(|w| w.position).collect();
    Ok(Inputs {
        segments: SegmentMap::new(scenario.area(), SEG_LEN),
        world: scenario.area(),
        config: PlatformConfig {
            workers_per_task: 3,
            seed: mix(seed, 1, campaign),
            ..PlatformConfig::default()
        },
        rounds,
        plans: Vec::new(),
        injected: BTreeSet::new(),
        lossy_links: false,
        replay,
        truth: scenario.ap_positions(),
        user_route: windows_along(&path, ROUTE_M, 10.0),
    })
}

/// The fleet road: one 150 m segment per 20 vehicles, each with one
/// roadside AP placed from the seed.
fn fleet_truth(seed: u64, n: u32) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 2, 0));
    (0..n.div_ceil(VEHICLES_PER_SEGMENT))
        .map(|s| {
            use rand::Rng;
            let x0 = f64::from(s) * SEG_LEN;
            Point::new(
                x0 + rng.random_range(55.0..95.0),
                rng.random_range(20.0..30.0),
            )
        })
        .collect()
}

fn fleet_road(n: u32) -> Rect {
    let segs = n.div_ceil(VEHICLES_PER_SEGMENT).max(1);
    Rect::new(
        Point::new(0.0, -20.0),
        Point::new(f64::from(segs) * SEG_LEN, 40.0),
    )
    .expect("ordered rect")
}

/// The fault plan of round `round` (counted across campaigns): 1% drop, 0.5% duplication, one crash
/// and one stall per 2048 vehicles, and (when `server_crash`) one
/// server crash after an append, somewhere in the round's first ~20k
/// events so recovery always replays.
fn fleet_plan(seed: u64, n: u32, round: u64, server_crash: bool) -> FaultPlan {
    let mut plan = FaultPlan::noisy(mix(seed, 3, round), 0.01, 0.005, 0.0);
    for v in (7..n).step_by(FAULT_STRIDE as usize) {
        plan = plan.crash(VehicleId(v), FaultPoint::Upload);
    }
    for v in (1031..n).step_by(FAULT_STRIDE as usize) {
        plan = plan.stall(VehicleId(v), FaultPoint::Answer);
    }
    if server_crash {
        let at = 2_000 + mix(seed, 4, round) % 18_000;
        plan = plan.server_crash(at, ServerFault::CrashAfterAppend);
    }
    plan
}

fn fleet_config(seed: u64, campaign: u64) -> PlatformConfig {
    PlatformConfig {
        workers_per_task: 3,
        seed: mix(seed, 1, campaign),
        tolerance: FaultTolerance {
            deadline: Duration::from_millis(800),
            retry_backoff: Duration::from_millis(100),
            ..FaultTolerance::default()
        },
        ..PlatformConfig::default()
    }
}

/// `n` vehicles on the fleet road, each driving 12 fading-free samples
/// past its segment's AP in its own lane.
fn fleet_round(
    truth: &[Point],
    n: u32,
    registry: Option<&Registry>,
    replay: &mut Replay,
) -> Result<Vec<(CrowdVehicle, Vec<RssReading>)>, String> {
    let model = PathLossModel::uci_campus();
    (0..n)
        .map(|v| {
            let seg = v / VEHICLES_PER_SEGMENT;
            let lane = f64::from(v % VEHICLES_PER_SEGMENT) * 0.7;
            let x0 = f64::from(seg) * SEG_LEN;
            let ap = truth[seg as usize];
            let readings = (0..12)
                .map(|i| {
                    let p = Point::new(x0 + 20.0 + 10.0 * f64::from(i), lane);
                    RssReading::new(p, model.mean_rss(p.distance(ap)), f64::from(i))
                })
                .collect();
            vehicle(
                VehicleId(v),
                (fleet_estimator(), model),
                Behavior::Honest,
                readings,
                registry,
                replay,
            )
        })
        .collect()
}

fn fleet_inputs(
    seed: u64,
    campaign: u64,
    n: u32,
    registry: Option<&Registry>,
) -> Result<Inputs, String> {
    let truth = fleet_truth(seed, n);
    let world = fleet_road(n);
    let (mut rounds, mut replay) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut copies = Vec::new();
        rounds.push(fleet_round(&truth, n, registry, &mut copies)?);
        replay.push(copies);
    }
    let plans = (0..ROUNDS as u64)
        .map(|r| fleet_plan(seed, n, campaign * ROUNDS as u64 + r, true))
        .collect();
    let injected = (7..n)
        .step_by(FAULT_STRIDE as usize)
        .chain((1031..n).step_by(FAULT_STRIDE as usize))
        .map(VehicleId)
        .collect();
    let centre = [Point::new(0.0, 10.0), Point::new(world.max().x, 10.0)];
    Ok(Inputs {
        segments: SegmentMap::new(world, SEG_LEN),
        world,
        config: fleet_config(seed, campaign),
        rounds,
        plans,
        injected,
        lossy_links: true,
        replay,
        truth,
        user_route: windows_along(&centre, ROUTE_M, 100.0),
    })
}

/// Gate run before any timing: a 200-vehicle faulted round on
/// `FleetTransport` must be byte-identical to the reference simulator,
/// in state digest and in fused map.
///
/// # Errors
///
/// Describes the divergence or the round failure.
fn fleet_equivalence_gate(seed: u64) -> Result<(), String> {
    let truth = fleet_truth(seed, GATE_VEHICLES);
    let segments = || SegmentMap::new(fleet_road(GATE_VEHICLES), SEG_LEN);
    let fleet = || fleet_round(&truth, GATE_VEHICLES, None, &mut Vec::new());
    let plan = fleet_plan(seed, GATE_VEHICLES, 0, false);
    let config = fleet_config(seed, 0);
    let (sim, sim_digest) = sim_round_with_digest(segments(), fleet()?, config, &plan)
        .map_err(|e| format!("gate: sim round: {e}"))?;
    let (fleet_report, fleet_digest) = FleetTransport::new()
        .with_workers(WORKERS)
        .run_round_with_digest(segments(), fleet()?, config, &plan)
        .map_err(|e| format!("gate: fleet round: {e}"))?;
    if sim_digest != fleet_digest {
        return Err("gate: FleetTransport state digest diverged from SimTransport".into());
    }
    if format!("{:?}", sim.fused) != format!("{:?}", fleet_report.fused) {
        return Err("gate: FleetTransport fused map diverged from SimTransport".into());
    }
    Ok(())
}

/// A campaign ready to run: inputs, an empty map, and open log files.
struct Prepared {
    inputs: Inputs,
    map: Arc<GeoMap>,
    wal: Box<dyn LogSink>,
    snapshots: SnapshotStore,
    log_times: SharedLogTimes,
}

/// Generates campaign number `campaign`'s inputs and opens its WAL and
/// snapshot files in `dir`. Traced campaigns time every log call and
/// record pipeline counters into `registry`.
///
/// # Errors
///
/// Propagates input generation and file creation failures.
fn prepare(
    kind: Kind,
    seed: u64,
    campaign: u64,
    dir: &Path,
    registry: Option<&Registry>,
) -> Result<Prepared, String> {
    let inputs = kind.inputs(seed, campaign, registry)?;
    let map = Arc::new(GeoMap::new(map_config(inputs.world)).map_err(|e| e.to_string())?);
    let log_times = SharedLogTimes::default();
    let open = |name: &str| -> Result<Box<dyn LogSink>, String> {
        let file = FileSink::create(dir.join(name)).map_err(|e| e.to_string())?;
        Ok(if registry.is_some() {
            Box::new(TimingLogSink::new(file, log_times.clone()))
        } else {
            Box::new(file)
        })
    };
    let wal = open("wal")?;
    let snapshots = SnapshotStore::new(open("snapshot-a")?, open("snapshot-b")?);
    Ok(Prepared {
        inputs,
        map,
        wal,
        snapshots,
        log_times,
    })
}

/// What one campaign and its user read phase did.
struct CampaignRun {
    /// Seconds in the campaign call.
    pub campaign_s: f64,
    /// Round-to-map latency of each round, seconds.
    pub round_to_map_s: Vec<f64>,
    /// Round spans (sum), seconds.
    pub round_s: f64,
    /// Seconds inside `GeoMapSink` (map ingest).
    pub absorb_s: f64,
    /// Per-query latency of the user reads, seconds, one burst per
    /// round close.
    pub read_s: Vec<Vec<f64>>,
    /// Wall seconds of the user reads.
    pub read_wall_s: f64,
    /// Entries returned by the user reads.
    pub read_hits: u64,
    /// Vehicle-round outcomes.
    pub tally: Tally,
    /// Sealed round reports (empty when the campaign failed).
    pub reports: Vec<PlatformReport>,
    /// Snapshot of the final map.
    pub map_snapshot: Vec<u8>,
    /// `(count error, mean error m)` of the final map.
    pub fidelity: (f64, f64),
    /// Entries in the final map above the credit floor.
    pub map_entries: usize,
    /// True APs behind the drives.
    pub truth_len: usize,
    /// Estimates the sink absorbed and how many of them merged.
    pub absorbed: u64,
    /// Of those, merged into an existing entry.
    pub merged: u64,
    /// Time and volume inside the log sinks (traced campaigns only).
    pub log: LogTimes,
    /// Core and wire time of the traced replay, run after each round.
    pub replayed: ReplayTimes,
}

impl CampaignRun {
    /// Campaign plus user-read wall time: the span the traced split
    /// accounts for.
    pub fn span_s(&self) -> f64 {
        self.campaign_s + self.read_wall_s
    }
}

fn fused_estimates(report: &PlatformReport) -> Vec<ApEstimate> {
    report
        .fused
        .iter()
        .map(|f| ApEstimate {
            position: f.position,
            credit: f.support,
        })
        .collect()
}

impl Prepared {
    /// Runs the durable campaign on a `FleetTransport` with `workers`
    /// workers. After each round close a user vehicle drives the mapped
    /// road asking the map what is ahead (and, when traced, the round's
    /// vehicles are replayed); that time is kept out of the campaign's.
    /// Afterwards the sink-fed map is checked against a replay of the
    /// reports' fused stream.
    ///
    /// # Errors
    ///
    /// Fails when the sink-fed map diverges from the replay (a
    /// correctness gate). A campaign that returns `Err` is not an
    /// error here: its vehicle-rounds are counted as failed.
    pub fn run(mut self, workers: usize) -> Result<CampaignRun, String> {
        let Inputs {
            segments,
            world,
            config,
            rounds,
            plans,
            injected,
            lossy_links,
            replay,
            truth,
            user_route,
        } = self.inputs;
        let vehicle_rounds: u64 = rounds.iter().map(|r| r.len() as u64).sum();
        let transport = FleetTransport::new().with_workers(workers);
        let mut geo = GeoMapSink::new(Arc::clone(&self.map), ROUND_PERIOD);
        let mut replayed = ReplayTimes::default();
        let mut replay_error = None;
        let mut read_s = Vec::with_capacity(rounds.len());
        let (mut read_hits, mut read_wall_s) = (0u64, 0.0);
        let map = Arc::clone(&self.map);
        let mut after_close = |round: usize| {
            if let Some(vehicles) = replay.get(round) {
                if let Err(e) = replay_vehicles(vehicles, &mut replayed) {
                    replay_error.get_or_insert(e);
                }
            }
            let mut burst = Vec::with_capacity(READS_PER_ROUND);
            let reads_start = Instant::now();
            for path in user_route.iter().cycle().take(READS_PER_ROUND) {
                let t = Instant::now();
                let hits = map.aps_ahead(path, HALF_WIDTH_M);
                burst.push(t.elapsed().as_secs_f64());
                read_hits += hits.len() as u64;
            }
            read_wall_s += reads_start.elapsed().as_secs_f64();
            read_s.push(burst);
        };
        let start = Instant::now();
        let mut sink = TimingRoundSink::new(&mut geo, start).with_after(&mut after_close);
        let outcome = run_durable_campaign_into(
            &transport,
            segments,
            rounds,
            config,
            SMOOTHING,
            &plans,
            self.wal.as_mut(),
            &mut self.snapshots,
            &mut sink,
        );
        let campaign_s = start.elapsed().as_secs_f64() - sink.after_s();
        let (round_to_map_s, round_s, absorb_s) =
            (sink.round_to_map_s(), sink.round_s(), sink.sink_s());
        drop(sink);
        if let Some(e) = replay_error {
            return Err(e);
        }

        let mut tally = Tally::default();
        let reports = match outcome {
            Ok(o) => o.reports,
            Err(e) => {
                eprintln!("campaign failed: {e}");
                tally.record_lost(vehicle_rounds);
                Vec::new()
            }
        };
        // A participation completed when the server saw the vehicle
        // answer everything; a lost final `Done` does not undo that. On
        // lossy links a vehicle whose every retry was dropped lost the
        // fault plan's dice, like one the plan crashed or stalled.
        for report in &reports {
            for (id, record) in &report.fates {
                let dropped = lossy_links
                    && matches!(
                        record.fate,
                        VehicleFate::TimedOut(_) | VehicleFate::Vanished(_)
                    );
                tally.record(
                    record.fate == VehicleFate::Completed,
                    dropped || injected.contains(id),
                );
            }
        }

        // Gate: the sink is a pure fold of the round stream.
        let refold = GeoMap::new(map_config(world)).map_err(|e| e.to_string())?;
        for (i, report) in reports.iter().enumerate() {
            refold.absorb_estimates(geo.close_instant_micros(i), &fused_estimates(report));
        }
        let map_snapshot = self.map.snapshot();
        if map_snapshot != refold.snapshot() {
            return Err("gate: sink-fed map diverged from a replay of the fused stream".into());
        }

        let entries = visible_entries(&self.map);
        let ingested = geo.ingested();
        let log = *self.log_times.borrow();
        Ok(CampaignRun {
            campaign_s,
            round_to_map_s,
            round_s,
            absorb_s,
            read_s,
            read_wall_s,
            read_hits,
            tally,
            reports,
            map_snapshot,
            fidelity: map_fidelity(&truth, &entries),
            map_entries: entries.len(),
            truth_len: truth.len(),
            absorbed: ingested.merged + ingested.opened,
            merged: ingested.merged,
            log,
            replayed,
        })
    }
}

/// A scratch directory for one run's log files, removed on drop.
struct WorkDir(std::path::PathBuf);

impl WorkDir {
    /// Creates `<benchmark dir>/work/<tag>-<pid>`.
    ///
    /// # Errors
    ///
    /// Propagates directory creation failures.
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `work/` too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Sum of a counter over every round report.
fn report_counter(reports: &[PlatformReport], name: &str) -> u64 {
    reports
        .iter()
        .map(|r| r.metrics.counters.get(name).copied().unwrap_or(0))
        .sum()
}

/// Runs one campaign workload for about `seconds` and reports its
/// end-to-end metrics, or, when `traced`, its per-layer split.
///
/// # Errors
///
/// Fails when a correctness gate fails or the benchmark cannot run.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if kind == Kind::Fleet {
        fleet_equivalence_gate(seed)?;
    }
    let work = WorkDir::create(kind.name())?;
    if traced {
        return run_traced(kind, seed, work.path());
    }
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take()); // close the previous files before reopening them
        let t = Instant::now();
        prepared = Some(prepare(kind, seed, 0, work.path(), None)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let mut runs: Vec<CampaignRun> = Vec::new();
    while let Some(p) = prepared.take() {
        runs.push(p.run(WORKERS)?);
        let next = runs.len() as u64;
        if next < FIDELITY_CAMPAIGNS || started.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            prepared = Some(prepare(kind, seed, next, work.path(), None)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }

    let mut tally = Tally::default();
    for r in &runs {
        tally.attempted += r.tally.attempted;
        tally.completed += r.tally.completed;
        tally.failed += r.tally.failed;
    }
    let campaign_s: f64 = runs.iter().map(|r| r.campaign_s).sum();
    let writes = Distribution::new(runs.iter().flat_map(|r| r.round_to_map_s.clone()).collect());
    let bursts: Vec<&[f64]> = runs
        .iter()
        .flat_map(|r| r.read_s.iter().map(Vec::as_slice))
        .collect();
    let reads = Distribution::new(bursts.concat());
    // The median burst: a minority of bursts caught the machine in a
    // faster or slower state than the rest.
    let read_p50 = windowed(&bursts, 50.0, 50.0).ok_or("no user reads")?;
    let read_p99 = windowed(&bursts, 99.0, 50.0)
        .ok_or("too few user reads for a p99 with ten samples beyond it")?;
    let fidelity = &runs[..FIDELITY_CAMPAIGNS as usize];
    let mean =
        |f: fn(&CampaignRun) -> f64| fidelity.iter().map(f).sum::<f64>() / fidelity.len() as f64;
    let setup = median(&setup_s).ok_or("no set-up samples")?;
    let notes = vec![
        format!(
            "{}: {} campaign(s) x {ROUNDS} rounds, {} vehicle-rounds, {} completed, {} failed",
            kind.name(),
            runs.len(),
            tally.attempted,
            tally.completed,
            tally.failed
        ),
        format!(
            "map write (round close -> map): {}",
            writes.describe(1e3, "ms")
        ),
        format!(
            "map read (user aps_ahead): {}; reported: median over {} bursts of each burst's p50 and p99",
            reads.describe(1e6, "us"),
            bursts.len()
        ),
        format!(
            "final maps of the first {FIDELITY_CAMPAIGNS} campaigns: {:?} entries for {} true APs",
            fidelity.iter().map(|r| r.map_entries).collect::<Vec<_>>(),
            fidelity[0].truth_len
        ),
        format!("set-up: {} sample(s)", setup_s.len()),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("ops_per_s", tally.completed as f64 / campaign_s, "1/s"),
            Metric::new(
                "map_write_p50_ms",
                writes.median().ok_or("no rounds closed")? * 1e3,
                "ms",
            ),
            Metric::new("map_read_p50_us", read_p50 * 1e6, "us"),
            Metric::new("map_read_p99_us", read_p99 * 1e6, "us"),
            Metric::new("map_count_error", mean(|r| r.fidelity.0), "ratio"),
            Metric::new("map_mean_error_m", mean(|r| r.fidelity.1), "m"),
            Metric::new("completed_ratio", tally.completed_ratio(), "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
        notes,
    })
}

/// The traced run: one untraced campaign and one traced campaign, both
/// on a single transport worker; the traced one is split by layer and
/// the two spans give the tracing overhead.
fn run_traced(kind: Kind, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let plain = prepare(kind, seed, 0, dir, None)?.run(1)?;
    let registry = Registry::new();
    let traced = prepare(kind, seed, 0, dir, Some(&registry))?.run(1)?;
    if traced.map_snapshot != plain.map_snapshot {
        return Err("gate: the traced campaign built a different map".into());
    }
    let ReplayTimes {
        core_s,
        wire_s,
        frames,
        bytes,
    } = traced.replayed;

    let span = traced.span_s();
    let durability_s = traced.log.total_s();
    let query_s: f64 = traced.read_s.iter().flatten().sum();
    let round_self = traced.round_s - core_s - wire_s - durability_s;
    let unattributed = span - traced.round_s - traced.absorb_s - query_s;
    let counters = registry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let reports = &traced.reports;
    let notes = vec![
        format!(
            "{} traced: span {span:.3} s = round self {round_self:.3} + core {core_s:.3} + wire {wire_s:.3} + durability {durability_s:.3} + map ingest {:.3} + map query {query_s:.3} + unattributed {unattributed:.3}",
            kind.name(),
            traced.absorb_s
        ),
        format!(
            "untraced span {:.3} s on the same inputs and worker count",
            plain.span_s()
        ),
    ];
    Ok(Outcome {
        attempted: traced.tally.attempted,
        failed: traced.tally.failed,
        metrics: layer_metrics(&LayerSplit {
            core_s,
            core_solver_iterations: counter("pipeline.solver_iterations"),
            core_group_solves: counter("pipeline.group_solves"),
            core_memo_hits: counter("pipeline.memo_hits"),
            core_memo_lookups: counter("pipeline.memo_lookups"),
            core_windows: counter("pipeline.windows_processed"),
            wire_s,
            wire_frames: frames as f64,
            wire_bytes: bytes as f64,
            log: traced.log,
            recoveries: report_counter(reports, "durability.recoveries") as f64,
            round_s: traced.round_s,
            round_self_s: round_self,
            retries: report_counter(reports, "platform.retries") as f64,
            reassigned: reports.iter().map(|r| r.reassigned_tasks as f64).sum(),
            absorb_s: traced.absorb_s,
            absorbed: traced.absorbed as f64,
            merged: traced.merged as f64,
            query_s,
            queries: traced.read_s.iter().map(Vec::len).sum::<usize>() as f64,
            hits: traced.read_hits as f64,
            span_s: span,
            unattributed_s: unattributed,
            overhead_pct: (span / plain.span_s() - 1.0) * 100.0,
        }),
        notes,
    })
}
