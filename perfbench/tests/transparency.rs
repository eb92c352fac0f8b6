//! The traced run's wrappers only read the clock: a campaign through
//! `TimingLogSink` and `TimingRoundSink` (with a post-close hook) must
//! leave the WAL, the snapshots and the map byte-identical to an
//! unwrapped campaign on the same inputs, server crash and recovery
//! included.

use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::window::WindowConfig;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_geomap::GeoMap;
use crowdwifi_middleware::durability::{LogSink, MemorySink, SnapshotStore};
use crowdwifi_middleware::fault::{FaultPlan, ServerFault};
use crowdwifi_middleware::mapsink::GeoMapSink;
use crowdwifi_middleware::messages::VehicleId;
use crowdwifi_middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi_middleware::segment::SegmentMap;
use crowdwifi_middleware::transport::{run_durable_campaign_into, FleetTransport, RoundSink};
use crowdwifi_middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi_obs::Registry;
use crowdwifi_perfbench::map_config;
use crowdwifi_perfbench::trace::{SharedLogTimes, TimingLogSink, TimingRoundSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every call a log sink received, in order, with its bytes.
type History = Rc<RefCell<Vec<(&'static str, Vec<u8>)>>>;

/// An in-memory sink that also records its call history.
struct Recorder {
    inner: MemorySink,
    history: History,
}

impl Recorder {
    fn new(history: &History) -> Self {
        Recorder {
            inner: MemorySink::new(),
            history: Rc::clone(history),
        }
    }
}

impl LogSink for Recorder {
    fn append(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        self.history.borrow_mut().push(("append", bytes.to_vec()));
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> crowdwifi_middleware::Result<()> {
        self.history.borrow_mut().push(("sync", Vec::new()));
        self.inner.sync()
    }
    fn contents(&mut self) -> crowdwifi_middleware::Result<Vec<u8>> {
        self.history.borrow_mut().push(("contents", Vec::new()));
        self.inner.contents()
    }
    fn reset(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        self.history.borrow_mut().push(("reset", bytes.to_vec()));
        self.inner.reset(bytes)
    }
}

const VEHICLES: u32 = 60;

fn road() -> Rect {
    Rect::new(Point::new(0.0, -20.0), Point::new(450.0, 40.0)).unwrap()
}

fn fleet(registry: Option<&Registry>) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
    let model = PathLossModel::uci_campus();
    let config = OnlineCsConfig {
        window: WindowConfig {
            size: 12,
            step: 12,
            ..WindowConfig::default()
        },
        lattice: 10.0,
        radio_range: 60.0,
        max_ap_per_window: 2,
        global_refine: false,
        threads: 1,
        ..OnlineCsConfig::default()
    };
    (0..VEHICLES)
        .map(|v| {
            let x0 = f64::from(v / 20) * 150.0;
            let ap = Point::new(x0 + 75.0, 25.0);
            let readings = (0..12)
                .map(|i| {
                    let p = Point::new(x0 + 20.0 + 10.0 * f64::from(i), f64::from(v % 20) * 0.7);
                    RssReading::new(p, model.mean_rss(p.distance(ap)), f64::from(i))
                })
                .collect();
            let estimator = OnlineCs::new(config, model).unwrap();
            let estimator = match registry {
                Some(r) => estimator.with_registry(r),
                None => estimator,
            };
            (
                CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest),
                readings,
            )
        })
        .collect()
}

struct Outputs {
    wal: Vec<(&'static str, Vec<u8>)>,
    snapshots: [Vec<(&'static str, Vec<u8>)>; 2],
    map: Vec<u8>,
    reports: Vec<String>,
}

fn campaign(wrapped: bool) -> Outputs {
    let wal_history = History::default();
    let slot_history = [History::default(), History::default()];
    let times = SharedLogTimes::default();
    let registry = Registry::new();
    let sink = |h: &History| -> Box<dyn LogSink> {
        if wrapped {
            Box::new(TimingLogSink::new(Recorder::new(h), times.clone()))
        } else {
            Box::new(Recorder::new(h))
        }
    };
    let mut wal = sink(&wal_history);
    let mut snapshots = SnapshotStore::new(sink(&slot_history[0]), sink(&slot_history[1]));
    let map = Arc::new(GeoMap::new(map_config(road())).unwrap());
    let mut geo = GeoMapSink::new(Arc::clone(&map), Duration::from_secs(60));
    let mut closed = Vec::new();
    let mut after = |round: usize| closed.push(round);
    let mut timed;
    let round_sink: &mut dyn RoundSink = if wrapped {
        timed = TimingRoundSink::new(&mut geo, Instant::now()).with_after(&mut after);
        &mut timed
    } else {
        &mut geo
    };
    let plans = [
        FaultPlan::noisy(5, 0.02, 0.01, 0.0).server_crash(150, ServerFault::CrashAfterAppend),
        FaultPlan::noisy(6, 0.02, 0.01, 0.0),
    ];
    let outcome = run_durable_campaign_into(
        &FleetTransport::new().with_workers(1),
        SegmentMap::new(road(), 150.0),
        vec![
            fleet(wrapped.then_some(&registry)),
            fleet(wrapped.then_some(&registry)),
        ],
        PlatformConfig {
            workers_per_task: 3,
            seed: 17,
            tolerance: FaultTolerance {
                deadline: Duration::from_millis(800),
                retry_backoff: Duration::from_millis(100),
                ..FaultTolerance::default()
            },
            ..PlatformConfig::default()
        },
        0.5,
        &plans,
        wal.as_mut(),
        &mut snapshots,
        round_sink,
    )
    .expect("campaign");
    if wrapped {
        assert_eq!(closed, vec![0, 1], "the hook runs once per round close");
        assert!(times.borrow().appends > 0, "the WAL wrapper saw no appends");
        assert!(times.borrow().read_s > 0.0, "recovery never read the log");
    }
    let [slot_a, slot_b] = slot_history;
    Outputs {
        wal: wal_history.take(),
        snapshots: [slot_a.take(), slot_b.take()],
        map: map.snapshot(),
        reports: outcome
            .reports
            .iter()
            .map(|r| {
                format!(
                    "{:?} {:?}",
                    r.fused,
                    r.metrics.counters.get("durability.recoveries")
                )
            })
            .collect(),
    }
}

#[test]
fn timing_wrappers_leave_wal_snapshots_and_map_byte_identical() {
    let plain = campaign(false);
    let wrapped = campaign(true);
    assert!(plain.wal.iter().any(|(op, _)| *op == "contents"));
    assert_eq!(plain.wal, wrapped.wal, "WAL call history diverged");
    assert_eq!(
        plain.snapshots, wrapped.snapshots,
        "snapshot slots diverged"
    );
    assert!(!plain.map.is_empty());
    assert_eq!(plain.map, wrapped.map, "map snapshot diverged");
    assert_eq!(plain.reports, wrapped.reports, "round reports diverged");
}
