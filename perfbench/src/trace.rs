//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing here changes what the program does: the wrappers forward
//! every call unchanged and only read the clock around it, and the
//! replay re-runs public entry points on copies of the round's inputs.

use crate::Metric;
use crowdwifi_channel::RssReading;
use crowdwifi_core::OnlineCs;
use crowdwifi_middleware::durability::LogSink;
use crowdwifi_middleware::messages::{SensingUpload, ToServer, VehicleId};
use crowdwifi_middleware::platform::PlatformReport;
use crowdwifi_middleware::transport::RoundSink;
use crowdwifi_middleware::wire::WireMessage;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Time and volume spent inside [`LogSink`] calls (durability layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogTimes {
    /// Seconds in `append`.
    pub append_s: f64,
    /// Seconds in `sync` (flush + fsync).
    pub sync_s: f64,
    /// Seconds in `reset` (log creation, compaction, snapshot slots).
    pub reset_s: f64,
    /// Seconds in `contents` (reading the log back during recovery).
    pub read_s: f64,
    /// `append` calls.
    pub appends: u64,
    /// Bytes handed to `append` and `reset`.
    pub bytes: u64,
}

impl LogTimes {
    /// All seconds spent in the sink.
    pub fn total_s(&self) -> f64 {
        self.append_s + self.sync_s + self.reset_s + self.read_s
    }
}

/// Accumulator shared by every sink of one campaign (WAL and both
/// snapshot slots).
pub type SharedLogTimes = Rc<RefCell<LogTimes>>;

/// A [`LogSink`] that times each call into the sink it wraps.
pub struct TimingLogSink<S> {
    inner: S,
    times: SharedLogTimes,
}

impl<S: LogSink> TimingLogSink<S> {
    /// Wraps `inner`, adding its call times to `times`.
    pub fn new(inner: S, times: SharedLogTimes) -> Self {
        TimingLogSink { inner, times }
    }
}

impl<S: LogSink> LogSink for TimingLogSink<S> {
    fn append(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        let t = Instant::now();
        let r = self.inner.append(bytes);
        let mut times = self.times.borrow_mut();
        times.append_s += t.elapsed().as_secs_f64();
        times.appends += 1;
        times.bytes += bytes.len() as u64;
        r
    }

    fn sync(&mut self) -> crowdwifi_middleware::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.times.borrow_mut().sync_s += t.elapsed().as_secs_f64();
        r
    }

    fn contents(&mut self) -> crowdwifi_middleware::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.contents();
        self.times.borrow_mut().read_s += t.elapsed().as_secs_f64();
        r
    }

    fn reset(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        let t = Instant::now();
        let r = self.inner.reset(bytes);
        let mut times = self.times.borrow_mut();
        times.reset_s += t.elapsed().as_secs_f64();
        times.bytes += bytes.len() as u64;
        r
    }
}

/// A [`RoundSink`] that stamps when each round close enters and leaves
/// the sink it wraps. Both untraced and traced runs use it: the exit
/// stamps give the round-to-map latency, the enter-to-exit spans give
/// the map-ingest time.
///
/// An optional hook runs after the wrapped sink returns, before control
/// goes back to the campaign; its time belongs to no round and is
/// reported apart, so the traced replay of a round can run right after
/// that round, on a machine in the same state.
pub struct TimingRoundSink<'a> {
    inner: &'a mut dyn RoundSink,
    after: Option<&'a mut dyn FnMut(usize)>,
    start: Instant,
    enters: Vec<Instant>,
    exits: Vec<Instant>,
    resumes: Vec<Instant>,
}

impl<'a> TimingRoundSink<'a> {
    /// Wraps `inner`; `start` is when the campaign began.
    pub fn new(inner: &'a mut dyn RoundSink, start: Instant) -> Self {
        TimingRoundSink {
            inner,
            after: None,
            start,
            enters: Vec::new(),
            exits: Vec::new(),
            resumes: Vec::new(),
        }
    }

    /// Runs `after(round)` once each round close has left the wrapped
    /// sink.
    pub fn with_after(mut self, after: &'a mut dyn FnMut(usize)) -> Self {
        self.after = Some(after);
        self
    }

    /// Per round: seconds from the previous round's close (or the
    /// campaign start) until this round's sink call returned, hook time
    /// excluded.
    pub fn round_to_map_s(&self) -> Vec<f64> {
        let mut prev = self.start;
        self.exits
            .iter()
            .zip(&self.resumes)
            .map(|(&exit, &resume)| {
                let d = (exit - prev).as_secs_f64();
                prev = resume;
                d
            })
            .collect()
    }

    /// Seconds of the round spans: from the previous round's close (or
    /// the campaign start) until the next round close reached the sink.
    pub fn round_s(&self) -> f64 {
        let mut prev = self.start;
        let mut total = 0.0;
        for (&enter, &resume) in self.enters.iter().zip(&self.resumes) {
            total += (enter - prev).as_secs_f64();
            prev = resume;
        }
        total
    }

    /// Seconds inside the wrapped sink.
    pub fn sink_s(&self) -> f64 {
        self.enters
            .iter()
            .zip(&self.exits)
            .map(|(&a, &b)| (b - a).as_secs_f64())
            .sum()
    }

    /// Seconds inside the hook.
    pub fn after_s(&self) -> f64 {
        self.exits
            .iter()
            .zip(&self.resumes)
            .map(|(&a, &b)| (b - a).as_secs_f64())
            .sum()
    }
}

impl RoundSink for TimingRoundSink<'_> {
    fn round_closed(&mut self, round: usize, report: &PlatformReport) {
        self.enters.push(Instant::now());
        self.inner.round_closed(round, report);
        let exit = Instant::now();
        self.exits.push(exit);
        match self.after.as_mut() {
            Some(after) => {
                after(round);
                self.resumes.push(Instant::now());
            }
            None => self.resumes.push(exit),
        }
    }
}

/// Time and volume of the serial per-vehicle replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTimes {
    /// Seconds in `OnlineCs::run` (core).
    pub core_s: f64,
    /// Seconds encoding and decoding each `SensingUpload` frame (wire).
    pub wire_s: f64,
    /// Upload frames encoded (each also decoded).
    pub frames: u64,
    /// Bytes of those frames.
    pub bytes: u64,
}

/// Replays, one vehicle at a time, the sensing a round performs: each
/// vehicle's `OnlineCs::run` over its drive, then the binary encode and
/// decode of the upload it produces, adding the times to `out`. The
/// decoded upload must equal the encoded one.
///
/// # Errors
///
/// Returns a message when an estimator fails or an upload does not
/// survive its wire round trip.
pub fn replay_vehicles(
    vehicles: &[(VehicleId, OnlineCs, Vec<RssReading>)],
    out: &mut ReplayTimes,
) -> Result<(), String> {
    for (id, estimator, readings) in vehicles {
        let t = Instant::now();
        let estimates = estimator
            .run(readings)
            .map_err(|e| format!("replay of {id}: {e}"))?;
        let coded = Instant::now();
        let upload = ToServer::Upload(SensingUpload {
            vehicle: *id,
            estimates,
        });
        let frame = upload.to_frame();
        let decoded = ToServer::from_frame(&frame).map_err(|e| format!("upload of {id}: {e}"))?;
        let done = Instant::now();
        if decoded != upload {
            return Err(format!("upload of {id} changed in its wire round trip"));
        }
        out.core_s += (coded - t).as_secs_f64();
        out.wire_s += (done - coded).as_secs_f64();
        out.frames += 1;
        out.bytes += frame.len() as u64;
    }
    Ok(())
}

/// The per-layer split of one traced span. Seconds of the serial layer
/// spans plus `unattributed_s` equal `span_s`.
#[derive(Debug, Clone, Default)]
pub struct LayerSplit {
    pub core_s: f64,
    pub core_solver_iterations: f64,
    pub core_group_solves: f64,
    pub core_memo_hits: f64,
    pub core_memo_lookups: f64,
    pub core_windows: f64,
    pub wire_s: f64,
    pub wire_frames: f64,
    pub wire_bytes: f64,
    pub log: LogTimes,
    pub recoveries: f64,
    pub round_s: f64,
    pub round_self_s: f64,
    pub retries: f64,
    pub reassigned: f64,
    pub absorb_s: f64,
    pub absorbed: f64,
    pub merged: f64,
    pub query_s: f64,
    pub queries: f64,
    pub hits: f64,
    pub span_s: f64,
    pub unattributed_s: f64,
    pub overhead_pct: f64,
}

/// The per-layer metrics of `BENCHMARK.json`, in its order. Every
/// workload reports every one; a layer a workload does not exercise
/// reads 0. The open-loop corridor adds its generator's own accounting.
pub fn layer_metrics(s: &LayerSplit) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        Metric::new("core.run_s", s.core_s, "s"),
        Metric::new("core.solver_iterations", s.core_solver_iterations, "count"),
        Metric::new("core.group_solves", s.core_group_solves, "count"),
        Metric::new(
            "core.memo_hit_ratio",
            ratio(s.core_memo_hits, s.core_memo_lookups),
            "ratio",
        ),
        Metric::new("core.windows", s.core_windows, "count"),
        Metric::new("wire.codec_s", s.wire_s, "s"),
        Metric::new("wire.frames", s.wire_frames, "count"),
        Metric::new("wire.bytes", s.wire_bytes, "bytes"),
        Metric::new("durability.append_s", s.log.append_s, "s"),
        Metric::new("durability.sync_s", s.log.sync_s, "s"),
        Metric::new("durability.reset_s", s.log.reset_s, "s"),
        Metric::new("durability.read_s", s.log.read_s, "s"),
        Metric::new("durability.appends", s.log.appends as f64, "count"),
        Metric::new("durability.bytes", s.log.bytes as f64, "bytes"),
        Metric::new("durability.recoveries", s.recoveries, "count"),
        Metric::new("middleware.round_s", s.round_s, "s"),
        Metric::new("middleware.round_self_s", s.round_self_s, "s"),
        Metric::new("middleware.retries", s.retries, "count"),
        Metric::new("middleware.reassigned_tasks", s.reassigned, "count"),
        Metric::new("geomap.absorb_s", s.absorb_s, "s"),
        Metric::new("geomap.absorbed", s.absorbed, "count"),
        Metric::new("geomap.merge_ratio", ratio(s.merged, s.absorbed), "ratio"),
        Metric::new("geomap.query_s", s.query_s, "s"),
        Metric::new("geomap.queries", s.queries, "count"),
        Metric::new("geomap.hits_per_query", ratio(s.hits, s.queries), "count"),
        Metric::new("bench.span_s", s.span_s, "s"),
        Metric::new("unattributed_s", s.unattributed_s, "s"),
        Metric::new("trace_overhead_pct", s.overhead_pct, "%"),
    ]
}
