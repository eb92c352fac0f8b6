//! Acceptance tests for the solver-acceleration layer: on the seed UCI
//! campus drive, the accelerated pipeline (gap-safe screening +
//! duality-gap stops + Gram caching, every solve started from zero) must
//! recover the same AP support as the unaccelerated path while spending
//! at least 30 % fewer total ℓ1 iterations — the machine-independent
//! reduction the `solver_accel` section of BENCH_pipeline.json reports.
//! On the campus benchmark's sampling the accelerated solves must also
//! never diverge, nor leave more solves unconverged than the plain path,
//! and must spend at most 60 % of the plain path's iterations.

use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig, PipelineReport};
use crowdwifi::core::window::WindowConfig;
use crowdwifi::core::SolverAccel;
use crowdwifi::geo::Grid;
use crowdwifi::sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

fn uci_config(accel: SolverAccel) -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 10,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        accel,
        ..OnlineCsConfig::default()
    }
}

/// Runs the seeded UCI loop drive (one reading every
/// `route.duration() / samples` seconds) through the plain and the
/// accelerated pipeline, in that order.
fn campus_drive(samples: f64) -> (PipelineReport, PipelineReport) {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).unwrap();
    let scenario = scenario.snapped_to_grid(&grid);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let route = mobility::uci_loop_route_with(1, 25.0);
    let readings =
        RssCollector::new(&scenario).collect_along(&route, route.duration() / samples, &mut rng);
    assert!(readings.len() > 150, "drive too sparse: {}", readings.len());

    let run = |accel| {
        OnlineCs::new(uci_config(accel), *scenario.pathloss())
            .unwrap()
            .run_detailed(&readings)
            .unwrap()
    };
    (run(SolverAccel::disabled()), run(SolverAccel::enabled()))
}

/// [`campus_drive`] at the end-to-end benchmark's campus sampling
/// (`route.duration() / 181`), run once and shared by the tests below.
fn benchmark_sampling() -> &'static (PipelineReport, PipelineReport) {
    static DRIVE: OnceLock<(PipelineReport, PipelineReport)> = OnceLock::new();
    DRIVE.get_or_init(|| campus_drive(181.0))
}

#[test]
fn accelerated_drive_keeps_the_support_and_cuts_iterations() {
    // The same seeded campus drive the throughput bench replays.
    let (baseline, accel) = campus_drive(361.0);

    // Identical recovered support: the same AP count, each accelerated
    // estimate landing on the same lattice neighborhood as its baseline
    // counterpart.
    assert_eq!(
        baseline.final_aps.len(),
        accel.final_aps.len(),
        "acceleration changed the number of recovered APs"
    );
    for b in &baseline.final_aps {
        let d = accel
            .final_aps
            .iter()
            .map(|a| a.position.distance(b.position))
            .fold(f64::INFINITY, f64::min);
        assert!(
            d < 8.0,
            "baseline AP at {} has no accelerated counterpart ({d:.1} m away)",
            b.position
        );
    }

    // The headline number: ≥ 30 % fewer total ℓ1 iterations per drive.
    let base_iters = baseline.sensing.solver_iterations as f64;
    let accel_iters = accel.sensing.solver_iterations as f64;
    assert!(base_iters > 0.0);
    let reduction = 1.0 - accel_iters / base_iters;
    assert!(
        reduction >= 0.30,
        "iteration reduction {:.1}% below the 30% floor ({} -> {})",
        100.0 * reduction,
        base_iters,
        accel_iters
    );

    // Acceleration accounting is live: screening removed columns.
    assert!(accel.sensing.screened_cols > 0, "screening never fired");
    assert_eq!(baseline.sensing.screened_cols, 0);
}

#[test]
fn accelerated_solves_never_diverge_on_the_campus_benchmark_sampling() {
    // The end-to-end benchmark's campus workload samples the loop at
    // `route.duration() / 181`. At that sampling many Proposition-1
    // operators are far enough from orthonormal rows that a step not
    // sized to the exact `‖Q‖₂²` runs solves away.
    let (baseline, accel) = benchmark_sampling();
    assert!(accel.sensing.solves > 0);
    assert_eq!(
        accel.sensing.diverged, 0,
        "{} of {} accelerated solves diverged",
        accel.sensing.diverged, accel.sensing.solves
    );
    assert!(
        accel.sensing.unconverged <= baseline.sensing.unconverged,
        "accelerated path left {} solves unconverged, plain path {}",
        accel.sensing.unconverged,
        baseline.sensing.unconverged
    );
}

#[test]
fn cold_started_solves_cut_iterations_on_the_campus_benchmark_sampling() {
    // Every accelerated solve starts from zero. A seed carried over from
    // the previous window (the elementwise max of every group's field)
    // started each group far from its own optimum and weakened the
    // first gap-safe screen; cold starts need at most 60 % of the plain
    // path's iterations on this sampling.
    let (baseline, accel) = benchmark_sampling();
    let base_iters = baseline.sensing.solver_iterations;
    let accel_iters = accel.sensing.solver_iterations;
    assert!(base_iters > 0);
    assert!(
        accel_iters as f64 <= 0.60 * base_iters as f64,
        "accelerated path spent {accel_iters} l1 iterations, over 60% of the plain path's {base_iters}"
    );
}
