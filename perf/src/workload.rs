//! The three workloads and why each exists (see `perf/README.md`).

use crate::fit::Data;
use crate::serve::Topology;
use mvcore::{FitSpec, WhitenSpec};

/// How the fit side of a workload runs before serving starts; every round
/// then refits the first model.
#[derive(Debug, Clone, Copy)]
pub enum Fits {
    /// Fit one model on one seeded input.
    Repeat,
    /// Fit this many distinct models, each on its own seeded input.
    Distinct {
        /// Distinct models.
        models: usize,
    },
}

/// How the serving side of a workload runs.
#[derive(Debug, Clone)]
pub struct Serving {
    /// Stack shape.
    pub topology: Topology,
    /// Input blocks of [`crate::serve::BLOCK`] held-out instances.
    pub blocks: usize,
    /// Share of full multi-view `transform` requests.
    pub full_share: f64,
    /// Whether one model flips between two generations once a second.
    pub flip: bool,
    /// Rounds a run is split into. Each round refits the first model and
    /// runs one `low` and one `high` sub-step; the rate-step figures are
    /// medians over rounds, so a disturbance that spans fewer than half of
    /// them does not move the figure.
    pub rounds: usize,
    /// Share of `--seconds` for all `low` sub-steps together.
    pub low_share: f64,
    /// Share of `--seconds` for all `high` sub-steps together.
    pub high_share: f64,
    /// Fewest requests one sub-step sends: 300 leaves 30 beyond p90.
    pub min_requests: f64,
    /// Requests each ladder probe aims at.
    pub ladder_requests: f64,
    /// Walks of the ladder's grid; each rate's p99 is the median over them.
    pub ladder_passes: usize,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Input generator.
    pub data: Data,
    /// The fit spec (`seed` is set per run).
    pub spec: FitSpec,
    /// Fit plan.
    pub fits: Fits,
    /// Serving plan.
    pub serving: Serving,
}

/// Served names on every workload (fitted models are reused cyclically
/// across them), drawn with Zipf popularity.
pub const SERVED_NAMES: usize = 16;
/// The `low` rate step on every workload, requests/s.
pub const LOW_RPS: f64 = 250.0;
/// The `high` rate step on every workload, requests/s.
pub const HIGH_RPS: f64 = 350.0;

/// Names of every workload.
pub const NAMES: [&str; 3] = ["fit-secstr", "fit-wide", "serve-routed"];

/// Look up a workload; `smoke` shrinks every size so a run takes seconds.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let secstr_spec = if smoke {
        FitSpec::with_rank(3).decomposition_iterations(6)
    } else {
        FitSpec::with_rank(10)
    };
    // The serving workload's models are inputs to serving, not the subject:
    // a fixed 20 sweeps (tolerance 0) makes every fit the same amount of work.
    let serving_spec = secstr_spec
        .clone()
        .decomposition_iterations(if smoke { 6 } else { 20 })
        .tolerance(0.0);
    // Both fit workloads serve what they fitted with the serve-direct traffic
    // shape: 16 Zipf-popular names over one engine-backed `Server`, 4-instance
    // `transform_view` requests. Both steps sit below the direct server's
    // measured knee: on a 2-vCPU host its p99 crosses 20 ms at 420–490 rps
    // (`max_rate_rps`, five seeds per fit workload).
    let direct = |blocks| Serving {
        topology: Topology::Direct,
        blocks,
        full_share: 0.0,
        flip: false,
        rounds: 5,
        low_share: 0.2,
        high_share: 0.2,
        min_requests: if smoke { 50.0 } else { 300.0 },
        // 1000 requests leave 10 beyond p99.
        ladder_requests: if smoke { 100.0 } else { 1000.0 },
        ladder_passes: 1,
    };
    let small = |n| Data::SecStr {
        n: if smoke { 200 } else { n },
    };
    let mut w = match name {
        "fit-secstr" => Workload {
            name: "fit-secstr",
            data: small(8400),
            spec: secstr_spec,
            fits: Fits::Repeat,
            serving: direct(8),
        },
        "fit-wide" => Workload {
            name: "fit-wide",
            data: if smoke {
                Data::Wide {
                    dims: vec![256, 128, 64],
                    n: 200,
                }
            } else {
                Data::Wide {
                    dims: vec![16384, 8192, 4096],
                    n: 2000,
                }
            },
            spec: FitSpec::with_rank(if smoke { 3 } else { 8 })
                .per_view_dim(if smoke { 12 } else { 48 })
                .whiten(WhitenSpec::randomized()),
            fits: Fits::Repeat,
            // Two input blocks: a 16384-feature request is 0.5 MiB, and every
            // template keeps its request and encoded payload in memory.
            serving: Serving {
                rounds: 4,
                low_share: 0.1,
                high_share: 0.08,
                ..direct(2)
            },
        },
        "serve-routed" => Workload {
            name: "serve-routed",
            data: small(1000),
            spec: serving_spec,
            fits: Fits::Distinct { models: 3 },
            serving: Serving {
                topology: Topology::Routed,
                full_share: 0.3,
                flip: true,
                low_share: 0.15,
                high_share: 0.15,
                // Each flip stalls the flipping model's requests: three walks
                // of 600 requests each put several flips under every rate.
                ladder_requests: if smoke { 100.0 } else { 600.0 },
                ladder_passes: 3,
                ..direct(8)
            },
        },
        _ => return None,
    };
    if smoke {
        w.serving.rounds = 2;
    }
    Some(w)
}
