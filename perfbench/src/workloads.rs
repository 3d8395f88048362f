//! The benchmark's workloads: how each one turns the seed into
//! operations, how a plain (untraced) operation runs through the public
//! entry points, and which checks every operation must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use swf_chaos::{ChaosProfile, FaultPlan};
use swf_core::experiments::{run_once, ConcurrentOutcome, ConcurrentParams};
use swf_core::{ExperimentConfig, TestBed};
use swf_elastic::{elastic_plan, run_elastic, ElasticOutcome, ElasticRunConfig};
use swf_metrics::{fig6_mixes, simplex_grid, MixPoint};
use swf_simcore::{secs, Sim};
use swf_workloads::{ComputeModel, EnvMix};

use crate::clock;
use crate::digest::Fnv;

/// Fault horizon of the revocation storm; the elastic suite scenario
/// uses the same window.
const STORM_HORIZON_S: f64 = 150.0;

/// Simplex subdivisions of the control sweep: 15 mix points.
const SWEEP_STEPS: usize = 4;

/// Matrix dimension of the control sweep: small enough that kernels
/// cost next to nothing.
const SWEEP_DIM: usize = 8;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale kernels over the Fig. 6 mixes, one seed shared.
    PaperMix,
    /// Paper-shaped control flow with tiny kernels, a fresh seed per op.
    ControlSweep,
    /// Autoscaled spot cluster under heavy revocation storms.
    SpotStorm,
}

/// One operation: a single simulated experiment run.
pub enum Op {
    /// One `run_once` of the concurrent-chain experiment.
    Concurrent {
        /// The experiment configuration.
        config: Box<ExperimentConfig>,
        /// Chains, tasks and mix.
        params: ConcurrentParams,
        /// Repetition index (perturbs the environment assignment).
        rep: u64,
    },
    /// One `run_elastic` under a sampled heavy-spot plan.
    Storm {
        /// The storm's seed.
        seed: u64,
    },
}

/// What a plain operation yields.
pub struct OpOutcome {
    /// Workflow tasks completed.
    pub tasks: u64,
    /// Digest of the operation's virtual results.
    pub digest: u64,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
}

/// Timings of one set-up: a warm-up testbed boot, plus the image-tarball
/// stage where the workload stages images.
#[derive(Clone, Copy, Debug)]
pub struct SetupSample {
    /// Whole set-up, seconds on the benchmark clock.
    pub total_s: f64,
    /// `stage_image_tarball`, nanoseconds (0 when the workload stages none).
    pub stage_ns: u64,
}

/// A well-mixed 64-bit value from the CLI seed and a stream index, so
/// neighbouring seeds give unrelated streams.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_mix(point: MixPoint) -> EnvMix {
    EnvMix {
        serverless: point.serverless,
        container: point.container,
    }
}

impl Workload {
    /// Every workload, in `--list` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::ControlSweep,
        Workload::SpotStorm,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::ControlSweep => "control-sweep",
            Workload::SpotStorm => "spot-storm",
        }
    }

    /// Look a workload up by its CLI name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per cycle. A measured loop always ends on a whole
    /// cycle, so every run's figures cover the same input mix, and the
    /// printed digest covers the first cycle.
    pub fn cycle(self) -> u64 {
        match self {
            Workload::PaperMix => fig6_mixes().len() as u64,
            Workload::ControlSweep => simplex_grid(SWEEP_STEPS).len() as u64,
            Workload::SpotStorm => 16,
        }
    }

    /// Set-ups measured per run.
    pub fn setup_samples(self) -> usize {
        if self == Workload::SpotStorm {
            21
        } else {
            5
        }
    }

    /// The experiment configuration of the `run_once` workloads.
    pub fn base_config(self, seed: u64) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper();
        c.seed = derive(seed, 0);
        if self == Workload::ControlSweep {
            c.matrix_dim = SWEEP_DIM;
            // Pin the per-task compute at the paper's 350×350 figure, as
            // `ExperimentConfig::quick()` does, so virtual timing keeps
            // the paper's shape while the real kernels shrink.
            c.compute = ComputeModel::fixed(ExperimentConfig::paper().compute.for_dim(350));
        }
        c
    }

    /// Operation `i` of the run seeded with `seed`.
    pub fn op(self, seed: u64, i: u64) -> Op {
        match self {
            Workload::PaperMix => {
                // One config.seed across every mix, as Fig. 5 does: the
                // seed matrices repeat from op to op.
                let mixes = fig6_mixes();
                let n = mixes.len() as u64;
                Op::Concurrent {
                    config: Box::new(self.base_config(seed)),
                    params: ConcurrentParams::paper(env_mix(mixes[(i % n) as usize].1)),
                    rep: i / n,
                }
            }
            Workload::ControlSweep => {
                let grid = simplex_grid(SWEEP_STEPS);
                let mut config = self.base_config(seed);
                config.seed = derive(seed, i + 1);
                Op::Concurrent {
                    config: Box::new(config),
                    params: ConcurrentParams::paper(env_mix(
                        grid[(i % grid.len() as u64) as usize],
                    )),
                    rep: 0,
                }
            }
            Workload::SpotStorm => Op::Storm {
                seed: derive(seed, i + 1),
            },
        }
    }

    /// One set-up on the calling thread. The `run_once` workloads boot a
    /// testbed and stage the image tarball; the first stage on a thread
    /// pays for the zero-filled backing buffer. The storm stages nothing,
    /// and its boot alone takes tens of microseconds, too little to time
    /// steadily, so its set-up is a whole warm-up storm under the calm
    /// plan: boot, function registration and a fault-free burst.
    pub fn setup_once(self, seed: u64) -> SetupSample {
        let t0 = clock::now_ns();
        let stage_ns = if self == Workload::SpotStorm {
            let cfg = ElasticRunConfig::burst(derive(seed, 0));
            run_elastic(&cfg, &FaultPlan::calm()).expect("the calm warm-up storm runs");
            0
        } else {
            let config = self.base_config(seed);
            let sim = Sim::new();
            sim.block_on(async move {
                let bed = TestBed::boot(&config);
                let t = clock::now_ns();
                bed.stage_image_tarball();
                clock::now_ns() - t
            })
        };
        SetupSample {
            total_s: (clock::now_ns() - t0) as f64 / 1e9,
            stage_ns,
        }
    }
}

/// Check a concurrent run and digest its per-workflow makespans.
pub fn check_concurrent(params: &ConcurrentParams, makespans: &[f64]) -> Result<u64, String> {
    if makespans.len() != params.workflows {
        return Err(format!(
            "{} makespans for {} workflows",
            makespans.len(),
            params.workflows
        ));
    }
    if let Some(bad) = makespans.iter().find(|m| !(m.is_finite() && **m > 0.0)) {
        return Err(format!("makespan {bad} is not a positive finite time"));
    }
    let mut h = Fnv::new();
    for m in makespans {
        h.eat(m.to_bits());
    }
    Ok(h.finish())
}

/// Check the storm invariants and digest the outcome: every workflow
/// completes, nothing salvaged re-executes, salvaged outputs match.
pub fn check_storm(out: &ElasticOutcome) -> Result<u64, String> {
    let c = &out.chaos;
    if !c.all_completed() {
        return Err(format!(
            "{}/{} workflows completed",
            c.completed(),
            c.outcomes.len()
        ));
    }
    if c.goodput.reexecuted_nodes != 0 {
        return Err(format!("{} nodes re-executed", c.goodput.reexecuted_nodes));
    }
    if c.goodput.output_mismatches != 0 {
        return Err(format!(
            "{} salvaged outputs mismatched",
            c.goodput.output_mismatches
        ));
    }
    let mut h = Fnv::new();
    h.eat(c.fingerprint());
    h.eat(out.cost.dollars().to_bits());
    Ok(h.finish())
}

/// Run the storm of `seed` through `run_elastic`.
pub fn run_storm(seed: u64) -> Result<ElasticOutcome, String> {
    let cfg = ElasticRunConfig::burst(seed);
    let plan = elastic_plan(
        &ChaosProfile::heavy_spot(),
        seed,
        secs(STORM_HORIZON_S),
        &cfg.pools,
    );
    run_elastic(&cfg, &plan)
}

/// Tasks in the storm's completed workflows (every storm runs the
/// `burst` shape).
pub fn storm_tasks(out: &ElasticOutcome) -> u64 {
    (out.chaos.completed() * ElasticRunConfig::burst(0).chaos.tasks_per_workflow) as u64
}

/// Describe a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}

/// Run an operation through the public entry points with no tracing,
/// catching panics (`run_once` `expect`s workflow completion).
pub fn run_plain(op: &Op) -> OpOutcome {
    let caught = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Concurrent {
            config,
            params,
            rep,
        } => {
            let out: ConcurrentOutcome = run_once(config, *params, *rep);
            check_concurrent(params, &out.workflow_makespans).map(|d| (out.tasks as u64, d))
        }
        Op::Storm { seed } => {
            let out = run_storm(*seed)?;
            check_storm(&out).map(|d| (storm_tasks(&out), d))
        }
    }));
    match caught {
        Ok(Ok((tasks, digest))) => OpOutcome {
            tasks,
            digest,
            failure: None,
        },
        Ok(Err(e)) => OpOutcome {
            tasks: 0,
            digest: 0,
            failure: Some(e),
        },
        Err(payload) => OpOutcome {
            tasks: 0,
            digest: 0,
            failure: Some(panic_message(payload)),
        },
    }
}
