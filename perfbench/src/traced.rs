//! The traced driver: the steps of `swf_core::experiments::run_once`
//! rebuilt from public API, with a host span around each call into a
//! layer. Its matmul transformation is a wrapped copy that times decode,
//! multiply and encode separately and checks every product against an
//! independent naive kernel. Spans are host-side annotation only, so the
//! driver's makespans must equal `run_once`'s bit for bit; the test below
//! and every traced benchmark run check that they do.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use swf_container::ImageRef;
use swf_core::experiments::ConcurrentParams;
use swf_core::{
    stage_chain_workflow, ExperimentConfig, FunctionBuilder, IntegratedFactory, Provisioning,
    TestBed,
};
use swf_pegasus::{Pegasus, ReplicaLocation, Transformation};
use swf_simcore::{secs, DetRng, Sim, SimDuration};
use swf_workloads::{concurrent_workflows, decode, encode, matmul, Kernel, Matrix};

use crate::digest::{of_bytes, Fnv};
use crate::span;

/// Kernel bookkeeping shared by the wrapped transformation and the
/// driver. The naive-product cache lives across operations; the rest is
/// per operation and drained by [`Kernels::take_op`].
#[derive(Default)]
pub struct Kernels {
    /// Validated output digest per input pair, so repeated inputs are
    /// checked against the naive product computed the first time.
    naive: HashMap<(u64, u64), u64>,
    op: KernelOp,
}

/// One operation's kernel calls.
#[derive(Clone, Debug, Default)]
pub struct KernelOp {
    /// Kernel calls.
    pub calls: u64,
    /// Multiply-add work: 2·n·k·m per call.
    pub flops: f64,
    /// (input A, input B, output) digests, one per call.
    pub calls_io: Vec<(u64, u64, u64)>,
    /// Products that differed from the naive kernel's.
    pub mismatches: u64,
}

impl KernelOp {
    /// Order-free digest of every (inputs, output) triple: equal across
    /// two runs exactly when both computed the same products.
    pub fn outputs_digest(&self) -> u64 {
        let mut io = self.calls_io.clone();
        io.sort_unstable();
        let mut h = Fnv::new();
        for (a, b, o) in io {
            h.eat(a);
            h.eat(b);
            h.eat(o);
        }
        h.finish()
    }
}

impl Kernels {
    /// Drain the current operation's record.
    pub fn take_op(&mut self) -> KernelOp {
        std::mem::take(&mut self.op)
    }

    fn check(&mut self, inputs: &[Bytes], a: &Matrix, b: &Matrix, out: &Bytes) {
        let key = (of_bytes(&inputs[0]), of_bytes(&inputs[1]));
        let got = of_bytes(out);
        self.op.calls += 1;
        self.op.flops += 2.0 * a.rows() as f64 * a.cols() as f64 * b.cols() as f64;
        self.op.calls_io.push((key.0, key.1, got));
        let ok = match self.naive.get(&key) {
            Some(&want) => want == got,
            None => {
                let naive = matmul(a, b, Kernel::Naive);
                let ok = decode(out.clone()).is_ok_and(|m| m == naive);
                if ok {
                    self.naive.insert(key, got);
                }
                ok
            }
        };
        if !ok {
            self.op.mismatches += 1;
        }
    }
}

/// The experiment's matmul transformation (`swf_core::matmul_transformation`)
/// with each step in its own span and every product verified.
pub fn traced_matmul(config: &ExperimentConfig, kernels: Rc<RefCell<Kernels>>) -> Transformation {
    let compute = config.compute.for_dim(config.matrix_dim);
    Transformation::new("matmul", compute, move |inputs: Vec<Bytes>| {
        if inputs.len() != 2 {
            return Err(format!("matmul expects 2 inputs, got {}", inputs.len()));
        }
        let (a, b) = span::within("workloads.decode", || {
            (decode(inputs[0].clone()), decode(inputs[1].clone()))
        });
        let a = a.map_err(|e| format!("input A: {e}"))?;
        let b = b.map_err(|e| format!("input B: {e}"))?;
        if a.cols() != b.rows() {
            return Err(format!(
                "dimension mismatch: {}x{} × {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ));
        }
        let product = span::within("workloads.matmul", || matmul(&a, &b, Kernel::Blocked));
        let out = span::within("workloads.encode", || encode(&product));
        span::within("verify", || {
            kernels.borrow_mut().check(&inputs, &a, &b, &out)
        });
        Ok(vec![out])
    })
    .with_container(ExperimentConfig::image_name())
}

/// What one traced operation yields beyond its spans.
pub struct TracedOutcome {
    /// Per-workflow makespans in seconds, workflow index order.
    pub workflow_makespans: Vec<f64>,
    /// Tasks executed.
    pub tasks: usize,
    /// The run's span collector and metrics registry.
    pub obs: swf_obs::Obs,
    /// Bytes moved over the simulated network.
    pub net_bytes: u64,
    /// Completed network transfers.
    pub net_transfers: u64,
    /// Bytes held by the shared filesystem at the end.
    pub fs_bytes: u64,
    /// Registry image pulls.
    pub pulls: u64,
    /// Registry bytes served.
    pub bytes_served: u64,
}

/// Run one repetition as `run_once` does, with spans. `config.trace`
/// selects whether the swf-obs collector is enabled, as in `run_once`.
pub fn run_traced(
    config: &ExperimentConfig,
    params: ConcurrentParams,
    rep: u64,
    kernels: &Rc<RefCell<Kernels>>,
) -> TracedOutcome {
    let sim = Sim::new();
    let config = config.clone();
    let kernels = Rc::clone(kernels);
    let obs = if config.trace {
        swf_obs::Obs::enabled()
    } else {
        swf_obs::Obs::disabled()
    };
    let obs2 = obs.clone();
    sim.block_on(async move {
        let obs = obs2;
        let _obs_guard = swf_obs::install(obs.clone());
        let bed = span::within("core.boot", || TestBed::boot(&config));
        let tarball = span::within("cluster.stage", || bed.stage_image_tarball());
        let transformation = traced_matmul(&config, kernels);
        FunctionBuilder::new(
            "matmul",
            ImageRef::parse(ExperimentConfig::image_name()),
            &transformation,
        )
        .container_concurrency(config.container_concurrency)
        .provisioning(config.provisioning, config.min_scale)
        .serialization_rate(config.serialization_rate)
        .register(&bed.knative);
        if config.provisioning == Provisioning::PreStage {
            bed.knative
                .wait_ready("matmul", config.min_scale as usize, secs(3600.0))
                .await
                .expect("function pods ready");
        }
        let pegasus = Rc::new(
            Pegasus::new(bed.condor.clone())
                .with_dagman(config.dagman)
                .with_plan_options(params.plan),
        );
        pegasus.transformations().register(transformation);
        pegasus
            .replicas()
            .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));
        let factory = Rc::new(
            IntegratedFactory::new(
                bed.knative.clone(),
                bed.k8s.clone(),
                bed.image.clone(),
                config.container_staging,
                Some(tarball),
            )
            .with_serialization_rate(config.serialization_rate),
        );

        let chains = concurrent_workflows(
            params.workflows,
            params.tasks_per_workflow,
            params.mix,
            config.seed ^ (rep.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Staging spawns no task, so staging every chain before spawning
        // any leaves the simulation exactly as `run_once` builds it.
        let workflows: Vec<_> = span::within("workloads.inputs", || {
            chains
                .iter()
                .map(|chain| stage_chain_workflow(&bed.cluster, pegasus.replicas(), chain, &config))
                .collect()
        });
        let mut phase_rng = DetRng::new(config.seed ^ rep.wrapping_mul(31), "dagman-phase");
        let poll = config.dagman.poll_interval.as_secs_f64();
        let mut handles = Vec::new();
        for wf in workflows {
            let pegasus = Rc::clone(&pegasus);
            let factory = Rc::clone(&factory);
            let phase = SimDuration::from_secs_f64(phase_rng.uniform(0.0, poll));
            handles.push(swf_simcore::spawn(async move {
                swf_simcore::sleep(phase).await;
                let (stats, _report) = pegasus
                    .run(&wf, factory.as_ref())
                    .await
                    .expect("workflow completes");
                stats.makespan.as_secs_f64()
            }));
        }
        let workflow_makespans = swf_simcore::join_all(handles).await;
        TracedOutcome {
            workflow_makespans,
            tasks: params.workflows * params.tasks_per_workflow,
            net_bytes: bed.cluster.network().bytes_moved(),
            net_transfers: bed.cluster.network().transfers(),
            fs_bytes: bed.cluster.shared_fs().total_bytes(),
            pulls: bed.registry.pulls(),
            bytes_served: bed.registry.bytes_served(),
            obs,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Op, Workload};
    use swf_core::experiments::run_once;
    use swf_metrics::fig6_mixes;
    use swf_workloads::EnvMix;

    fn assert_bitwise(config: &ExperimentConfig, params: ConcurrentParams, rep: u64) {
        let plain = run_once(config, params, rep);
        let mut traced_config = config.clone();
        traced_config.trace = true;
        let kernels = Rc::new(RefCell::new(Kernels::default()));
        let traced = run_traced(&traced_config, params, rep, &kernels);
        let bits = |v: &[f64]| v.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&plain.workflow_makespans),
            bits(&traced.workflow_makespans),
            "seed {:#x} mix {:?} rep {rep}",
            config.seed,
            params.mix
        );
        let op = kernels.borrow_mut().take_op();
        assert_eq!(op.calls as usize, plain.tasks);
        assert_eq!(op.mismatches, 0);
        assert!(traced.obs.span_count() > 0);
    }

    #[test]
    fn traced_driver_matches_run_once_across_seeds_and_mixes() {
        for seed in [1, 2] {
            for i in [0, 4, 9, 14] {
                let Op::Concurrent {
                    config,
                    params,
                    rep,
                } = Workload::ControlSweep.op(seed, i)
                else {
                    unreachable!("the control sweep runs concurrent chains");
                };
                assert_bitwise(&config, params, rep);
            }
        }
    }

    #[test]
    fn traced_driver_matches_run_once_on_the_fig6_mixes() {
        let mut config = ExperimentConfig::quick();
        config.seed = 7;
        for (_, point) in fig6_mixes() {
            let params = ConcurrentParams {
                workflows: 4,
                tasks_per_workflow: 3,
                mix: EnvMix {
                    serverless: point.serverless,
                    container: point.container,
                },
                ..ConcurrentParams::default()
            };
            assert_bitwise(&config, params, 1);
        }
    }

    #[test]
    fn a_corrupted_product_is_caught() {
        let kernels = Rc::new(RefCell::new(Kernels::default()));
        let mut rng = DetRng::new(3, "verify");
        let a = Matrix::random(4, 4, &mut rng, -9, 9);
        let b = Matrix::random(4, 4, &mut rng, -9, 9);
        let inputs = vec![encode(&a), encode(&b)];
        let right = encode(&matmul(&a, &b, Kernel::Blocked));
        let wrong = encode(&Matrix::identity(4));
        let mut k = kernels.borrow_mut();
        k.check(&inputs, &a, &b, &right);
        k.check(&inputs, &a, &b, &right);
        k.check(&inputs, &a, &b, &wrong);
        let op = k.take_op();
        assert_eq!(op.calls, 3);
        assert_eq!(op.mismatches, 1);
    }
}
