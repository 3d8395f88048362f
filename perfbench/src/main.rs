//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <paper-mix|control-sweep|spot-storm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! One process runs one workload. It sets up (`Workload::setup_once`,
//! timed on fresh threads and then once on the main thread), runs operations
//! until `--seconds` have passed and the last cycle of inputs is whole.
//! Every operation is checked; a panic, an incomplete workflow or a
//! broken storm invariant counts it as failed. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`.
//!
//! A traced run measures the untraced operations first, then runs the
//! same operations through the traced driver (host spans, the counting
//! allocator, swf-obs on) and checks that both give the same virtual
//! results bit for bit.

mod alloc;
mod catalog;
mod clock;
mod digest;
mod span;
mod traced;
mod workloads;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use swf_simcore::perf;

use crate::digest::Fnv;
use crate::traced::{run_traced, KernelOp, Kernels};
use crate::workloads::{
    check_concurrent, check_storm, panic_message, run_plain, run_storm, storm_tasks, Op, OpOutcome,
    SetupSample, Workload,
};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Stack of the set-up threads, as large as a main thread's.
const SETUP_STACK: usize = 8 << 20;

const USAGE: &str = "usage: perfbench --workload <paper-mix|control-sweep|spot-storm> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --list";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let unit = |name: &str| {
            catalog::END_TO_END
                .iter()
                .chain(catalog::PER_LAYER.iter())
                .find(|m| m.name == name)
                .map(|m| m.unit)
                .expect("every printed metric is in the catalog")
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Replace non-finite values (a bug) with 0 and mark the run wrong.
    fn sanitize(&mut self) {
        for (name, v) in &mut self.metrics {
            if !v.is_finite() {
                self.notes.push(format!("error: metric {name} is {v}"));
                *v = 0.0;
                self.correct = false;
            }
        }
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// What set-up cost.
struct Setup {
    samples: Vec<SetupSample>,
    /// The main thread's tarball stage, the process's first.
    first_stage_ns: u64,
    /// Bytes the main thread's set-up requested (0 unless counted).
    bytes: u64,
}

/// Set up `w.setup_samples()` times: all but the last on fresh threads
/// (each pays the first-touch cost a fresh process pays), the last on the
/// main thread, which then runs the measured loop warm. The main thread
/// comes last so the fresh threads' buffers are gone before it allocates
/// its own. With `count`, the main thread's allocations are counted.
fn measure_setup(w: Workload, seed: u64, count: bool) -> Result<Setup, String> {
    let mut samples = Vec::new();
    for _ in 1..w.setup_samples() {
        let handle = std::thread::Builder::new()
            .stack_size(SETUP_STACK)
            .spawn(move || w.setup_once(seed))
            .map_err(|e| format!("set-up thread: {e}"))?;
        samples.push(
            handle
                .join()
                .map_err(|p| format!("set-up {}", panic_message(p)))?,
        );
    }
    alloc::set_counting(count);
    let before = alloc::counts();
    let main = catch_unwind(AssertUnwindSafe(|| w.setup_once(seed)));
    let after = alloc::counts();
    alloc::set_counting(false);
    let main = main.map_err(|p| format!("set-up {}", panic_message(p)))?;
    samples.push(main);
    Ok(Setup {
        samples,
        first_stage_ns: main.stage_ns,
        bytes: after.1 - before.1,
    })
}

/// The operations of one measured loop.
struct Loop {
    /// Per-op thread CPU ms.
    times_ms: Vec<f64>,
    /// Per-op tasks completed.
    tasks: Vec<u64>,
    failed: u64,
    /// Wall seconds of the loop.
    wall_s: f64,
    /// Thread CPU seconds of the loop's operations.
    busy_s: f64,
    /// VmHWM after set-up and the first cycle, MiB.
    first_cycle_rss_mib: Option<f64>,
    /// Per-op digests (0 for failed ops).
    digests: Vec<u64>,
    failures: Vec<String>,
}

impl Loop {
    /// Tasks per CPU second of each whole cycle, the median over cycles.
    /// A rare operation hundreds of times slower than the rest moves one
    /// cycle's figure, not the run's (the notes give the mean and max).
    fn tasks_per_s(&self, cycle: usize) -> f64 {
        let per_cycle: Vec<f64> = self
            .times_ms
            .chunks_exact(cycle)
            .zip(self.tasks.chunks_exact(cycle))
            .map(|(t, n)| n.iter().sum::<u64>() as f64 / (t.iter().sum::<f64>() / 1e3))
            .collect();
        median(&per_cycle)
    }

    fn digest_of_first(&self, n: usize) -> u64 {
        let mut h = Fnv::new();
        for d in self.digests.iter().take(n) {
            h.eat(*d);
        }
        h.finish()
    }
}

/// Run operations 0, 1, … until `seconds` have passed and a cycle is
/// whole (at least one cycle).
fn measured_loop(w: Workload, seed: u64, seconds: f64) -> Loop {
    let cycle = w.cycle();
    let budget = Duration::from_secs_f64(seconds);
    let mut l = Loop {
        times_ms: Vec::new(),
        tasks: Vec::new(),
        failed: 0,
        wall_s: 0.0,
        busy_s: 0.0,
        first_cycle_rss_mib: None,
        digests: Vec::new(),
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0u64;
    while i < cycle || !i.is_multiple_of(cycle) || start.elapsed() < budget {
        let op = w.op(seed, i);
        let t = clock::now_ns();
        let out: OpOutcome = run_plain(&op);
        l.times_ms.push(ms(clock::now_ns() - t));
        l.tasks.push(out.tasks);
        l.digests.push(out.digest);
        if let Some(f) = out.failure {
            l.failed += 1;
            l.failures.push(format!("op {i}: {f}"));
        }
        i += 1;
        if i == cycle {
            l.first_cycle_rss_mib = peak_rss_mib();
        }
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l.busy_s = l.times_ms.iter().sum::<f64>() / 1e3;
    l
}

fn timing_notes(label: &str, times: &[f64]) -> String {
    let n = times.len();
    // Report a tail percentile only with at least ten samples beyond it.
    let tail = if n >= 100 {
        format!(" p90={:.4} ms", quantile(times, 0.9))
    } else {
        " (p90 not reported: fewer than 100 samples)".to_string()
    };
    let mean = times.iter().sum::<f64>() / n.max(1) as f64;
    format!(
        "{label}: n={n} p50={:.4} ms{tail} mean={mean:.4} max={:.4}",
        median(times),
        quantile(times, 1.0)
    )
}

fn setup_notes(samples: &[SetupSample]) -> String {
    let totals: Vec<f64> = samples.iter().map(|s| s.total_s).collect();
    format!(
        "setup: {} samples, seconds min={:.6} p50={:.6} max={:.6}",
        samples.len(),
        quantile(&totals, 0.0),
        median(&totals),
        quantile(&totals, 1.0)
    )
}

fn plain_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut notes = vec![format!(
        "perfbench workload={} seed={} seconds={} trace=0",
        w.name(),
        args.seed,
        args.seconds
    )];
    let setup = measure_setup(w, args.seed, false)?;
    notes.push(setup_notes(&setup.samples));
    let l = measured_loop(w, args.seed, args.seconds);
    notes.push(format!(
        "loop: wall {:.3} s, thread CPU {:.3} s",
        l.wall_s, l.busy_s
    ));
    notes.push(timing_notes("op_ms", &l.times_ms));
    notes.extend(l.failures.iter().map(|f| format!("failed {f}")));
    let cycle = w.cycle() as usize;
    notes.push(format!(
        "digest {} seed={} first {} ops: {:016x}",
        w.name(),
        args.seed,
        cycle,
        l.digest_of_first(cycle)
    ));
    // Determinism: running the first operation again must reproduce it.
    let again = run_plain(&w.op(args.seed, 0));
    let deterministic = again.failure.is_none() && again.digest == l.digests[0];
    if !deterministic {
        notes.push(format!(
            "determinism failure: op 0 digest {:016x} then {:016x}",
            l.digests[0], again.digest
        ));
    }
    // Peak memory over set-up and the first cycle: the cost of one sweep
    // of the workload's inputs. Later cycles add rare storms whose heap
    // growth would make the figure depend on run length.
    let rss = l.first_cycle_rss_mib;
    notes.push(format!(
        "peak_rss_mib: first cycle {:.3}, at exit {:.3}",
        rss.unwrap_or(0.0),
        peak_rss_mib().unwrap_or(0.0)
    ));
    if rss.is_none() {
        notes.push("error: VmHWM unavailable".into());
    }
    let setup_s: Vec<f64> = setup.samples.iter().map(|s| s.total_s).collect();
    let mut report = Report {
        correct: deterministic && l.failed == 0 && rss.is_some(),
        attempted: l.times_ms.len() as u64,
        failed: l.failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("tasks_per_s", l.tasks_per_s(cycle)),
            ("op_ms_p50", median(&l.times_ms)),
            ("peak_rss_mib", rss.unwrap_or(0.0)),
        ],
        notes,
    };
    report.sanitize();
    Ok(report)
}

/// One operation through the traced driver.
struct TracedOp {
    /// Tasks and digest, or why the operation failed.
    result: Result<(u64, u64), String>,
    /// Host ms of the operation, verification excluded.
    op_ms: f64,
    /// Per-op values keyed by per-layer metric name (absent: 0).
    values: BTreeMap<&'static str, f64>,
    kernel: KernelOp,
    ready_peak: u64,
    salvaged_s: f64,
    touched_s: f64,
}

/// Per-layer metrics read from the swf-obs metrics registry, by counter.
const COUNTERS: [(&str, &str); 14] = [
    ("container.docker_runs", "docker.runs"),
    ("k8s.pods_started", "k8s.pods_started"),
    ("k8s.pod_restarts", "k8s.pod_restarts"),
    ("knative.invocations", "knative.invocations"),
    ("knative.cold_starts", "knative.cold_starts"),
    ("knative.request_retries", "knative.request_retries"),
    ("condor.matches", "condor.matches"),
    ("condor.jobs_requeued", "condor.jobs_requeued"),
    ("dagman.node_retries", "dagman.node_retries"),
    ("dagman.rescues_written", "dagman.rescues_written"),
    ("chaos.injected", "chaos.injected"),
    ("chaos.task_failures", "chaos.task_failures"),
    ("chaos.spot_forced_kills", "chaos.spot_forced_kills"),
    ("elastic.spot_revocations", "elastic.spot_revocations"),
];

/// Spans whose time belongs to a named layer; the rest of an operation
/// is the engine and the control loops.
const TIMED: [&str; 7] = [
    "core.boot",
    "cluster.stage",
    "workloads.inputs",
    "workloads.decode",
    "workloads.matmul",
    "workloads.encode",
    "verify",
];

/// What the traced driver returns, by operation kind.
enum Traced {
    Concurrent(traced::TracedOutcome),
    Storm(Box<swf_elastic::ElasticOutcome>),
}

fn traced_op(op: &Op, kernels: &Rc<RefCell<Kernels>>) -> TracedOp {
    perf::reset_ready_peak();
    let before = perf::snapshot();
    // The storm harness reuses an ambient enabled collector, which lets
    // the benchmark count its spans; `run_traced` installs its own.
    let storm_obs = swf_obs::Obs::enabled();
    let _ambient = matches!(op, Op::Storm { .. }).then(|| swf_obs::install(storm_obs.clone()));
    span::begin();
    alloc::set_counting(true);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _op = span::enter("op");
        match op {
            Op::Concurrent {
                config,
                params,
                rep,
            } => {
                let mut config = (**config).clone();
                config.trace = true;
                Ok(Traced::Concurrent(run_traced(
                    &config, *params, *rep, kernels,
                )))
            }
            Op::Storm { seed } => run_storm(*seed).map(|o| Traced::Storm(Box::new(o))),
        }
    }));
    alloc::set_counting(false);
    let spans = span::finish();
    let prof = perf::snapshot().delta(&before);
    let kernel = kernels.borrow_mut().take_op();
    let totals = span::totals(&spans);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let op_total = t("op");
    let verify = t("verify");
    let timed_ns: u64 = TIMED.iter().map(|n| t(n).ns).sum();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("simcore.events", prof.events() as f64);
    values.insert("simcore.polls", prof.polls as f64);
    values.insert("simcore.wakes", prof.wakes as f64);
    values.insert("simcore.timers_fired", prof.timers_fired as f64);
    values.insert("simcore.spawned", prof.spawned as f64);
    values.insert(
        "simcore.ns_per_event",
        (op_total.ns - timed_ns) as f64 / prof.events().max(1) as f64,
    );
    values.insert("core.boot_ms", ms(t("core.boot").ns));
    values.insert("cluster.stage_ms", ms(t("cluster.stage").ns));
    values.insert("workloads.kernel_ms", ms(t("workloads.matmul").ns));
    values.insert(
        "workloads.codec_ms",
        ms(t("workloads.decode").ns + t("workloads.encode").ns),
    );
    values.insert("workloads.inputs_ms", ms(t("workloads.inputs").ns));
    values.insert("workloads.kernel_calls", kernel.calls as f64);
    values.insert("alloc.count", (op_total.allocs - verify.allocs) as f64);
    values.insert("alloc.bytes", (op_total.bytes - verify.bytes) as f64);
    values.insert("alloc.boot_bytes", t("core.boot").bytes as f64);
    values.insert(
        "alloc.workloads_bytes",
        [
            "workloads.inputs",
            "workloads.decode",
            "workloads.matmul",
            "workloads.encode",
        ]
        .iter()
        .map(|n| t(n).bytes as f64)
        .sum(),
    );
    values.insert("alloc.engine_bytes", op_total.self_bytes as f64);
    let mut salvaged_s = 0.0;
    let mut touched_s = 0.0;
    let result = match caught {
        Err(payload) => Err(panic_message(payload)),
        Ok(Err(e)) => Err(e),
        Ok(Ok(Traced::Concurrent(out))) => {
            let m = out.obs.metrics();
            for (name, counter) in COUNTERS {
                values.insert(name, m.counter(counter).unwrap_or(0) as f64);
            }
            values.insert("cluster.net_bytes", out.net_bytes as f64);
            values.insert("cluster.net_transfers", out.net_transfers as f64);
            values.insert("cluster.fs_bytes", out.fs_bytes as f64);
            values.insert("container.pulls", out.pulls as f64);
            values.insert("container.bytes_served", out.bytes_served as f64);
            values.insert("obs.spans", out.obs.span_count() as f64);
            let Op::Concurrent { params, .. } = op else {
                unreachable!("the concurrent driver runs concurrent ops only")
            };
            if kernel.mismatches > 0 {
                Err(format!(
                    "{} products differ from the naive kernel",
                    kernel.mismatches
                ))
            } else {
                check_concurrent(params, &out.workflow_makespans).map(|d| (out.tasks as u64, d))
            }
        }
        Ok(Ok(Traced::Storm(out))) => {
            for (name, counter) in COUNTERS {
                values.insert(name, out.chaos.metrics.counter(counter).unwrap_or(0) as f64);
            }
            values.insert(
                "container.bytes_served",
                out.chaos.registry_bytes_served as f64,
            );
            values.insert(
                "elastic.node_s",
                out.cost.on_demand_node_s + out.cost.spot_node_s,
            );
            values.insert("obs.spans", storm_obs.span_count() as f64);
            salvaged_s = out.chaos.goodput.salvaged_task_s;
            touched_s = salvaged_s + out.chaos.goodput.wasted_task_s;
            check_storm(&out).map(|d| (storm_tasks(&out), d))
        }
    };
    TracedOp {
        result,
        op_ms: ms(op_total.ns - verify.ns),
        values,
        kernel,
        ready_peak: prof.ready_peak,
        salvaged_s,
        touched_s,
    }
}

/// Per-op values reported as the median over every traced operation;
/// the rest are means over the first cycle, which repeat exactly.
const MEDIANS: [&str; 11] = [
    "simcore.ns_per_event",
    "core.boot_ms",
    "cluster.stage_ms",
    "workloads.kernel_ms",
    "workloads.codec_ms",
    "workloads.inputs_ms",
    "alloc.count",
    "alloc.bytes",
    "alloc.boot_bytes",
    "alloc.workloads_bytes",
    "alloc.engine_bytes",
];

fn traced_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut notes = vec![format!(
        "perfbench workload={} seed={} seconds={} trace=1",
        w.name(),
        args.seed,
        args.seconds
    )];
    // Set-up as in an untraced run, counting the main thread's allocations.
    let setup = measure_setup(w, args.seed, true)?;
    notes.push(setup_notes(&setup.samples));

    // Untraced reference: the end-to-end path, half the time budget.
    let plain = measured_loop(w, args.seed, args.seconds / 2.0);
    notes.push(timing_notes("untraced op_ms", &plain.times_ms));
    notes.extend(
        plain
            .failures
            .iter()
            .map(|f| format!("failed untraced {f}")),
    );

    // Traced: the same operations through the traced driver.
    let kernels = Rc::new(RefCell::new(Kernels::default()));
    let cycle = w.cycle() as usize;
    let mut ops = Vec::new();
    let mut mismatched = Vec::new();
    let mut failed = plain.failed;
    for (i, want) in plain.digests.iter().enumerate() {
        let op = traced_op(&w.op(args.seed, i as u64), &kernels);
        match &op.result {
            Err(e) => {
                failed += 1;
                notes.push(format!("failed traced op {i}: {e}"));
            }
            Ok((_, got)) if got != want => mismatched.push(i),
            Ok(_) => {}
        }
        ops.push(op);
    }
    let traced_ms: Vec<f64> = ops.iter().map(|o| o.op_ms).collect();
    notes.push(timing_notes("traced op_ms", &traced_ms));
    if !mismatched.is_empty() {
        notes.push(format!(
            "determinism failure: traced and untraced virtual results differ on ops {mismatched:?}"
        ));
    }
    // Paper-mix shares one seed across mixes: every op must compute the
    // same products, whichever venues ran them.
    let outputs: BTreeSet<u64> = ops.iter().map(|o| o.kernel.outputs_digest()).collect();
    let outputs_agree = w != Workload::PaperMix || outputs.len() == 1;
    if !outputs_agree {
        notes.push(format!(
            "output failure: {} distinct chain-output sets across venue mixes",
            outputs.len()
        ));
    }
    let mut digest = Fnv::new();
    for o in ops.iter().take(cycle) {
        digest.eat(o.result.as_ref().map(|r| r.1).unwrap_or(0));
    }
    notes.push(format!(
        "digest {} seed={} first {} ops: {:016x}",
        w.name(),
        args.seed,
        cycle,
        digest.finish()
    ));

    let first = &ops[..cycle.min(ops.len())];
    let mean = |name: &str| {
        first
            .iter()
            .map(|o| o.values.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / first.len() as f64
    };
    let med = |name: &str| {
        median(
            &ops.iter()
                .map(|o| o.values.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let calls: u64 = first.iter().map(|o| o.kernel.calls).sum();
    let distinct: BTreeSet<(u64, u64)> = first
        .iter()
        .flat_map(|o| o.kernel.calls_io.iter().map(|&(a, b, _)| (a, b)))
        .collect();
    let flops: f64 = ops.iter().map(|o| o.kernel.flops).sum();
    let kernel_s: f64 = ops
        .iter()
        .map(|o| o.values.get("workloads.kernel_ms").copied().unwrap_or(0.0))
        .sum::<f64>()
        / 1e3;
    let retries = mean("knative.request_retries");
    let invocations = mean("knative.invocations");
    let salvaged: f64 = first.iter().map(|o| o.salvaged_s).sum();
    let touched: f64 = first.iter().map(|o| o.touched_s).sum();
    let untraced_p50 = median(&plain.times_ms);
    let traced_p50 = median(&traced_ms);
    let storm = w == Workload::SpotStorm;

    let mut metrics = Vec::new();
    for m in &catalog::PER_LAYER {
        let v = match m.name {
            "simcore.peak_ready_queue" => {
                first.iter().map(|o| o.ready_peak).max().unwrap_or(0) as f64
            }
            "cluster.first_stage_ms" => ms(setup.first_stage_ns),
            "knative.retry_ratio" if invocations > 0.0 => retries / invocations,
            "knative.retry_ratio" => 0.0,
            "dagman.salvage_ratio" if touched > 0.0 => salvaged / touched,
            "dagman.salvage_ratio" => 1.0,
            "workloads.kernel_gflops" if kernel_s > 0.0 => flops / kernel_s / 1e9,
            "workloads.kernel_gflops" => 0.0,
            "workloads.distinct_inputs" => distinct.len() as f64,
            "workloads.reuse_ratio" if calls > 0 => 1.0 - distinct.len() as f64 / calls as f64,
            "workloads.reuse_ratio" => 0.0,
            "obs.share" if storm => 0.0,
            "obs.share" => 1.0 - untraced_p50 / traced_p50,
            "obs.overhead_ms" => traced_p50 - untraced_p50,
            "alloc.setup_bytes" => setup.bytes as f64,
            "alloc.count_max" => first
                .iter()
                .map(|o| o.values.get("alloc.count").copied().unwrap_or(0.0))
                .fold(0.0, f64::max),
            name if MEDIANS.contains(&name) => med(name),
            name => mean(name),
        };
        metrics.push((m.name, v));
    }
    let mut report = Report {
        correct: failed == 0 && mismatched.is_empty() && outputs_agree,
        attempted: (plain.times_ms.len() + ops.len()) as u64,
        failed,
        metrics,
        notes,
    };
    report.sanitize();
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        catalog::print_list();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        plain_run(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
