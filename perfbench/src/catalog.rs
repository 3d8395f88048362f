//! Every metric the benchmark prints: its unit, which direction is
//! better, and, for per-layer metrics, which end-to-end metric it should
//! move on which workload. `BENCHMARK.json` lists the same names and
//! units (a test keeps the two in step); `--list` prints this table.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics this one should move (per-layer metrics only).
    pub moves: &'static str,
    /// Workloads on which it should move them.
    pub on: &'static str,
    /// What is measured.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        on,
        about,
    }
}

use Better::{Higher, Lower};

/// Workload names and why each one is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper-mix",
        "paper-scale 350x350 kernels over the Fig. 6 mixes with one seed: kernel, codec and memo work dominate, repeated inputs",
    ),
    (
        "control-sweep",
        "paper-shaped control flow with tiny kernels and a fresh seed per op: engine and control loops dominate, nothing repeats",
    ),
    (
        "spot-storm",
        "heavy spot-revocation storms on the autoscaled cluster: requeue, retry and rescue paths, no tarball and no kernels",
    ),
];

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [Metric; 4] = [
    m(
        "setup_s",
        "s",
        Lower,
        "",
        "all",
        "median CPU seconds of a set-up on a fresh thread: boot + tarball stage (spot-storm: a calm warm-up storm)",
    ),
    m(
        "tasks_per_s",
        "1/s",
        Higher,
        "",
        "all",
        "simulated workflow tasks completed per host second of the measured loop",
    ),
    m(
        "op_ms_p50",
        "ms",
        Lower,
        "",
        "all",
        "median host ms per operation (one simulated experiment run)",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        Lower,
        "",
        "all",
        "VmHWM after set-up and the first cycle of operations",
    ),
];

const ENGINE: &str = "tasks_per_s, op_ms_p50";
const SWEEP_STORM: &str = "control-sweep, spot-storm";
const MIX_SWEEP: &str = "paper-mix, control-sweep";

/// Per-layer metrics, printed by traced runs. Counts are per operation,
/// averaged over the first cycle of operations, so they repeat exactly.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 49] = [
    m("simcore.events", "count", Lower, ENGINE, SWEEP_STORM, "polls + wakes + timers fired per op"),
    m("simcore.polls", "count", Lower, ENGINE, SWEEP_STORM, "task polls per op"),
    m("simcore.wakes", "count", Lower, ENGINE, SWEEP_STORM, "wakes that enqueued a task, per op"),
    m("simcore.timers_fired", "count", Lower, ENGINE, SWEEP_STORM, "timers fired per op"),
    m("simcore.spawned", "count", Lower, ENGINE, SWEEP_STORM, "tasks spawned per op"),
    m("simcore.peak_ready_queue", "count", Lower, ENGINE, SWEEP_STORM, "ready-queue high-water mark over the first cycle"),
    m("simcore.ns_per_event", "ns", Lower, ENGINE, SWEEP_STORM, "op self time outside the timed layer spans, per event (median op)"),
    m("core.boot_ms", "ms", Lower, "op_ms_p50", "control-sweep", "TestBed::boot per op (median)"),
    m("cluster.first_stage_ms", "ms", Lower, "setup_s, peak_rss_mib", MIX_SWEEP, "first stage_image_tarball in the process (0: spot-storm stages none)"),
    m("cluster.stage_ms", "ms", Lower, "setup_s, peak_rss_mib", MIX_SWEEP, "stage_image_tarball per op after warm-up (median; 0 on spot-storm)"),
    m("cluster.net_bytes", "B", Lower, "op_ms_p50", MIX_SWEEP, "simulated network bytes per op (not reachable through run_elastic: 0 on spot-storm)"),
    m("cluster.net_transfers", "count", Lower, "op_ms_p50", MIX_SWEEP, "simulated network transfers per op (0 on spot-storm)"),
    m("cluster.fs_bytes", "B", Lower, "peak_rss_mib", MIX_SWEEP, "shared-filesystem bytes held at the end of an op (0 on spot-storm)"),
    m("container.pulls", "count", Lower, "op_ms_p50", MIX_SWEEP, "registry image pulls per op (0 on spot-storm)"),
    m("container.bytes_served", "B", Lower, "op_ms_p50", "all", "registry bytes served per op"),
    m("container.docker_runs", "count", Lower, "op_ms_p50", MIX_SWEEP, "docker runs per op"),
    m("k8s.pods_started", "count", Lower, "op_ms_p50", "spot-storm", "pods started per op"),
    m("k8s.pod_restarts", "count", Lower, "op_ms_p50", "spot-storm", "in-place pod restarts per op"),
    m("knative.invocations", "count", Lower, "op_ms_p50", "spot-storm", "function invocations per op"),
    m("knative.cold_starts", "count", Lower, "op_ms_p50", "spot-storm", "cold starts per op"),
    m("knative.request_retries", "count", Lower, "op_ms_p50", "spot-storm", "router retries per op"),
    m("knative.retry_ratio", "ratio", Lower, "op_ms_p50", "spot-storm", "request retries / invocations"),
    m("condor.matches", "count", Lower, "op_ms_p50", "spot-storm", "negotiator matches per op"),
    m("condor.jobs_requeued", "count", Lower, "op_ms_p50", "spot-storm", "jobs requeued after node loss, per op"),
    m("dagman.node_retries", "count", Lower, "op_ms_p50", "spot-storm", "DAG node retries per op"),
    m("dagman.rescues_written", "count", Lower, "op_ms_p50", "spot-storm", "rescue DAGs written per op"),
    m("dagman.salvage_ratio", "ratio", Higher, "op_ms_p50", "spot-storm", "salvaged / (salvaged + wasted) task-seconds, 1 when undisturbed"),
    m("workloads.kernel_calls", "count", Lower, "op_ms_p50, tasks_per_s", "paper-mix", "matmul kernel calls per op"),
    m("workloads.kernel_ms", "ms", Lower, "op_ms_p50, tasks_per_s", "paper-mix", "matmul kernel time per op (median)"),
    m("workloads.codec_ms", "ms", Lower, "op_ms_p50, tasks_per_s", "paper-mix", "matrix decode + encode time per op (median)"),
    m("workloads.inputs_ms", "ms", Lower, "op_ms_p50, tasks_per_s", "paper-mix", "seed-matrix generation and staging per op (median)"),
    m("workloads.kernel_gflops", "GFLOP/s", Higher, "op_ms_p50, tasks_per_s", "paper-mix", "2n^3 per call over kernel time"),
    m("workloads.distinct_inputs", "count", Lower, "op_ms_p50, tasks_per_s", "paper-mix", "distinct kernel input pairs over the first cycle"),
    m("workloads.reuse_ratio", "ratio", Higher, "op_ms_p50, tasks_per_s", "paper-mix", "1 - distinct/calls: kernel calls a memo could skip"),
    m("obs.spans", "count", Lower, "op_ms_p50", "all", "swf-obs spans recorded per op"),
    m("obs.share", "ratio", Lower, "op_ms_p50", MIX_SWEEP, "1 - untraced/traced op_ms_p50 (0 on spot-storm, whose harness forces swf-obs on)"),
    m("obs.overhead_ms", "ms", Lower, "op_ms_p50", "all", "traced minus untraced op_ms_p50"),
    m("chaos.injected", "count", Lower, "op_ms_p50", "spot-storm", "faults injected per op"),
    m("chaos.task_failures", "count", Lower, "op_ms_p50", "spot-storm", "task-level failures injected per op"),
    m("chaos.spot_forced_kills", "count", Lower, "op_ms_p50", "spot-storm", "work killed at grace expiry, per op"),
    m("elastic.spot_revocations", "count", Lower, "op_ms_p50", "spot-storm", "spot revocations per op"),
    m("elastic.node_s", "node-s", Lower, "op_ms_p50", "spot-storm", "billed node-seconds per op"),
    m("alloc.count", "count", Lower, "peak_rss_mib, op_ms_p50", "all", "allocations per op (median)"),
    m("alloc.count_max", "count", Lower, "tasks_per_s, peak_rss_mib", "spot-storm", "allocations of the costliest op in the first cycle"),
    m("alloc.bytes", "B", Lower, "peak_rss_mib, op_ms_p50", "all", "bytes requested per op (median)"),
    m("alloc.setup_bytes", "B", Lower, "setup_s, peak_rss_mib", MIX_SWEEP, "bytes requested by the process's warm-up set-up"),
    m("alloc.boot_bytes", "B", Lower, "op_ms_p50", "control-sweep", "bytes requested inside TestBed::boot per op (median)"),
    m("alloc.workloads_bytes", "B", Lower, "peak_rss_mib, op_ms_p50", "paper-mix", "bytes requested by inputs, codec and kernel spans per op (median)"),
    m("alloc.engine_bytes", "B", Lower, "op_ms_p50", SWEEP_STORM, "bytes requested outside the timed layer spans per op (median)"),
];

/// Print the catalog for `--list`.
pub fn print_list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("end-to-end metrics (untraced runs):");
    for x in &END_TO_END {
        println!(
            "  {:<13} {:<4} {:<6} {}",
            x.name,
            x.unit,
            x.better.as_str(),
            x.about
        );
    }
    println!("per-layer metrics (--trace 1): name, unit, better, moves, on, what");
    for x in &PER_LAYER {
        println!(
            "  {:<26} {:<7} {:<6} {:<24} {:<26} {}",
            x.name,
            x.unit,
            x.better.as_str(),
            x.moves,
            x.on,
            x.about
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        doc.as_object()
            .and_then(|o| o.get(key))
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|e| {
                let o = e.as_object().expect("metric entry");
                let s = |k: &str| o.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|x| (x.name.into(), x.unit.into(), x.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .as_object()
            .and_then(|o| o.get("workloads"))
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|e| {
                let o = e.as_object().expect("workload entry");
                let s = |k: &str| o.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for x in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(x.name), "{} listed twice", x.name);
            assert!(x.name.len() <= 64);
            assert!(x
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(x.unit.len() <= 16);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
