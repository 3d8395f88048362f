//! The unified benchmark suite: every paper scenario in one run (or one
//! scenario by name), emitting one machine-readable `BENCH_<label>.json`
//! document plus each scenario's human report.
//!
//! Each scenario runs with span collection enabled and is metered by
//! [`crate::record::ScenarioMeter`], so the document carries every
//! section per scenario: `virtual` results, `obs` snapshots, the `host`
//! engine profile, and (for the `elastic` label) the `cost` ledger.

use swf_apps::AppKind;
use swf_core::experiments::{coldstart, fig1, fig2, run_fig5, run_fig6, setup_header};
use swf_core::ExperimentConfig;

use crate::ablations::{run_ablations, AblationsResult};
use crate::apps::{apps_report, run_app_scenario};
use crate::record::{
    bench_document, coldstart_json, fig1_json, fig2_json, fig5_json, fig6_json, obs_json,
    scenario_json_with_cost, slo_json, ScenarioMeter,
};
use crate::{coldstart_report, fig1_report, fig2_report, fig5_report, fig6_report, scale_config};

/// What one scenario yields: the deterministic `virtual` section, its
/// labelled span collectors, (for cost-aware scenarios) the `cost`
/// section, and the rendered human report.
pub struct ScenarioOutput {
    /// The `virtual` JSON section.
    pub virtual_section: serde_json::Value,
    /// Labelled collectors for the `obs`/`slo` sections and trace export.
    pub collectors: Vec<(String, swf_obs::Obs)>,
    /// The `cost` JSON section; `None` for scenarios without a ledger.
    pub cost: Option<serde_json::Value>,
    /// The human-readable report the suite prints.
    pub report: String,
}

impl ScenarioOutput {
    fn plain(
        virtual_section: serde_json::Value,
        collectors: Vec<(String, swf_obs::Obs)>,
        report: String,
    ) -> ScenarioOutput {
        ScenarioOutput {
            virtual_section,
            collectors,
            cost: None,
            report,
        }
    }
}

/// One suite run: the document plus every labelled span collector (for
/// an optional combined Chrome-trace export) and every scenario's report.
pub struct SuiteRun {
    /// The assembled `BENCH_*.json` document.
    pub document: serde_json::Value,
    /// Every scenario's labelled collectors, in scenario order.
    pub collectors: Vec<(String, swf_obs::Obs)>,
    /// Every scenario's human report, in scenario order.
    pub reports: Vec<String>,
}

/// A suite label or scenario name that matches nothing the suite runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownName {
    /// What failed to resolve: `"label"` or `"scenario"`.
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub name: String,
    /// The names that would have resolved.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown suite {} {:?}; valid {}s: {}",
            self.kind,
            self.name,
            self.kind,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownName {}

/// The suite's experiment config: quick or paper scale, tracing always
/// on (the document's `obs` section wants populated collectors; span
/// collection never changes virtual-time results).
fn suite_config(quick: bool) -> ExperimentConfig {
    let mut c = scale_config(quick);
    c.trace = true;
    // Sample telemetry series on the virtual clock. Read-only on the
    // registry, so `virtual` results stay bit-identical with or without it.
    c.series_interval_s = if quick { 5.0 } else { 10.0 };
    c
}

/// A figure report under the §V-A setup header it was measured with.
fn with_header(config: &ExperimentConfig, report: String) -> String {
    format!("{}\n{report}", setup_header(config))
}

fn scenario_fig1(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let counts: Vec<usize> = if quick {
        vec![10, 20, 40, 80]
    } else {
        vec![10, 20, 40, 80, 120, 160]
    };
    let r = fig1::run(&config, &counts).expect("fig1 scenario failed");
    ScenarioOutput::plain(
        fig1_json(&r),
        vec![("fig1".to_string(), obs)],
        with_header(&config, fig1_report(&r)),
    )
}

fn scenario_fig2(quick: bool) -> ScenarioOutput {
    let mut config = suite_config(quick);
    // The parallel experiment submits one burst of independent jobs: no
    // DAGMan, no claim reuse — per-job latency is negotiation-bound, not
    // activation-bound. Calibrated so the native slope lands near the
    // paper's 0.28 s/task.
    config.condor.negotiator.cycle_interval = swf_simcore::secs(5.0);
    config.condor.negotiator.activation_delay = swf_simcore::SimDuration::ZERO;
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let counts: Vec<usize> = if quick {
        vec![4, 8, 16, 24]
    } else {
        vec![4, 8, 16, 24, 32, 48, 64]
    };
    let r = fig2::run(&config, &counts);
    ScenarioOutput::plain(
        fig2_json(&r),
        vec![("fig2".to_string(), obs)],
        with_header(&config, fig2_report(&r)),
    )
}

fn scenario_fig5(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let (steps, workflows, tasks, repeats) = if quick { (2, 4, 4, 1) } else { (4, 10, 10, 3) };
    let r = run_fig5(&config, steps, workflows, tasks, repeats);
    let collectors = r
        .rows
        .iter()
        .zip(&r.collectors)
        .map(|(row, obs)| {
            (
                format!(
                    "fig5/n{:.2}-s{:.2}-c{:.2}",
                    row.mix.native, row.mix.serverless, row.mix.container
                ),
                obs.clone(),
            )
        })
        .collect();
    ScenarioOutput::plain(
        fig5_json(&r),
        collectors,
        with_header(&config, fig5_report(&r)),
    )
}

fn scenario_fig6(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let (workflows, tasks, repeats) = if quick { (4, 4, 1) } else { (10, 10, 3) };
    let r = run_fig6(&config, workflows, tasks, repeats);
    let collectors = r
        .rows
        .iter()
        .map(|row| (format!("fig6/{}", row.label), row.obs.clone()))
        .collect();
    ScenarioOutput::plain(
        fig6_json(&r),
        collectors,
        with_header(&config, fig6_report(&r)),
    )
}

fn scenario_coldstart(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let r = coldstart::run(&config).expect("coldstart scenario failed");
    ScenarioOutput::plain(
        coldstart_json(&r),
        vec![("coldstart".to_string(), obs)],
        with_header(&config, coldstart_report(&r)),
    )
}

fn scenario_ablations(quick: bool) -> ScenarioOutput {
    let r = run_ablations(quick);
    let collectors = r
        .collectors
        .iter()
        .map(|(label, obs)| (format!("ablations/{label}"), obs.clone()))
        .collect();
    let report = format!("{}\n{}", r.table().render(), AblationsResult::METRIC_NOTE);
    ScenarioOutput::plain(r.to_json(), collectors, report)
}

fn scenario_app(app: AppKind, quick: bool) -> ScenarioOutput {
    let r = run_app_scenario(app, quick);
    ScenarioOutput::plain(r.to_json(), r.collectors(), apps_report(&r))
}

fn scenario_elastic(quick: bool) -> ScenarioOutput {
    let r = crate::elastic::run_elastic_scenario(quick);
    ScenarioOutput {
        virtual_section: r.to_json(),
        collectors: r.collectors(),
        cost: Some(r.cost_json()),
        report: r.report(),
    }
}

type ScenarioFn = fn(bool) -> ScenarioOutput;

/// The labels the suite CLI accepts.
pub const LABELS: [&str; 4] = ["quick", "paper", "apps", "elastic"];

/// The figure scenarios, run under the `quick`/`paper` labels. The
/// `apps` and `elastic` labels run their scenarios on their own so their
/// documents never perturb the figure baselines.
const FIGURE_SCENARIOS: [(&str, ScenarioFn); 6] = [
    ("fig1", scenario_fig1),
    ("fig2", scenario_fig2),
    ("fig5", scenario_fig5),
    ("fig6", scenario_fig6),
    ("coldstart", scenario_coldstart),
    ("ablations", scenario_ablations),
];

/// One scenario per application, every venue each.
const APPS_SCENARIOS: [(&str, ScenarioFn); 4] = [
    ("finra", |quick| scenario_app(AppKind::Finra, quick)),
    ("mltrain", |quick| scenario_app(AppKind::MlTrain, quick)),
    ("mlinfer", |quick| scenario_app(AppKind::MlInfer, quick)),
    ("wordcount", |quick| scenario_app(AppKind::WordCount, quick)),
];

const ELASTIC_SCENARIOS: [(&str, ScenarioFn); 1] = [("elastic", scenario_elastic)];

/// The scenarios of a label. Labels outside [`LABELS`] run the figure
/// scenarios, so library callers may stamp documents with any label;
/// the CLI rejects them first with [`check_label`].
fn scenarios_for(label: &str) -> &'static [(&'static str, ScenarioFn)] {
    match label {
        "apps" => &APPS_SCENARIOS,
        "elastic" => &ELASTIC_SCENARIOS,
        _ => &FIGURE_SCENARIOS,
    }
}

/// Accept only the labels in [`LABELS`].
pub fn check_label(label: &str) -> Result<(), UnknownName> {
    if LABELS.contains(&label) {
        Ok(())
    } else {
        Err(UnknownName {
            kind: "label",
            name: label.to_string(),
            valid: LABELS.to_vec(),
        })
    }
}

/// The scenario names the given suite label runs (`--list` support).
pub fn scenario_names(label: &str) -> Vec<&'static str> {
    scenarios_for(label).iter().map(|(n, _)| *n).collect()
}

/// Run every scenario of the given label and assemble the benchmark
/// document. `on_scenario` is called with each scenario's name as it
/// starts, so callers can narrate progress.
pub fn run_suite(label: &str, quick: bool, on_scenario: impl FnMut(&str)) -> SuiteRun {
    run_selected(label, quick, scenarios_for(label), on_scenario)
}

/// Run the one scenario of `label` named `scenario`; its document entry
/// is bit-identical to the same scenario's entry in a full [`run_suite`].
pub fn run_scenario(
    label: &str,
    quick: bool,
    scenario: &str,
    on_scenario: impl FnMut(&str),
) -> Result<SuiteRun, UnknownName> {
    let all = scenarios_for(label);
    let Some(i) = all.iter().position(|(name, _)| *name == scenario) else {
        return Err(UnknownName {
            kind: "scenario",
            name: scenario.to_string(),
            valid: scenario_names(label),
        });
    };
    Ok(run_selected(label, quick, &all[i..=i], on_scenario))
}

fn run_selected(
    label: &str,
    quick: bool,
    scenarios: &[(&'static str, ScenarioFn)],
    mut on_scenario: impl FnMut(&str),
) -> SuiteRun {
    let mut entries = Vec::new();
    let mut all_collectors = Vec::new();
    let mut reports = Vec::new();
    for &(name, run) in scenarios {
        on_scenario(name);
        let meter = ScenarioMeter::start();
        let out = run(quick);
        let host = meter.finish();
        let refs: Vec<(&str, &swf_obs::Obs)> = out
            .collectors
            .iter()
            .map(|(l, o)| (l.as_str(), o))
            .collect();
        entries.push((
            name.to_string(),
            scenario_json_with_cost(
                out.virtual_section,
                obs_json(&refs),
                slo_json(&refs),
                out.cost,
                host,
            ),
        ));
        all_collectors.extend(out.collectors);
        reports.push(out.report);
    }
    SuiteRun {
        document: bench_document(label, quick, entries),
        collectors: all_collectors,
        reports,
    }
}
