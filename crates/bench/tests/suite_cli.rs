//! The `suite` CLI rejects selections it does not know: a mistyped label
//! or scenario exits 2 with the valid names, before any scenario runs or
//! any record is written. `suite compare` likewise exits 2 on a hostile
//! document instead of crashing.

use std::process::{Command, Output};

fn suite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(args)
        .output()
        .expect("spawn suite")
}

/// A fresh record path under the system temp dir that no run has written.
fn record_path(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("swf-suite-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_rejected(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} missing from: {stderr}");
    }
    assert!(
        !stderr.contains("suite: running"),
        "a scenario ran despite the bad selection: {stderr}"
    );
}

#[test]
fn mistyped_label_exits_2_listing_valid_labels() {
    let json = record_path("aps.json");
    let out = suite(&[
        "--quick",
        "--label",
        "aps",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_rejected(
        &out,
        &["unknown suite label \"aps\"", "quick, paper, apps, elastic"],
    );
    assert!(!json.exists(), "a record was written for a rejected label");
}

#[test]
fn unknown_scenario_exits_2_listing_the_labels_scenarios() {
    let out = suite(&["--quick", "--scenario", "fig7"]);
    assert_rejected(
        &out,
        &[
            "unknown suite scenario \"fig7\"",
            "fig1, fig2, fig5, fig6, coldstart, ablations",
        ],
    );
    // A figure scenario is not a scenario of the apps label.
    let out = suite(&["--quick", "--label", "apps", "--scenario", "fig1"]);
    assert_rejected(&out, &["finra, mltrain, mlinfer, wordcount"]);
}

#[test]
fn flags_missing_their_value_exit_2_before_running() {
    for (flag, message) in [
        ("--scenario", "error: --scenario requires a value"),
        ("--json", "error: --json requires a path argument"),
        ("--trace-out", "error: --trace-out requires a path argument"),
    ] {
        let out = suite(&["--quick", flag]);
        assert_rejected(&out, &[message]);
    }
}

#[test]
fn compare_rejects_deeply_nested_json_without_aborting() {
    let path = record_path("nested.json");
    std::fs::write(&path, "[".repeat(1_000_000)).expect("write hostile document");
    let p = path.to_str().unwrap();
    let out = suite(&["compare", p, p]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("is not valid JSON: recursion limit exceeded at byte 128"),
        "stderr: {stderr}"
    );
}
