//! End-to-end tests of the `flexsim` command-line driver.

use std::process::Command;

fn flexsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexsim"))
}

#[test]
fn help_prints_usage() {
    let out = flexsim().arg("--help").output().expect("spawn flexsim");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--workload"));
    assert!(text.contains("--policy"));
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = flexsim().arg("--bogus").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"));
}

#[test]
fn small_run_reports_every_policy() {
    let out = flexsim()
        .args(["--workload", "xmms", "--policy", "all"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "FlexFetch",
        "FlexFetch-static",
        "BlueFS",
        "Disk-only",
        "WNIC-only",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn artefacts_round_trip_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("flexsim-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("t.trace");
    let profile_path = dir.join("p.json");
    let report_path = dir.join("r.md");
    let out = flexsim()
        .args([
            "--workload",
            "grep",
            "--policy",
            "flexfetch",
            "--save-trace",
            trace_path.to_str().unwrap(),
            "--save-profile",
            profile_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
            "--decisions",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The dumped artefacts parse with the library.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = flexfetch::trace::strace::from_str(&text).unwrap();
    assert_eq!(trace.files.len(), 1332);
    let profile = flexfetch::profile::Profile::load(&profile_path).unwrap();
    assert!(!profile.is_empty());
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(report.contains("# flexsim report"));
    assert!(report.contains("## FlexFetch"));
    assert!(report.contains("Decision timeline"));
}

#[test]
fn environment_flags_change_results() {
    let run = |extra: &[&str]| -> String {
        let mut cmd = flexsim();
        cmd.args(["--workload", "xmms", "--policy", "wnic"]);
        cmd.args(extra);
        let out = cmd.output().expect("spawn");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let fast = run(&[]);
    let slow = run(&["--bandwidth-mbps", "1"]);
    assert_ne!(fast, slow, "bandwidth flag had no effect");
}

#[test]
fn hoard_budget_prints_the_plan() {
    let out = flexsim()
        .args([
            "--workload",
            "xmms",
            "--policy",
            "flexfetch",
            "--hoard-budget-mb",
            "10",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hoard:"), "{text}");
    assert!(text.contains("server-only"));
}
