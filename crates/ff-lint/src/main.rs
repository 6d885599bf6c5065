//! `ff-lint` CLI.
//!
//! ```text
//! cargo run -p ff-lint -- [--json] [--github] [--families] [--root PATH]
//!                         [--baseline PATH] [--update-baseline] [--forbid-stale]
//!                         [--sarif PATH] [--export-product PATH]
//!                         [--killscore PATH] [--seed N]
//! ```
//!
//! Exit codes: `0` clean (no findings beyond the baseline), `1` new
//! findings (or, under `--forbid-stale`, a stale baseline; or, under
//! `--killscore`, a family below its kill-rate floor), `2` usage or
//! I/O error.

use ff_base::json::Value;
use ff_lint::{default_baseline_path, default_root, Baseline, Report, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    github: bool,
    families: bool,
    root: PathBuf,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    forbid_stale: bool,
    sarif: Option<PathBuf>,
    export_product: Option<PathBuf>,
    killscore: Option<PathBuf>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        github: false,
        families: false,
        root: default_root(),
        baseline: None,
        update_baseline: false,
        forbid_stale: false,
        sarif: None,
        export_product: None,
        killscore: None,
        seed: ff_lint::mutgen::DEFAULT_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--github" => args.github = true,
            "--families" => args.families = true,
            "--update-baseline" => args.update_baseline = true,
            "--forbid-stale" => args.forbid_stale = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root requires a path argument")?);
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(
                    it.next().ok_or("--baseline requires a path")?,
                ));
            }
            "--sarif" => {
                args.sarif = Some(PathBuf::from(it.next().ok_or("--sarif requires a path")?));
            }
            "--export-product" => {
                args.export_product = Some(PathBuf::from(
                    it.next().ok_or("--export-product requires a path")?,
                ));
            }
            "--killscore" => {
                args.killscore = Some(PathBuf::from(
                    it.next().ok_or("--killscore requires a path")?,
                ));
            }
            "--seed" => {
                let raw = it.next().ok_or("--seed requires an integer")?;
                args.seed = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: `{raw}` is not a u64"))?;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "\
ff-lint: static analysis for the FlexFetch workspace

USAGE:
    ff-lint [--json] [--github] [--families] [--root PATH] [--baseline PATH]
            [--update-baseline] [--forbid-stale] [--sarif PATH]
            [--export-product PATH] [--killscore PATH] [--seed N]

OPTIONS:
    --json              emit the machine-readable JSON report on stdout
    --github            also emit GitHub Actions ::error annotations for
                        findings beyond the baseline
    --families          list the rule-family ids and exit
    --root PATH         workspace root to scan (default: this workspace)
    --baseline PATH     ratchet file (default: crates/ff-lint/baseline.json)
    --update-baseline   rewrite the baseline to accept the current state
    --forbid-stale      fail when the baseline lists debt that no longer
                        exists (it is stale relative to --update-baseline)
    --sarif PATH        also write a SARIF 2.1.0 document for GitHub code
                        scanning (new findings at their family severity,
                        baselined debt as notes)
    --export-product PATH
                        also write the explored product-state automaton
                        (components, alphabet, reachability, recoveries)
    --killscore PATH    run the mutation engine instead of a plain scan:
                        apply every probe mutant in memory, re-run all
                        seventeen families per mutant, write the per-family
                        kill matrix to PATH and fail if any family's kill
                        rate is below its recorded floor
    --seed N            occurrence-selection seed for --killscore
                        (default: the committed CI seed)
";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.families {
        for rule in Rule::all() {
            println!("{}", rule.as_str());
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.killscore {
        let matrix = match ff_lint::mutgen::run(&args.root, args.seed) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("ff-lint: mutation engine: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, matrix.to_json()) {
            eprintln!("ff-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        let killed = matrix.mutants.iter().filter(|m| m.killed).count();
        eprintln!(
            "ff-lint: {}/{} mutant(s) killed (seed {}); matrix at {}",
            killed,
            matrix.mutants.len(),
            matrix.seed,
            path.display()
        );
        let violations = matrix.floor_violations();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("ff-lint: kill-rate floor violated — {v}");
            }
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| default_baseline_path(&args.root));

    if args.update_baseline {
        let findings = match ff_lint::collect_findings(&args.root) {
            Ok((f, _)) => f,
            Err(e) => {
                eprintln!("ff-lint: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = Baseline::from_findings(&findings);
        if let Err(e) = std::fs::write(&baseline_path, baseline.to_json()) {
            eprintln!("ff-lint: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ff-lint: baseline updated — {} key(s) covering {} finding(s) at {}",
            baseline.len(),
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    // A missing baseline file means "empty baseline": everything is new.
    // That makes a fresh checkout fail loudly instead of silently
    // accepting all debt, and lets tests point --baseline at /dev/null‑
    // style paths to see the full inventory.
    let baseline = if baseline_path.exists() {
        match Baseline::load(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ff-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        eprintln!(
            "ff-lint: baseline {} not found; comparing against an empty baseline",
            baseline_path.display()
        );
        Baseline::empty()
    };

    let report = match ff_lint::run(&args.root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ff-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.sarif {
        let mut text = to_sarif(&report).to_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("ff-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.export_product {
        let mut text = report.product.to_json_value().to_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("ff-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_table());
    }

    if args.github {
        // GitHub Actions workflow-command annotations render inline on
        // the PR diff. Only findings beyond the baseline are errors.
        for (_, _, members) in &report.delta.new {
            for f in members {
                println!(
                    "::error file={},line={},title=ff-lint {}::{}",
                    f.file,
                    f.line,
                    f.rule,
                    gha_escape(&f.message)
                );
            }
        }
    }

    if !report.is_clean() {
        return ExitCode::FAILURE;
    }
    if args.forbid_stale && !report.delta.improved.is_empty() {
        eprintln!(
            "ff-lint: baseline is stale — {} entr(ies) list debt that no longer exists; \
             run `cargo run -p ff-lint -- --update-baseline` and commit the result",
            report.delta.improved.len()
        );
        for ((rule, file, token), allowed, current) in &report.delta.improved {
            eprintln!("  {rule} {file} `{token}`: baseline {allowed}, now {current}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Escape a message for a GitHub workflow-command data section.
fn gha_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Render the report as a SARIF 2.1.0 document for GitHub code
/// scanning. Each rule carries its family severity as the SARIF
/// `defaultConfiguration` level, and findings beyond the baseline are
/// reported at that family severity; baselined debt is included at
/// `note` level so the scanning UI shows the full inventory without
/// failing the upload.
fn to_sarif(report: &Report) -> Value {
    let new: Vec<&ff_lint::Finding> = report
        .delta
        .new
        .iter()
        .flat_map(|(_, _, members)| members.iter())
        .collect();
    let rules: Vec<Value> = Rule::all()
        .into_iter()
        .map(|r| {
            Value::Object(vec![
                ("id".into(), Value::Str(r.as_str().into())),
                ("name".into(), Value::Str(r.as_str().replace('-', "_"))),
                (
                    "defaultConfiguration".into(),
                    Value::Object(vec![("level".into(), Value::Str(r.severity().into()))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            let level = if new.iter().any(|n| *n == f) {
                f.rule.severity()
            } else {
                "note"
            };
            Value::Object(vec![
                ("ruleId".into(), Value::Str(f.rule.as_str().into())),
                ("level".into(), Value::Str(level.into())),
                (
                    "message".into(),
                    Value::Object(vec![(
                        "text".into(),
                        Value::Str(format!("{} [{}]", f.message, f.token)),
                    )]),
                ),
                (
                    "locations".into(),
                    Value::Array(vec![Value::Object(vec![(
                        "physicalLocation".into(),
                        Value::Object(vec![
                            (
                                "artifactLocation".into(),
                                Value::Object(vec![("uri".into(), Value::Str(f.file.clone()))]),
                            ),
                            (
                                "region".into(),
                                Value::Object(vec![(
                                    "startLine".into(),
                                    Value::UInt(f.line.max(1) as u64),
                                )]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "$schema".into(),
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version".into(), Value::Str("2.1.0".into())),
        (
            "runs".into(),
            Value::Array(vec![Value::Object(vec![
                (
                    "tool".into(),
                    Value::Object(vec![(
                        "driver".into(),
                        Value::Object(vec![
                            ("name".into(), Value::Str("ff-lint".into())),
                            ("rules".into(), Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results".into(), Value::Array(results)),
            ])]),
        ),
    ])
}
