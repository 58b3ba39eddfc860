//! The GPUTx benchmark: four wire workloads, end-to-end metrics with
//! bounds, a stepped per-layer trace. See `README.md`.
//!
//! ```text
//! gputx-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! gputx-benchmark --all [--seed N] [--seconds S] [--traced] [--quick] [--out FILE]
//! gputx-benchmark --compare OLD.json NEW.json
//! ```

use gputx_benchmark::json::Json;
use gputx_benchmark::run::{self, RunOptions};
use gputx_benchmark::{compare, report, spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds `--all` measures per workload unless told otherwise: five windows.
const ALL_SECONDS: u64 = 30;
/// Seconds one `--workload` run measures unless told otherwise: three
/// windows, what `BENCHMARK.json` asks for.
const RUN_SECONDS: u64 = 18;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, count: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1..at + 1 + count)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {text:?}")),
        }
    }
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match real_main(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gputx-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &Args) -> Result<ExitCode, String> {
    if let Some(files) = args.values("--compare", 2) {
        let benchmark = read_json(&bench_dir().join("../BENCHMARK.json"))?;
        let regressed = compare::compare(
            &read_json(Path::new(&files[0]))?,
            &read_json(Path::new(&files[1]))?,
            &benchmark,
        )?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let quick = args.flag("--quick");
    let seed = args.number("--seed", 42)?;
    if args.flag("--all") {
        let seconds = args.number("--seconds", ALL_SECONDS)?;
        return run_all(
            seed,
            seconds,
            quick,
            args.flag("--traced"),
            args.value("--out"),
        );
    }
    let name = args
        .value("--workload")
        .ok_or("give --workload <name>, --all or --compare OLD NEW")?;
    let spec = spec::find(name).ok_or_else(|| {
        let known: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let opts = RunOptions {
        seed,
        seconds: args.number("--seconds", RUN_SECONDS)?,
        quick,
        trace,
        scratch: bench_dir().join("tmp"),
        results: bench_dir().join("results"),
    };
    let report = run::run_workload(spec, &opts)?;
    report::print_run(spec.name, &report, trace);
    Ok(if report.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child's result: the samples line and the contract's result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    quick: bool,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        command.arg("--quick");
    }
    // Waits for the child to end; its stderr passes through.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: the run printed nothing ({})", output.status))?;
    let samples = lines
        .next()
        .and_then(|line| line.strip_prefix(report::SAMPLES_PREFIX))
        .ok_or_else(|| format!("{workload}: no samples line"))?;
    Ok((
        Json::parse(samples).map_err(|e| format!("{workload}: samples line: {e}"))?,
        Json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
    ))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, each run in a fresh child process so memory numbers are
/// per workload; the traced pass is a second child.
fn run_all(
    seed: u64,
    seconds: u64,
    quick: bool,
    traced: bool,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &spec::SPECS {
        let (samples, result) = run_child(spec.name, seed, seconds, quick, false)?;
        let mut correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        // Attach each metric's samples to its value.
        let end_to_end = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: result line has no metrics", spec.name))?
            .iter()
            .map(|(name, metric)| {
                let mut metric = metric.as_obj().cloned().unwrap_or_default();
                if let Some(values) = samples.get(name) {
                    metric.insert("samples".into(), values.clone());
                }
                (name.clone(), Json::Obj(metric))
            });
        let mut entry = vec![
            (
                "attempted",
                result.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            (
                "failed",
                result.get("failed").cloned().unwrap_or(Json::Null),
            ),
            ("end_to_end", Json::obj(end_to_end)),
        ];
        if traced {
            let (_, layers) = run_child(spec.name, seed, seconds, quick, true)?;
            correct &= layers.get("correct").and_then(Json::as_bool) == Some(true);
            entry.push((
                "per_layer",
                layers.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        entry.push(("correct", Json::Bool(correct)));
        all_correct &= correct;
        workloads.push((spec.name, Json::obj(entry)));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::obj([
        (
            "header",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("git_rev", Json::str(git_rev())),
                (
                    "profile",
                    Json::str(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds as f64)),
                ("quick", Json::Bool(quick)),
                ("traced", Json::Bool(traced)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(out) = out {
        if let Some(parent) = Path::new(out)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
        {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        std::fs::write(out, doc.to_pretty()).map_err(|e| format!("{out}: {e}"))?;
        println!("results written to {out}");
    }
    if !all_correct {
        eprintln!("gputx-benchmark: a correctness check failed");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
