//! End-to-end smoke: `--all --quick --traced` runs all four workloads and
//! their traced passes, every check passes, and the names and units that come
//! out are exactly the ones `BENCHMARK.json` declares — none in one and not
//! the other.

use gputx_benchmark::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// name → unit of one of `BENCHMARK.json`'s metric lists.
fn declared(benchmark: &Json, list: &str) -> BTreeMap<String, String> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// name → unit of one of a result's metric tables; every value must be a
/// finite number.
fn reported(run: &Json, table: &str, workload: &str) -> BTreeMap<String, String> {
    run.get(table)
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{workload}: no {table}"))
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} is not a finite number: {metric:?}"
            );
            let unit = metric.get("unit").and_then(Json::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn quick_run_of_everything_matches_benchmark_json() {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_gputx-benchmark"))
        .args(["--all", "--quick", "--traced", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "--all --quick --traced failed: {status}");

    let benchmark = read(&bench_dir.join("../BENCHMARK.json"));
    let result = read(&out);
    let header = result.get("header").expect("result has a header");
    for key in [
        "nproc", "git_rev", "profile", "seed", "seconds", "quick", "traced",
    ] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }

    let declared_workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let runs = result.get("workloads").and_then(Json::as_obj).unwrap();
    let mut ran: Vec<&str> = runs.keys().map(String::as_str).collect();
    let mut expected = declared_workloads.clone();
    ran.sort_unstable();
    expected.sort_unstable();
    assert_eq!(ran, expected, "workloads run vs BENCHMARK.json");

    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for (workload, run) in runs {
        assert_eq!(
            run.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}: a correctness check failed"
        );
        assert_eq!(
            run.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            reported(run, "end_to_end", workload),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            reported(run, "per_layer", workload),
            per_layer,
            "{workload}"
        );
        for name in end_to_end.keys() {
            let value = run.get("end_to_end").unwrap().get(name).unwrap();
            assert!(
                value.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
    }
}
