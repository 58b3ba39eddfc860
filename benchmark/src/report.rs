//! What a run prints and what `--all` writes: the contract's result line,
//! the named metric table, and the result-file document.

use crate::json::Json;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::run::RunReport;

/// The metric names a run reports: every end-to-end metric with `--trace 0`,
/// every per-layer metric with `--trace 1`.
pub fn reported_names(trace: bool) -> Vec<&'static str> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table.iter().map(|(name, _)| *name).collect()
}

fn metric_json(report: &RunReport, name: &'static str) -> Json {
    Json::obj([
        ("value", Json::Num(report.metrics[name])),
        (
            "unit",
            Json::str(unit_of(name).expect("every reported metric is defined")),
        ),
    ])
}

/// The last line of a run's standard output.
pub fn result_line(report: &RunReport, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.check_failures.is_empty())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(
                reported_names(trace)
                    .into_iter()
                    .map(|name| (name, metric_json(report, name))),
            ),
        ),
    ])
}

/// The line before it: the values each end-to-end metric is the median of.
pub fn samples_line(report: &RunReport) -> Json {
    Json::obj(report.samples.iter().map(|(name, values)| {
        (
            *name,
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        )
    }))
}

pub const SAMPLES_PREFIX: &str = "samples ";

pub fn print_run(workload: &str, report: &RunReport, trace: bool) {
    println!("workload {workload}");
    for name in reported_names(trace) {
        let unit = unit_of(name).expect("every reported metric is defined");
        println!("  {name:<34} {:>16.4} {unit}", report.metrics[name]);
    }
    for failure in &report.check_failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!("{SAMPLES_PREFIX}{}", samples_line(report).to_line());
    println!("{}", result_line(report, trace).to_line());
}
