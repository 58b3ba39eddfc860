//! `--compare old.json new.json`: one row per workload and end-to-end metric
//! with old, new, delta and a verdict against the bound in `BENCHMARK.json`;
//! per-layer deltas below, informational.

use crate::json::Json;
use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The values a side's median was taken from spread wider than the
    /// bound, so a shift of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `old` the metric got worse (negative: better).
pub fn worse_by(old: f64, new: f64, better: Better) -> f64 {
    if old == new {
        return 0.0;
    }
    let toward_worse = match better {
        Better::Lower => new - old,
        Better::Higher => old - new,
    };
    if old == 0.0 {
        toward_worse.signum() * f64::INFINITY
    } else {
        toward_worse / old.abs()
    }
}

pub fn verdict(old: f64, new: f64, better: Better, bound: f64, noise: f64) -> Verdict {
    let worse = worse_by(old, new, better);
    if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples_spread(metric: &Json) -> f64 {
    let values: Vec<f64> = metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    quartile_spread(&values)
}

fn value_of(metric: &Json) -> Option<f64> {
    metric.get("value").and_then(Json::as_f64)
}

/// Print the comparison; `Ok(true)` when any row regressed.
pub fn compare(old: &Json, new: &Json, benchmark: &Json) -> Result<bool, String> {
    let bounds: Vec<(String, Better, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match entry.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect::<Result<_, String>>()?;
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("result file has no workloads")
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);

    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "delta", "bound"
    );
    for (workload, old_run) in &old_w {
        let Some(new_run) = new_w.get(workload) else {
            println!("{workload:<16} missing from the new file");
            continue;
        };
        for (metric, better, bound) in &bounds {
            let side = |run: &Json| run.get("end_to_end").and_then(|e| e.get(metric)).cloned();
            let (Some(o), Some(n)) = (side(old_run), side(new_run)) else {
                continue;
            };
            let (Some(ov), Some(nv)) = (value_of(&o), value_of(&n)) else {
                continue;
            };
            let noise = samples_spread(&o).max(samples_spread(&n));
            let v = verdict(ov, nv, *better, *bound, noise);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<16} {metric:<18} {ov:>14.4} {nv:>14.4} {:>+8.2}% {:>6.0}%  {}",
                (nv - ov) / ov.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    println!();
    println!("per-layer deltas (informational)");
    for (workload, old_run) in &old_w {
        let layers = |run: &Json| run.get("per_layer").and_then(Json::as_obj).cloned();
        let (Some(o), Some(n)) = (layers(old_run), new_w.get(workload).and_then(layers)) else {
            continue;
        };
        for (metric, old_metric) in &o {
            let (Some(ov), Some(nv)) = (value_of(old_metric), n.get(metric).and_then(value_of))
            else {
                continue;
            };
            if ov == 0.0 && nv == 0.0 {
                continue;
            }
            println!(
                "{workload:<16} {metric:<34} {ov:>16.4} {nv:>16.4} {:>+8.2}%",
                (nv - ov) / ov.abs().max(f64::MIN_POSITIVE) * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        use Better::*;
        assert_eq!(verdict(100.0, 95.0, Higher, 0.10, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(100.0, 85.0, Higher, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(verdict(100.0, 115.0, Higher, 0.10, 0.0), Verdict::Improved);
        assert_eq!(verdict(2.0, 2.3, Lower, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(verdict(2.0, 1.7, Lower, 0.10, 0.0), Verdict::Improved);
        assert_eq!(verdict(2.0, 2.1, Lower, 0.10, 0.02), Verdict::Unchanged);
        // Noise wider than the bound: no verdict either way.
        assert_eq!(verdict(2.0, 2.6, Lower, 0.10, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(2.0, 2.0, Lower, 0.10, 0.15), Verdict::Unresolved);
    }

    #[test]
    fn comparison_flags_a_regression_and_reads_spread_from_samples() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "throughput_tps", "unit": "txn/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |value: f64, samples: &str| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"throughput_tps":
                   {{"value": {value}, "unit": "txn/s", "samples": {samples}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let old = file(100.0, "[99, 100, 101]");
        assert_eq!(compare(&old, &file(80.0, "[79, 80, 81]"), &bench), Ok(true));
        assert_eq!(
            compare(&old, &file(97.0, "[96, 97, 98]"), &bench),
            Ok(false)
        );
        // A wide new side hides the drop: unresolved, not regressed.
        assert_eq!(
            compare(&old, &file(80.0, "[60, 80, 100]"), &bench),
            Ok(false)
        );
    }
}
