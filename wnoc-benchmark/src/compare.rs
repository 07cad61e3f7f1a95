//! `--compare BEFORE AFTER`: judges one results file against another under
//! the bounds `BENCHMARK.json` fixes.
//!
//! An end-to-end metric fails when it is worse than its bound by share of
//! the `BEFORE` value.  A metric in units of `count`, `cycles`, `B` or
//! `ratio` is deterministic for a seed and fails unless equal, as do output
//! digests and failure counts.  Timing metrics of single layers are printed
//! for information.

use std::collections::BTreeMap;

use crate::json::Json;

/// Units whose values repeat exactly for a given seed.
const DETERMINISTIC_UNITS: [&str; 4] = ["count", "cycles", "B", "ratio"];

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the `BEFORE` value.
    pub share: f64,
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// An end-to-end metric within its bound.
    Within,
    /// An end-to-end metric worse than its bound.
    Worse,
    /// A deterministic metric that repeated exactly.
    Same,
    /// A deterministic metric that changed.
    Differs,
    /// A layer timing, reported without a verdict.
    Info,
}

impl Judgement {
    fn fails(self) -> bool {
        matches!(self, Judgement::Worse | Judgement::Differs)
    }
}

/// The end-to-end bounds of a `BENCHMARK.json`.
pub fn bounds(spec: &Json) -> Result<BTreeMap<String, Bound>, String> {
    spec.get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Json::as_str);
            let better = metric.get("better").and_then(Json::as_str);
            let share = metric.get("bound").and_then(Json::as_f64);
            match (name, better, share) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(share)) => Ok((
                    name.to_string(),
                    Bound {
                        lower_is_better: better == "lower",
                        share,
                    },
                )),
                _ => Err(format!("malformed end_to_end entry {metric:?}")),
            }
        })
        .collect()
}

/// Relative change from `before` to `after`.
fn delta(before: f64, after: f64) -> f64 {
    if before == after {
        0.0
    } else if before == 0.0 {
        f64::INFINITY.copysign(after)
    } else {
        (after - before) / before.abs()
    }
}

/// The verdict on one metric with unit `unit`.
pub fn judge(bound: Option<&Bound>, unit: &str, before: f64, after: f64) -> Judgement {
    match bound {
        Some(bound) => {
            let change = delta(before, after);
            let worsening = if bound.lower_is_better {
                change
            } else {
                -change
            };
            if worsening > bound.share {
                Judgement::Worse
            } else {
                Judgement::Within
            }
        }
        None if DETERMINISTIC_UNITS.contains(&unit) => {
            if before == after {
                Judgement::Same
            } else {
                Judgement::Differs
            }
        }
        None => Judgement::Info,
    }
}

fn run_key(run: &Json) -> (String, i64) {
    let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
    let trace = run.get("trace").and_then(Json::as_f64).unwrap_or(-1.0);
    (workload.to_string(), trace as i64)
}

/// Compares every run of `after` with the run of the same workload and
/// trace setting in `before`.  Returns the report lines and whether every
/// check passed.
pub fn compare(
    bounds: &BTreeMap<String, Bound>,
    before: &Json,
    after: &Json,
) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<16} {:<32} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "before", "after", "delta", "bound"
    )];
    let mut ok = true;
    let baseline: BTreeMap<_, _> = before
        .get("runs")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|run| (run_key(run), run))
        .collect();
    let runs = after.get("runs").map(Json::as_array).unwrap_or_default();
    if runs.is_empty() {
        lines.push("no runs to compare".to_string());
        return (lines, false);
    }
    for run in runs {
        let key = run_key(run);
        let workload = &key.0;
        let Some(base) = baseline.get(&key) else {
            lines.push(format!("{workload:<16} missing from the baseline"));
            ok = false;
            continue;
        };
        for field in ["digest", "failed"] {
            let show = |value: Option<&Json>| match value {
                Some(Json::Str(text)) => text.clone(),
                Some(Json::Num(number)) => number.to_string(),
                Some(Json::Null) | None => "-".to_string(),
                Some(other) => format!("{other:?}"),
            };
            let (a, b) = (base.get(field), run.get(field));
            let verdict = if a == b { "Same" } else { "Differs" };
            ok &= a == b;
            lines.push(format!(
                "{workload:<16} {field:<32} {:>16} {:>16} {:>25}  {verdict}",
                show(a),
                show(b),
                ""
            ));
        }
        let metrics = |run: &Json| -> BTreeMap<String, (f64, String)> {
            run.get("metrics")
                .map(Json::as_object)
                .unwrap_or_default()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    (name.clone(), (value, unit.to_string()))
                })
                .collect()
        };
        let (old, new) = (metrics(base), metrics(run));
        for (name, (after_value, unit)) in &new {
            let Some((before_value, _)) = old.get(name) else {
                lines.push(format!(
                    "{workload:<16} {name:<32} missing from the baseline"
                ));
                ok = false;
                continue;
            };
            let bound = bounds.get(name);
            let judgement = judge(bound, unit, *before_value, *after_value);
            ok &= !judgement.fails();
            lines.push(format!(
                "{workload:<16} {name:<32} {before_value:>16.6} {after_value:>16.6} {:>+8.2}% {:>6}  {judgement:?}",
                100.0 * delta(*before_value, *after_value),
                bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b.share)),
            ));
        }
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn lower(share: f64) -> Bound {
        Bound {
            lower_is_better: true,
            share,
        }
    }

    #[test]
    fn end_to_end_verdicts_follow_direction_and_bound() {
        let higher = Bound {
            lower_is_better: false,
            share: 0.1,
        };
        assert_eq!(judge(Some(&higher), "1/s", 100.0, 91.0), Judgement::Within);
        assert_eq!(judge(Some(&higher), "1/s", 100.0, 89.0), Judgement::Worse);
        assert_eq!(judge(Some(&higher), "1/s", 100.0, 300.0), Judgement::Within);
        assert_eq!(judge(Some(&lower(0.25)), "s", 0.8, 0.99), Judgement::Within);
        assert_eq!(judge(Some(&lower(0.25)), "s", 0.8, 1.01), Judgement::Worse);
        assert_eq!(judge(Some(&lower(0.25)), "s", 0.8, 0.1), Judgement::Within);
    }

    #[test]
    fn deterministic_metrics_must_repeat_and_timings_are_informational() {
        assert_eq!(judge(None, "count", 12.0, 12.0), Judgement::Same);
        assert_eq!(judge(None, "cycles", 12.0, 13.0), Judgement::Differs);
        assert_eq!(judge(None, "ratio", 0.5, 0.5000001), Judgement::Differs);
        assert_eq!(judge(None, "s", 1.0, 9.0), Judgement::Info);
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_changed_digest() {
        let spec = parse(
            r#"{"end_to_end": [{"name": "units_per_sec", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds(&spec).unwrap();
        let results = |rate: f64, digest: &str| {
            parse(&format!(
                r#"{{"runs": [{{"workload": "w", "trace": 0, "digest": "{digest}", "failed": 0,
                   "metrics": {{"units_per_sec": {{"value": {rate}, "unit": "1/s"}},
                                "sim.cycles": {{"value": 7, "unit": "cycles"}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert!(compare(&bounds, &results(100.0, "ab"), &results(95.0, "ab")).1);
        assert!(!compare(&bounds, &results(100.0, "ab"), &results(80.0, "ab")).1);
        assert!(!compare(&bounds, &results(100.0, "ab"), &results(100.0, "cd")).1);
        assert!(
            !compare(
                &bounds,
                &results(100.0, "ab"),
                &parse(r#"{"runs": []}"#).unwrap()
            )
            .1
        );
    }
}
