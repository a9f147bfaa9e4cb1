//! `bench_e2e compare parent.jsonl change.jsonl`: applies each end-to-end
//! metric's bound per workload, and checks that exact counts and verdict
//! digests are identical.
//!
//! Both files hold one record per run, as `--out` appends them. Rows read
//! `ok`, `regressed` or `unresolved`; a pair whose run-to-run spread is
//! wider than the bound is never called unchanged.

use crate::json::{parse, Json, JsonExt};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Runs per side below which a spread is not estimated.
const MIN_RUNS_FOR_SPREAD: usize = 4;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Row {
    Ok,
    Regressed,
    Unresolved,
}

/// Median and quartile spread of one side's runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (values[0], values[0])
        };
        Side {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median; zero when there
    /// are too few runs to estimate one.
    pub fn spread(&self) -> f64 {
        if self.n < MIN_RUNS_FOR_SPREAD || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By how much of the parent's median the change is worse (negative when
/// it is better).
pub fn worse_by(parent: &Side, change: &Side, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        change.median - parent.median
    } else {
        parent.median - change.median
    };
    if parent.median == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / parent.median.abs()
    }
}

/// A change is `regressed` when it is worse by more than the bound and by
/// more than either side's spread; otherwise a spread wider than the
/// bound leaves the pair `unresolved`.
pub fn judge(parent: &Side, change: &Side, bound: &Bound) -> Row {
    let worse = worse_by(parent, change, bound.lower_is_better);
    let spread = parent.spread().max(change.spread());
    if worse > bound.bound && worse > spread {
        Row::Regressed
    } else if spread > bound.bound {
        Row::Unresolved
    } else {
        Row::Ok
    }
}

pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            Ok(Bound {
                name: text("name")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// One file's runs: metric values per (workload, metric) of the untraced
/// runs, exact counts per (workload, seed, metric) of the traced runs,
/// and digests per (workload, seed).
#[derive(Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    exact: BTreeMap<(String, u64, String), f64>,
    digests: BTreeMap<(String, u64), String>,
}

/// Whether a metric repeats exactly for a seed: a count the harness or the
/// system made, outside the socket layer and the harness's own
/// bookkeeping. Over real sockets (`over_sockets`) what the session layer
/// is offered depends on the kernel's timing, so its counts do not repeat
/// either.
fn is_exact(name: &str, unit: &str, over_sockets: bool) -> bool {
    let inexact_layer = name.starts_with("net.")
        || name.starts_with("bench.")
        || (over_sockets && name.starts_with("session."));
    matches!(unit, "count" | "bytes" | "ticks") && !inexact_layer
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut runs = Runs::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let rec = parse(line).map_err(|e| bad(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?
            .to_string();
        let seed = rec
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let traced = rec.get("trace").and_then(Json::as_f64) == Some(1.0);
        if let Some(d) = rec.get("digest").and_then(Json::as_str) {
            runs.digests.insert((workload.clone(), seed), d.to_string());
        }
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        let over_sockets = metrics.iter().any(|(name, m)| {
            name == "net.ship_ms" && m.get("value").and_then(Json::as_f64) > Some(0.0)
        });
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            if !traced {
                runs.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
            // wire_bytes_per_epoch is the one exact count among the
            // end-to-end metrics.
            if is_exact(name, unit, over_sockets) {
                runs.exact
                    .insert((workload.clone(), seed, name.clone()), value);
            }
        }
    }
    Ok(runs)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [parent_path, change_path] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let bounds = read_bounds(
        &std::fs::read_to_string(&bounds_path)
            .map_err(|e| format!("reading {bounds_path}: {e}"))?,
    )?;
    let (parent, change) = (read_runs(parent_path)?, read_runs(change_path)?);

    println!(
        "{:<15} {:<21} {:>6} | {:>12} {:>12} {:>12} {:>3} | {:>12} {:>12} {:>12} {:>3} | {:>8} {:>8} verdict",
        "workload", "metric", "bound", "parent med", "q1", "q3", "n", "change med", "q1", "q3", "n", "worse", "spread"
    );
    let mut bad_rows = 0;
    for ((workload, metric), a) in &parent.values {
        let (Some(b), Some(bound)) = (
            change.values.get(&(workload.clone(), metric.clone())),
            bounds.iter().find(|b| &b.name == metric),
        ) else {
            continue;
        };
        let (pa, ch) = (Side::of(a), Side::of(b));
        let row = judge(&pa, &ch, bound);
        bad_rows += usize::from(row != Row::Ok);
        println!(
            "{workload:<15} {metric:<21} {:>5.1}% | {:>12.4} {:>12.4} {:>12.4} {:>3} | {:>12.4} {:>12.4} {:>12.4} {:>3} | {:>+7.2}% {:>7.2}% {}",
            bound.bound * 100.0,
            pa.median, pa.q1, pa.q3, pa.n,
            ch.median, ch.q1, ch.q3, ch.n,
            worse_by(&pa, &ch, bound.lower_is_better) * 100.0,
            pa.spread().max(ch.spread()) * 100.0,
            match row {
                Row::Ok => "ok",
                Row::Regressed => "regressed",
                Row::Unresolved => "unresolved",
            }
        );
    }

    let mut compared = 0;
    let mut differing = 0;
    for (key, a) in &parent.exact {
        if let Some(b) = change.exact.get(key) {
            compared += 1;
            if a != b {
                differing += 1;
                println!(
                    "exact count differs: {} seed {} {}: {a} vs {b}",
                    key.0, key.1, key.2
                );
            }
        }
    }
    for (key, a) in &parent.digests {
        if let Some(b) = change.digests.get(key) {
            compared += 1;
            if a != b {
                differing += 1;
                println!(
                    "verdict digest differs: {} seed {}: {a} vs {b}",
                    key.0, key.1
                );
            }
        }
    }
    println!("{compared} exact counts and digests compared, {differing} differ");
    Ok(if bad_rows + differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn tight_runs_within_the_bound_are_ok_and_beyond_it_regressed() {
        let parent = Side::of(&around(100.0, 0.1));
        assert_eq!(
            judge(&parent, &Side::of(&around(104.0, 0.1)), &bound(true, 0.07)),
            Row::Ok
        );
        assert_eq!(
            judge(&parent, &Side::of(&around(110.0, 0.1)), &bound(true, 0.07)),
            Row::Regressed
        );
        // Higher-is-better: a drop is what counts as worse.
        assert_eq!(
            judge(&parent, &Side::of(&around(90.0, 0.1)), &bound(false, 0.07)),
            Row::Regressed
        );
        assert_eq!(
            judge(&parent, &Side::of(&around(110.0, 0.1)), &bound(false, 0.07)),
            Row::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Side::of(&around(100.0, 4.0));
        assert!(noisy.spread() > 0.07);
        assert_eq!(judge(&noisy, &noisy, &bound(true, 0.07)), Row::Unresolved);
        // …unless the change is worse by more than the spread as well.
        assert_eq!(
            judge(&noisy, &Side::of(&around(200.0, 4.0)), &bound(true, 0.07)),
            Row::Regressed
        );
    }

    #[test]
    fn an_exact_metric_regresses_on_any_increase() {
        let parent = Side::of(&[1000.0]);
        assert_eq!(
            judge(&parent, &Side::of(&[1000.0]), &bound(true, 0.0)),
            Row::Ok
        );
        assert_eq!(
            judge(&parent, &Side::of(&[1001.0]), &bound(true, 0.0)),
            Row::Regressed
        );
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let bounds = read_bounds(include_str!("../../BENCHMARK.json")).expect("parses");
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(setup.lower_is_better && setup.bound <= 0.25);
        assert!(bounds
            .iter()
            .any(|b| b.name == "observe_mpps" && !b.lower_is_better));
    }
}
