//! `compare A B`: checks result set B against result set A with the bounds
//! the benchmark fixed.
//!
//! A result set is a file `run` wrote: one or more runs per workload. Per
//! workload and end-to-end metric, the value of a set is the median over
//! its runs, and its spread is the interquartile range of those runs as a
//! share of that median (with a single run: of the samples inside it).

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;

/// How one metric of one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound, but the spread of a set is wider than the bound,
    /// and B's runs do not all read better than A's: no conclusion.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's readings of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The metric's value in each run of the set.
    pub runs: Vec<f64>,
    /// Interquartile range as a share of the median.
    pub spread: f64,
}

/// Decides one row. All end-to-end metrics are lower-is-better.
pub fn verdict(a: &Side, b: &Side, bound: f64) -> (f64, Verdict) {
    let relative = median(&b.runs) / median(&a.runs) - 1.0;
    let lowest_a = a.runs.iter().copied().fold(f64::INFINITY, f64::min);
    let all_better = b.runs.iter().all(|&v| v < lowest_a);
    let verdict = if relative > bound {
        Verdict::Worse
    } else if a.spread.max(b.spread) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (relative, verdict)
}

/// The runs of `workload` in a result set.
fn runs_of<'a>(set: &'a Json, workload: &str) -> Vec<&'a Json> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .collect()
}

fn side(runs: &[&Json], metric: &str) -> Result<Side, String> {
    let values: Vec<f64> = runs
        .iter()
        .map(|r| {
            r.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run has no value for {metric}"))
        })
        .collect::<Result<_, _>>()?;
    let spread = if values.len() >= 2 {
        spread(&values)
    } else {
        // One run: fall back on the trial samples inside it, if it has any.
        let samples: Vec<f64> = runs[0]
            .get("samples")
            .and_then(|s| s.get(metric))
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        spread(&samples)
    };
    Ok(Side {
        runs: values,
        spread,
    })
}

fn failed_share(runs: &[&Json]) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compares two result sets; returns the printed table and whether B
/// passes (no `worse` row, no larger failed share).
///
/// # Errors
///
/// A message when a set lacks a workload or a metric.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<20} {:<12} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "diff", "bound", "spread"
    );
    let mut pass = true;
    for w in &WORKLOADS {
        let (runs_a, runs_b) = (runs_of(a, w.name), runs_of(b, w.name));
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(format!("workload {} is missing from a result set", w.name));
        }
        for m in &END_TO_END {
            let (side_a, side_b) = (side(&runs_a, m.name)?, side(&runs_b, m.name)?);
            let (relative, verdict) = verdict(&side_a, &side_b, m.bound);
            pass &= verdict != Verdict::Worse;
            table.push_str(&format!(
                "{:<20} {:<12} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}% {:>7.2}%  {}\n",
                w.name,
                m.name,
                median(&side_a.runs),
                median(&side_b.runs),
                100.0 * relative,
                100.0 * m.bound,
                100.0 * side_a.spread.max(side_b.spread),
                verdict.label()
            ));
        }
        let (share_a, share_b) = (failed_share(&runs_a), failed_share(&runs_b));
        if share_b > share_a {
            pass = false;
            table.push_str(&format!(
                "{:<20} failed share rose from {share_a:.4} to {share_b:.4}\n",
                w.name
            ));
        }
    }
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(runs: &[f64]) -> Side {
        Side {
            runs: runs.to_vec(),
            spread: spread(runs),
        }
    }

    #[test]
    fn within_bound_and_steady_is_ok() {
        let a = side_of(&[1.00, 1.01, 0.99, 1.00]);
        let b = side_of(&[1.04, 1.05, 1.03, 1.04]);
        assert_eq!(verdict(&a, &b, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_worse_even_when_noisy() {
        let a = side_of(&[1.0, 1.3, 0.8, 1.0]);
        let b = side_of(&[1.5, 1.6, 1.4, 1.5]);
        assert_eq!(verdict(&a, &b, 0.10).1, Verdict::Worse);
    }

    #[test]
    fn noisy_and_overlapping_is_unresolved_unless_every_run_is_better() {
        let a = side_of(&[1.0, 1.3, 0.8, 1.1]);
        let b = side_of(&[1.0, 1.2, 0.9, 1.1]);
        assert_eq!(verdict(&a, &b, 0.10).1, Verdict::Unresolved);
        let better = side_of(&[0.5, 0.7, 0.4, 0.6]);
        assert_eq!(verdict(&a, &better, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn exact_counts_may_not_move() {
        let a = side_of(&[64.0, 64.0]);
        assert_eq!(verdict(&a, &side_of(&[64.0, 64.0]), 0.0).1, Verdict::Ok);
        assert_eq!(verdict(&a, &side_of(&[65.0, 65.0]), 0.0).1, Verdict::Worse);
    }
}
