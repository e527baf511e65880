//! `apnn-benchmark agree <a.json>... --vs <b.json>...`: do two sets of
//! result files tell the same story? Per workload and end-to-end metric it
//! prints each set's median and quartiles, the gap between the medians as
//! a share of set A's, the metric's bound, and a verdict:
//!
//! * `ok` — the medians differ by less than the bound;
//! * `unresolved` — either set's own quartile spread is wider than the
//!   bound, so a gap that size cannot be told from noise (unless every run
//!   of one set beats every run of the other, which is a real difference);
//! * `disagree` — the gap exceeds the bound. Any `disagree` exits non-zero.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

struct ResultFile {
    path: String,
    workload: String,
    fingerprint: Value,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("{path}: no `{k}` field"));
    if field("smoke")?.as_bool() != Some(false) {
        return Err(format!("{path}: a smoke run is not a measurement"));
    }
    if field("trace")?.as_bool() != Some(false) {
        return Err(format!(
            "{path}: end-to-end numbers come from untraced runs"
        ));
    }
    if field("valid").ok().and_then(Value::as_bool) == Some(false) {
        return Err(format!("{path}: the run was reported invalid"));
    }
    let metrics = field("result")?
        .get("metrics")
        .ok_or_else(|| format!("{path}: no metrics"))?
        .fields()
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ResultFile {
        path: path.to_string(),
        workload: field("workload")?
            .as_str()
            .ok_or_else(|| format!("{path}: workload is not a string"))?
            .to_string(),
        fingerprint: field("fingerprint")?.clone(),
        metrics,
    })
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Unresolved,
    Disagree,
}

/// Compare one metric's samples from two sets (each at least two runs).
/// Symmetric: either set reading worse than the other is a disagreement.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let gap = (mb - ma).abs() / ma;
    let spread = |s: &[f64], m: f64| {
        let (q1, q3) = quartiles(s);
        (q3 - q1) / m
    };
    let noisy = spread(a, ma) > bound || spread(b, mb) > bound;
    let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = max(a) < min(b) || max(b) < min(a);
    let verdict = if gap <= bound {
        if noisy {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    } else if noisy && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Disagree
    };
    (gap, verdict)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--vs")
        .ok_or("usage: agree <a.json>... --vs <b.json>...")?;
    let load_set = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (set_a, set_b) = (load_set(&args[..split])?, load_set(&args[split + 1..])?);
    let all: Vec<&ResultFile> = set_a.iter().chain(&set_b).collect();
    let first = all.first().ok_or("no result files given")?;
    if let Some(other) = all.iter().find(|f| f.fingerprint != first.fingerprint) {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  {}: {}\n  {}: {}",
            first.path, first.fingerprint, other.path, other.fingerprint
        ));
    }

    println!(
        "{:<20}{:<16}{:>34}{:>34}{:>8}{:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "gap", "bound"
    );
    let mut agreed = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let samples = |set: &[ResultFile]| -> Vec<f64> {
                set.iter()
                    .filter(|f| f.workload == w.name)
                    .filter_map(|f| f.metrics.get(m.name).copied())
                    .collect()
            };
            let (a, b) = (samples(&set_a), samples(&set_b));
            if a.is_empty() && b.is_empty() {
                continue;
            }
            if a.len() < 2 || b.len() < 2 {
                return Err(format!(
                    "{} / {}: each set needs at least two runs (A has {}, B has {})",
                    w.name,
                    m.name,
                    a.len(),
                    b.len()
                ));
            }
            let (gap, verdict) = judge(&a, &b, m.bound);
            let show = |s: &[f64]| {
                let (q1, q3) = quartiles(s);
                format!("{:.4} [{:.4}, {:.4}]", median(s), q1, q3)
            };
            println!(
                "{:<20}{:<16}{:>34}{:>34}{:>7.2}%{:>6.0}%  {}",
                w.name,
                m.name,
                show(&a),
                show(&b),
                gap * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Disagree => "disagree",
                }
            );
            agreed &= verdict != Verdict::Disagree;
        }
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_gap_spread_and_separation() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let tight_b = [102.0, 103.0, 101.0, 102.5, 101.5];
        let (gap, v) = judge(&tight_a, &tight_b, 0.07);
        assert!((gap - 0.02).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);

        // 20 % apart, tight sets: a real difference either way round.
        let far = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&tight_a, &far, 0.07).1, Verdict::Disagree);
        assert_eq!(judge(&far, &tight_a, 0.07).1, Verdict::Disagree);

        // Same medians but a spread wider than the bound: cannot resolve.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &tight_a, 0.07).1, Verdict::Unresolved);

        // Noisy and overlapping with a large gap: still unresolved...
        let noisy_high = [95.0, 130.0, 150.0, 110.0, 140.0];
        assert_eq!(judge(&noisy, &noisy_high, 0.07).1, Verdict::Unresolved);
        // ...but noisy and fully separated is a disagreement.
        let noisy_far = [200.0, 260.0, 230.0, 215.0, 245.0];
        assert_eq!(judge(&noisy, &noisy_far, 0.07).1, Verdict::Disagree);
    }
}
