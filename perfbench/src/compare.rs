//! `d3t-bench compare <set-a> <set-b>`: one row per (workload,
//! end-to-end metric), judged by the benchmark's own bounds.
//!
//! A *set* is what `d3t-bench set` writes: a directory whose
//! `runs.json` holds the result object of every child run.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// What `compare` needs from one stored run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub traced: bool,
    pub seed: i64,
    pub sim_digest: String,
    pub attempted: i64,
    pub failed: i64,
    /// `(name, value)` of every reported metric.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Reads a result object as `d3t-bench run` prints it.
    pub fn from_json(doc: &Json) -> Result<Run, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("result lacks `{key}`"));
        let text = |key: &str| {
            field(key)?.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` not a string"))
        };
        let whole =
            |key: &str| field(key)?.as_i64().ok_or_else(|| format!("`{key}` not a whole number"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.as_obj().ok_or("`metrics` not an object")? {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            metrics.push((name.clone(), value));
        }
        Ok(Run {
            workload: text("workload")?,
            traced: field("trace")?.as_bool().ok_or("`trace` not a bool")?,
            seed: whole("seed")?,
            sim_digest: text("sim_digest")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

/// Loads `<dir>/runs.json`.
pub fn load_set(dir: &Path) -> Result<Vec<Run>, String> {
    let path = dir.join("runs.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("runs.json lacks a `runs` array")?;
    runs.iter().map(Run::from_json).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The sets' own run-to-run spread exceeds the bound, so the
    /// difference cannot be judged either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `values` of `metric` over the untraced runs of `workload`.
fn samples(set: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// Judges set `b` against set `a` on one metric. Returns the verdict
/// and how much worse `b`'s median is, as a share of `a`'s (negative =
/// better).
pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noisy = spread(a) > spec.bound || spread(b) > spec.bound;
    let verdict = if noisy {
        // Too noisy to call unchanged — unless every run of `b` reads
        // better than every run of `a`.
        let b_always_better = match spec.better {
            Better::Lower => b.iter().all(|&y| a.iter().all(|&x| y < x)),
            Better::Higher => b.iter().all(|&y| a.iter().all(|&x| y > x)),
        };
        if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// The rendered comparison and its overall outcome.
pub struct Report {
    pub text: String,
    pub regressed: usize,
    pub unresolved: usize,
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[-, -]".to_string(),
    }
}

/// Compares two sets row by row. `failed_ops` must be 0 in `b` and
/// `sim_digest` must be one value across both sets (per workload and
/// seed) — a speed-only change leaves every simulated bit alone.
pub fn compare<'a>(a: &'a [Run], b: &'a [Run]) -> Report {
    let mut text = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    let _ = writeln!(
        text,
        "{:<14} {:<19} {:>12} {:<22} {:>12} {:<22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median-a",
        "quartiles-a",
        "median-b",
        "quartiles-b",
        "worse-by",
        "bound"
    );
    for w in &WORKLOADS {
        for spec in &END_TO_END {
            let (va, vb) = (samples(a, w.name, spec.name), samples(b, w.name, spec.name));
            let (verdict, worse_by) = judge(spec, &va, &vb);
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let _ = writeln!(
                text,
                "{:<14} {:<19} {:>12.4} {:<22} {:>12.4} {:<22} {:>+7.1}% {:>5.0}%  {} (n={}/{})",
                w.name,
                spec.name,
                median(&va).unwrap_or(f64::NAN),
                quartile_text(&va),
                median(&vb).unwrap_or(f64::NAN),
                quartile_text(&vb),
                worse_by * 100.0,
                spec.bound * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len(),
            );
        }
        let of = |set: &'a [Run]| set.iter().filter(|r| r.workload == w.name);
        let failed: i64 = of(b).map(|r| r.failed).sum();
        let attempted: i64 = of(b).map(|r| r.attempted).sum();
        let verdict = if failed == 0 { Verdict::Ok } else { Verdict::Regressed };
        let _ = writeln!(
            text,
            "{:<14} {:<19} {failed} of {attempted} ops failed in b  {}",
            w.name,
            "failed_ops",
            verdict.as_str()
        );
        regressed += usize::from(verdict == Verdict::Regressed);

        let mut digests: Vec<(i64, &str)> =
            of(a).chain(of(b)).map(|r| (r.seed, r.sim_digest.as_str())).collect();
        digests.sort_unstable();
        digests.dedup();
        let mut seeds: Vec<i64> = digests.iter().map(|&(s, _)| s).collect();
        seeds.dedup();
        let same = digests.len() == seeds.len();
        let _ = writeln!(
            text,
            "{:<14} {:<19} {}  {}",
            w.name,
            "sim_digest",
            digests.iter().map(|&(_, d)| d).collect::<Vec<_>>().join(" "),
            if same { "equal" } else { "CHANGED (regressed)" }
        );
        regressed += usize::from(!same);
    }
    let _ = writeln!(text, "regressed={regressed} unresolved={unresolved}");
    Report { text, regressed, unresolved }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better) -> EndToEnd {
        EndToEnd { name: "m", unit: "s", better, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let lower = spec(Better::Lower);
        assert_eq!(judge(&lower, &a, &a).0, Verdict::Ok);
        let (v, by) = judge(&lower, &a, &slower);
        assert_eq!(v, Verdict::Regressed);
        assert!((by - 0.20).abs() < 1e-9);
        // Faster is fine, and direction flips for higher-is-better.
        assert_eq!(judge(&lower, &slower, &a).0, Verdict::Ok);
        assert_eq!(judge(&spec(Better::Higher), &slower, &a).0, Verdict::Regressed);
        // A set noisier than the bound cannot be called unchanged...
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(judge(&lower, &a, &noisy).0, Verdict::Unresolved);
        // ...unless every run of b beats every run of a.
        let noisy_but_faster = [0.5, 0.6, 0.4, 0.7, 0.45];
        assert_eq!(judge(&lower, &a, &noisy_but_faster).0, Verdict::Ok);
        assert_eq!(judge(&lower, &a, &[]).0, Verdict::Unresolved);
    }

    fn run(workload: &str, wall: f64, digest: &str, failed: i64) -> Run {
        Run {
            workload: workload.to_string(),
            traced: false,
            seed: 1,
            sim_digest: digest.to_string(),
            attempted: 4,
            failed,
            metrics: END_TO_END.iter().map(|m| (m.name.to_string(), wall)).collect(),
        }
    }

    #[test]
    fn compare_flags_digest_changes_and_failed_ops() {
        let set = |digest: &str, failed: i64| -> Vec<Run> {
            WORKLOADS
                .iter()
                .flat_map(|w| [run(w.name, 1.0, digest, failed), run(w.name, 1.01, digest, failed)])
                .collect()
        };
        let clean = compare(&set("0xaa", 0), &set("0xaa", 0));
        assert_eq!((clean.regressed, clean.unresolved), (0, 0), "{}", clean.text);
        assert!(clean.text.contains("regressed=0 unresolved=0"));
        // One row per workload for the digest, one for failed ops.
        assert_eq!(compare(&set("0xaa", 0), &set("0xbb", 0)).regressed, WORKLOADS.len());
        assert_eq!(compare(&set("0xaa", 0), &set("0xaa", 1)).regressed, WORKLOADS.len());
    }

    #[test]
    fn result_objects_parse_and_reject_missing_fields() {
        let doc = Json::parse(
            r#"{"workload": "drive-600r", "trace": false, "seed": 24301, "sim_digest": "0x01",
                "attempted": 9, "failed": 0,
                "metrics": {"wall_s": {"value": 2.5, "unit": "s", "n": 3}}}"#,
        )
        .unwrap();
        let r = Run::from_json(&doc).unwrap();
        assert_eq!(r.metrics, vec![("wall_s".to_string(), 2.5)]);
        assert_eq!((r.seed, r.attempted), (24301, 9));
        assert!(Run::from_json(&Json::parse(r#"{"workload": "x"}"#).unwrap()).is_err());
    }
}
