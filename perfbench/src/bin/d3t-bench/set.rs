//! `set`, `compare` and `golden`: whole sets of runs, kept in files.

use std::path::Path;
use std::process::Command;

use d3t_perfbench::compare::{compare, load_set};
use d3t_perfbench::json::{obj, Json};
use d3t_perfbench::spec::DEFAULT_SEED;

use crate::{Opts, Workload, BENCH_DIR};

/// Writes `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One `d3t-bench run` in a fresh child process (fresh heap, fresh
/// VmHWM); returns its result object and whether every check passed.
fn child_run(opts: &Opts) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--scale", if opts.tiny { "tiny" } else { "full" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The result object is the line before the contract line.
    let line =
        stdout.lines().rev().nth(1).ok_or_else(|| {
            format!("{} printed no result ({})", opts.workload.name(), out.status)
        })?;
    Ok((Json::parse(line)?, out.status.success()))
}

/// `set --rounds N --out <dir>`: the four workloads round-robin, one
/// child at a time, then one traced run of each. Round-robin because
/// this host's noise is time-correlated: a workload's samples spread
/// over the whole set see more of it than back-to-back repeats would.
pub fn run_set(opts: &Opts, rounds: usize, out: &Path) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut clean = true;
    for (round, trace) in std::iter::repeat_n(false, rounds).chain([true]).enumerate() {
        for workload in Workload::ALL {
            let (result, ok) = child_run(&Opts { workload, trace, ..opts.clone() })?;
            eprintln!(
                "round {round} {:<14} trace={} {}",
                workload.name(),
                u8::from(trace),
                result.get("metrics").map_or(String::new(), Json::compact)
            );
            clean &= ok;
            runs.push(result);
        }
    }
    write_file(&out.join("runs.json"), &obj([("runs", Json::Arr(runs))]).pretty())?;
    Ok(clean)
}

pub fn compare_sets(a: &Path, b: &Path) -> Result<bool, String> {
    let report = compare(&load_set(a)?, &load_set(b)?);
    print!("{}", report.text);
    Ok(report.regressed == 0)
}

/// `golden`: re-derives every workload's outputs at the default seed
/// (minimum sample counts) and checks them against `golden.json`, or
/// with `--write` replaces the file. The next build compiles the new
/// file in.
pub fn golden(write: bool) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let opts = Opts {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            tiny: false,
            check_golden: !write,
        };
        let (outcome, _) = crate::run(&opts);
        for failure in &outcome.outputs.failures {
            eprintln!("d3t-bench: FAILED {}: {failure}", workload.name());
        }
        clean &= outcome.outputs.failed == 0;
        let entry = outcome.outputs.golden_entry();
        eprintln!(
            "{:<14} {}",
            workload.name(),
            entry.get("sim_digest").map_or("-".into(), Json::compact)
        );
        entries.push((workload.name(), entry));
    }
    if write {
        write_file(&Path::new(BENCH_DIR).join("golden.json"), &obj(entries).pretty())?;
    }
    Ok(clean)
}
