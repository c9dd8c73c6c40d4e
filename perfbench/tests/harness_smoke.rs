//! Runs the real `d3t-bench` binary on every workload, untraced and
//! traced, at `--scale tiny` (20 repos / 10 items / 400 ticks), and
//! checks the output contract end to end: metric names and units, the
//! span tree, the accounting gates, and that everything the harness
//! writes reads back through its own JSON reader.

use std::path::{Path, PathBuf};
use std::process::Command;

use d3t_perfbench::compare::{load_set, Run};
use d3t_perfbench::json::Json;
use d3t_perfbench::spec::{self, END_TO_END, FIGURE_IDS, PER_LAYER, WORKLOADS};

fn bench(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_d3t-bench")).args(args).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    (stdout, out.status.success())
}

/// One tiny run; returns `(result object, contract object)`.
fn tiny_run(workload: &str, trace: &str) -> (Json, Json) {
    let (stdout, ok) = bench(&[
        "run",
        "--workload",
        workload,
        "--scale",
        "tiny",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--seed",
        "42",
    ]);
    assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "exactly a result line and the contract line");
    for line in &lines {
        // Round trip: the reader accepts what the writer wrote, and
        // writing it again gives the same bytes.
        assert_eq!(Json::parse(line).unwrap().compact(), *line);
    }
    (Json::parse(lines[0]).unwrap(), Json::parse(lines[1]).unwrap())
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect()
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
}

/// The contract line holds exactly the four keys, whole-number counts
/// and exactly the named metrics with their units.
fn check_contract(contract: &Json, want: &[(&str, &str)]) {
    assert_eq!(keys(contract), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(contract.get("correct"), Some(&Json::Bool(true)));
    assert!(contract.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(contract.get("failed").and_then(Json::as_i64), Some(0));
    let metrics = contract.get("metrics").unwrap();
    let mut got = keys(metrics);
    let mut names: Vec<&str> = want.iter().map(|&(n, _)| n).collect();
    got.sort_unstable();
    names.sort_unstable();
    assert_eq!(got, names);
    for &(name, unit) in want {
        let m = metrics.get(name).unwrap();
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert!(value(metrics, name).is_finite(), "{name} is not a finite number");
    }
}

/// Every parent span contains its children, ids are positions, and
/// parents precede children.
fn check_spans(trace_file: &Path) -> Vec<String> {
    let doc = Json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty());
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_i64).unwrap();
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(keys(s), ["id", "parent", "name", "start_ns", "end_ns"]);
        assert_eq!(field(s, "id"), i as i64);
        assert!(field(s, "start_ns") <= field(s, "end_ns"));
        if let Some(parent) = s.get("parent").and_then(Json::as_i64) {
            assert!(parent < i as i64, "span {i} precedes its parent");
            let p = &spans[parent as usize];
            assert!(
                field(p, "start_ns") <= field(s, "start_ns")
                    && field(s, "end_ns") <= field(p, "end_ns"),
                "span {i} leaks out of its parent {parent}"
            );
        }
    }
    spans.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
}

fn check_workload(workload: &str, extras: &[&str]) {
    let (result, contract) = tiny_run(workload, "0");
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    check_contract(&contract, &e2e);
    for &(name, _) in &e2e {
        assert!(value(contract.get("metrics").unwrap(), name) > 0.0, "{name} must never be 0");
    }
    let untraced = Run::from_json(&result).unwrap();
    assert!(!untraced.traced && untraced.workload == workload && untraced.seed == 42);

    let (result, contract) = tiny_run(workload, "1");
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    check_contract(&contract, &layers);
    let traced = Run::from_json(&result).unwrap();
    assert!(traced.traced);
    assert_eq!(traced.sim_digest, untraced.sim_digest, "both modes simulate the same outputs");

    let m = contract.get("metrics").unwrap();
    let ratio = value(m, "prepared.stage_sum_ratio");
    assert!((0.90..=1.15).contains(&ratio), "stage_sum_ratio {ratio}");
    let phases: f64 = ["queue", "process", "fidelity", "transmit"]
        .map(|p| value(m, &format!("session.{p}_s")))
        .iter()
        .sum();
    let drive = value(m, "session.drive_s");
    assert!((phases - drive).abs() <= 0.05 * drive, "phases {phases} vs drive {drive}");
    assert!(value(m, "sim.events") > 0.0 && value(m, "net.apsp_rows") == 21.0);

    let extra = result.get("extra").unwrap();
    for name in extras {
        assert!(value(extra, name).is_finite(), "extra metric {name}");
    }
    let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace-{workload}-tiny.json"));
    let names = check_spans(&trace_file);
    for stage in ["traces.generate", "net.apsp", "core.lela", "prepared.build", "session.drive"] {
        assert!(names.iter().any(|n| n == stage), "no `{stage}` span");
    }
    std::fs::remove_file(trace_file).unwrap();
}

/// One test, so the runs happen one at a time: the traced run gates on
/// a sub-millisecond stage split at this scale, which concurrent child
/// processes on a 2-core host would turn into noise.
#[test]
fn every_workload_reports_every_metric_and_a_set_compares_clean() {
    let mut experiments: Vec<String> =
        FIGURE_IDS.iter().map(|id| format!("experiments.{id}_s")).collect();
    for name in ["serial_sum_s", "sweep_s", "threads", "parallel_efficiency"] {
        experiments.push(format!("experiments.{name}"));
    }
    check_workload("figures-quick", &experiments.iter().map(String::as_str).collect::<Vec<_>>());
    check_workload("drive-600r", &[]);
    check_workload("build-2500r", &["shard.drive_s_2", "shard.speedup_x_2", "shard.digest_equal"]);
    check_workload(
        "whatif-600r",
        &[
            "snapshot.capture_s",
            "snapshot.restore_s",
            "snapshot.bytes",
            "snapshot.pending_events",
            "snapshot.amortization_x",
            "fault.cold_drive_s",
            "fault.warm_drive_s",
            "fault.overhead_x",
            "fault.lost",
            "fault.retransmits",
            "fault.reparented",
            "fault.dropped",
        ],
    );

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-set");
    let out = dir.to_str().unwrap();
    let (_, ok) =
        bench(&["set", "--rounds", "2", "--out", out, "--scale", "tiny", "--seconds", "0"]);
    assert!(ok);
    let runs = load_set(&dir).unwrap();
    // Two untraced rounds and one traced run of each workload.
    assert_eq!(runs.len(), 3 * WORKLOADS.len());
    assert_eq!(runs.iter().filter(|r| r.traced).count(), WORKLOADS.len());
    let (table, ok) = bench(&["compare", out, out]);
    assert!(ok, "{table}");
    assert!(table.contains("regressed=0"), "{table}");
    assert_eq!(table.lines().count(), 2 + WORKLOADS.len() * (END_TO_END.len() + 2), "{table}");
}

#[test]
fn malformed_command_lines_exit_2_and_print_no_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "no-such"],
        &["run", "--workload", "drive-600r", "--trace", "2"],
        &["run", "--workload", "drive-600r", "--seed"],
        &["compare", "only-one"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_d3t-bench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// `BENCHMARK.json` is generated, not hand-edited.
#[test]
fn root_manifest_is_the_generated_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert_eq!(on_disk, spec::manifest().pretty(), "regenerate with `d3t-bench manifest`");
    let (printed, ok) = bench(&["manifest"]);
    assert!(ok && printed == on_disk);
}
