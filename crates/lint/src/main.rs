//! `d3t-lint` CLI — see the library docs for codes and suppression
//! syntax.
//!
//! ```text
//! d3t-lint --workspace [--root DIR]
//! d3t-lint [--root DIR] [--allowlist FILE] FILE...
//! d3t-lint --list-rules
//! ```
//!
//! Exit status: 0 clean, 1 violations found, 2 usage/IO error. Every
//! diagnostic is one stdout line; the last line is always the
//! machine-readable trailer `ci.sh` checks:
//!
//! ```text
//! LINT files=<n> rules=<n> violations=<n>
//! ```

use d3t_lint::{all_codes, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("d3t-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut allowlist: Option<PathBuf> = None;
    let mut no_allowlist = false;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--no-allowlist" => no_allowlist = true,
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--allowlist" => {
                allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a value")?))
            }
            "--list-rules" => {
                for code in all_codes() {
                    println!("{code}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!(
                    "usage: d3t-lint --workspace [--root DIR]\n       \
                     d3t-lint [--root DIR] [--allowlist FILE] FILE...\n       \
                     d3t-lint --list-rules"
                );
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => files.push(PathBuf::from(path)),
        }
    }
    if workspace != files.is_empty() {
        return Err("pass exactly one of --workspace or explicit FILEs".to_string());
    }

    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    // Workspace runs use the checked-in allowlist unless told otherwise;
    // explicit-file runs (fixtures, scratch checks) default to none.
    let allowlist = if no_allowlist {
        None
    } else {
        allowlist.or_else(|| {
            let default = root.join("crates/lint/allowlist.txt");
            (workspace && default.is_file()).then_some(default)
        })
    };

    let opts = Options { root, files: (!workspace).then_some(files), allowlist };
    let report = run(&opts)?;
    for d in &report.diagnostics {
        println!("{}", d.render());
    }
    let violations = report.diagnostics.len();
    println!("LINT files={} rules={} violations={}", report.files, all_codes().len(), violations);
    Ok(if violations == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory; \
                        pass --root"
                .to_string());
        }
    }
}
