//! `d3t-bench` — the benchmark harness `BENCHMARK.json` names.
//!
//! ```text
//! d3t-bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//! d3t-bench set --rounds N --out <dir> [--seed N] [--seconds S] [--scale full|tiny]
//! d3t-bench compare <set-a> <set-b>
//! d3t-bench golden [--write]
//! d3t-bench manifest
//! ```
//!
//! `run` executes one workload in this process and prints two JSON
//! lines: the full result (what `set` stores and `compare` reads), then
//! — last — the object the benchmark contract asks for. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! span recorded; `--trace 1` is the separate traced run that rebuilds
//! the same inputs stage by stage from the layers' public functions,
//! prints the per-layer metrics and writes `results/trace-<workload>.json`.
//! Exit code 1 means an output check failed.

mod harness;
mod layers;
mod set;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use d3t_experiments::Scale;
use d3t_perfbench::json::Json;
use d3t_perfbench::spec::{self, DEFAULT_SEED, RUN_SECONDS};

use harness::{Outcome, Span, Tracer};

/// The harness's own directory, for `golden.json` and `results/`.
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Expected outputs at the default seed, compiled in so a run needs no
/// file lookup; `golden --write` regenerates the file.
const GOLDEN: &str = include_str!("../../../golden.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresQuick,
    Drive600r,
    Build2500r,
    Whatif600r,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::FiguresQuick, Workload::Drive600r, Workload::Build2500r, Workload::Whatif600r];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `run` invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; every workload also has a minimum number of
    /// samples it takes regardless.
    pub seconds: f64,
    pub trace: bool,
    /// 20 repos / 10 items / 400 ticks for every workload — the smoke
    /// test's scale.
    pub tiny: bool,
    pub check_golden: bool,
}

impl Opts {
    /// The workload's inputs. The seed is the only thing `--seed`
    /// changes; every config is `scale().base_config()` (7 network
    /// nodes per repository, the paper's fabric ratio).
    pub fn scale(&self) -> Scale {
        let (n_repos, n_items, n_ticks) = match self.workload {
            _ if self.tiny => (20, 10, 400),
            Workload::FiguresQuick => (100, 100, 2_500),
            Workload::Drive600r => (600, 100, 10_000),
            Workload::Build2500r => (2_500, 100, 1_000),
            Workload::Whatif600r => (600, 100, 2_500),
        };
        Scale {
            n_repos,
            n_items,
            n_ticks,
            n_network_nodes: 7 * n_repos,
            seed: self.seed,
            ..Scale::paper()
        }
    }
}

/// Runs one workload in this process; returns what it measured and,
/// for a traced run, its spans.
pub fn run(opts: &Opts) -> (Outcome, Vec<Span>) {
    let mut tracer = Tracer::new(opts.trace);
    let mut outcome =
        if opts.trace { layers::run(opts, &mut tracer) } else { workloads::run(opts, &mut tracer) };
    if opts.check_golden && !opts.tiny && opts.seed == DEFAULT_SEED {
        match Json::parse(GOLDEN) {
            Ok(golden) => outcome.outputs.check_golden(golden.get(opts.workload.name())),
            Err(e) => outcome.outputs.check(false, || format!("golden.json: {e}")),
        }
    }
    (outcome, tracer.spans)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: d3t-bench run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale full|tiny]\n       d3t-bench set --rounds N --out <dir> [--seed N] [--seconds S] \
         [--scale full|tiny]\n       d3t-bench compare <set-a> <set-b>\n       \
         d3t-bench golden [--write]\n       d3t-bench manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the subcommand; `None` on anything else.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Some((flag.as_str(), value.as_str())),
            _ => None,
        })
        .collect()
}

/// Options shared by `run` and `set`; `None` on an unknown flag or a
/// malformed value.
fn parse_opts(flags: &[(&str, &str)]) -> Option<Opts> {
    let mut opts = Opts {
        workload: Workload::FiguresQuick,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        tiny: false,
        check_golden: true,
    };
    for &(flag, value) in flags {
        match flag {
            "--workload" => opts.workload = Workload::from_name(value)?,
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--scale" => {
                opts.tiny = match value {
                    "full" => false,
                    "tiny" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    match cmd.as_str() {
        "run" => {
            let Some(flags) = flags(rest) else { return usage() };
            if !flags.iter().any(|&(f, _)| f == "--workload") {
                return usage();
            }
            let Some(opts) = parse_opts(&flags) else { return usage() };
            let (outcome, spans) = run(&opts);
            if opts.trace {
                let scale = if opts.tiny { "-tiny" } else { "" };
                let path = Path::new(BENCH_DIR)
                    .join("results")
                    .join(format!("trace-{}{scale}.json", opts.workload.name()));
                if let Err(e) = set::write_file(&path, &outcome.trace_file(&opts, &spans).pretty())
                {
                    eprintln!("d3t-bench: {e}");
                    return ExitCode::from(2);
                }
            }
            for failure in &outcome.outputs.failures {
                eprintln!("d3t-bench: FAILED {failure}");
            }
            println!("{}", outcome.result(&opts).compact());
            println!("{}", outcome.contract_line().compact());
            ExitCode::from(u8::from(outcome.outputs.failed > 0))
        }
        "set" => {
            let Some(flags) = flags(rest) else { return usage() };
            let (own, shared): (Vec<_>, Vec<_>) =
                flags.into_iter().partition(|&(f, _)| matches!(f, "--rounds" | "--out"));
            let find = |name: &str| own.iter().find(|&&(f, _)| f == name).map(|&(_, v)| v);
            let (Some(rounds), Some(out)) =
                (find("--rounds").and_then(|v| v.parse::<usize>().ok()), find("--out"))
            else {
                return usage();
            };
            let Some(opts) = parse_opts(&shared) else { return usage() };
            report(set::run_set(&opts, rounds, &PathBuf::from(out)))
        }
        "compare" => match rest {
            [a, b] => report(set::compare_sets(Path::new(a), Path::new(b))),
            _ => usage(),
        },
        "golden" => match rest {
            [] => report(set::golden(false)),
            [flag] if flag == "--write" => report(set::golden(true)),
            _ => usage(),
        },
        "manifest" => {
            print!("{}", spec::manifest().pretty());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Exit code of a subcommand: 0 clean, 1 a check or comparison failed,
/// 2 the harness itself could not do its job.
fn report(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("d3t-bench: {e}");
            ExitCode::from(2)
        }
    }
}
