//! `d3t-lint` — the workspace's determinism & safety static-analysis
//! pass. It gates CI (`./ci.sh`) on every change.
//!
//! # Why a bespoke linter
//!
//! Every PR in this repo stakes correctness on **bit-identical replay**
//! against the sealed scalar oracle. The invariants that make that hold
//! — integer-µs timebase, seeded RNGs only, strictly-increasing queue
//! stamps, `SAFETY`-justified `unsafe` — used to live in module docs and
//! reviewer memory. One stray `HashMap` iteration or wall-clock read in
//! a hot path breaks determinism in ways property tests only catch
//! probabilistically. This crate turns those invariants into
//! machine-checked lints. It has **no dependencies** (the build
//! environment has no crates.io), so it ships its own token-level Rust
//! lexer ([`lexer`]) and runs the rule pack ([`rules`]) over it.
//!
//! # Diagnostic codes
//!
//! Codes are stable; CI artifacts and suppressions refer to them.
//!
//! * **D-series — determinism.**
//!   * `D001` no `std::collections::HashMap`/`HashSet` in the
//!     deterministic crates' library code (`crates/{core,sim,net,traces}`
//!     plus the root facade): unordered iteration breaks replay. Use
//!     `BTreeMap`/`BTreeSet` or a sorted `Vec`.
//!   * `D002` no `std::time::Instant`/`SystemTime` or `rdtsc` anywhere
//!     outside the telemetry/bench allowlist: simulation time is virtual
//!     integer µs.
//!   * `D003` no `thread::spawn`/`std::thread`/`std::sync` primitives
//!     (`Mutex`, `RwLock`, `Condvar`, `Atomic*`, …): threading goes
//!     through the sweep runner over the vendored rayon shim, whose
//!     ordered joins keep results byte-identical to serial.
//!   * `D004` no `thread_rng`/`OsRng`/`from_entropy`/`getrandom`: every
//!     RNG is seeded from the run's seed tree so runs replay.
//! * **U-series — unsafe audit.** `U001` every `unsafe` must be
//!   immediately preceded (≤ 3 lines, attributes may intervene) by a
//!   `// SAFETY:` comment.
//! * **P-series — panic hygiene.** `P001` no `.unwrap()`/`.expect()`/
//!   `panic!` in the deterministic crates' non-test library code; tests,
//!   benches, examples, and bin targets are exempt.
//! * **F-series — float discipline.** `F001` no
//!   `partial_cmp(..).unwrap()` ordering on floats in deterministic
//!   library code; use `f64::total_cmp` or the documented total-order
//!   helpers.
//! * **S-series — sharding discipline.** Scoped to the sharded engine's
//!   library files (`d3t-sim` lib files named `*shard*`), whose
//!   bit-identity with the scalar oracle rests on two structural
//!   invariants: `S001` event-queue pushes happen only inside the
//!   `route_*` exchange functions (everything else stages cross-shard
//!   sends through the epoch outboxes, so stamps are assigned at the
//!   barrier merge); `S002` no shared-mutable state (`static mut`,
//!   `RefCell`/`Cell`/`UnsafeCell`, `Rc`) — shard state lives in
//!   `Mutex`-guarded `ShardState` and is exchanged only at barriers.
//! * **L-series — lint hygiene (framework-owned).** `L001` malformed
//!   suppression pragma (unparsable, unknown code, or missing reason);
//!   `L002` allowlist entry that no longer suppresses anything.
//!
//! # Suppressions
//!
//! Two mechanisms, both requiring a written reason:
//!
//! * **Per-line pragma** — suppresses the named codes on the pragma's
//!   own line, or on the next line when the pragma comment stands alone:
//!
//!   ```text
//!   let v = self.heap.pop().expect("peeked"); // d3t-lint: allow(P001) -- pop follows a successful peek
//!   ```
//!
//! * **Checked-in allowlist** (`crates/lint/allowlist.txt`) for
//!   crate/file-scoped exemptions. One entry per line:
//!
//!   ```text
//!   D002 examples/whatif.rs -- demo prints prefix/capture/branch wall times
//!   ```
//!
//!   A trailing `/` makes the path a directory prefix. Entries that stop
//!   matching anything fire `L002` so the list cannot rot.
//!
//! # Scope
//!
//! `--workspace` scans every `*.rs` under the repo except `vendor/`
//! (offline shims, exempt by design — the rayon shim *is* the sanctioned
//! threading site), `target/`, and `fixtures/` directories (the lint
//! test corpus contains deliberate violations). Files under `tests/`,
//! `benches/`, `examples/`, and `src/bin/` are classified as
//! test/bench/example/bin code; `#[cfg(test)]` modules and `#[test]`
//! functions inside library files are recognized token-exactly.

pub mod lexer;
pub mod rules;

use lexer::{Tok, TokKind};
use std::path::{Path, PathBuf};

/// Which workspace crate a file belongs to (by path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Krate {
    Core,
    Sim,
    Net,
    Traces,
    Experiments,
    Bench,
    Lint,
    /// The root `d3t` facade crate (`src/`, `tests/`, `examples/`).
    Root,
    /// Anything else (e.g. a scratch fixture passed explicitly) —
    /// conservatively treated as deterministic library code.
    Unknown,
}

/// Target class of a file (by path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    Lib,
    Test,
    Bench,
    Example,
    Bin,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// `file:line:col: CODE message` — the human/CI render.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: {} {}", self.file, self.line, self.col, self.code, self.message)
    }
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'s> {
    pub rel: &'s str,
    pub krate: Krate,
    pub class: FileClass,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok<'s>>,
    /// Comment tokens, in source order.
    pub comments: Vec<Tok<'s>>,
    /// Inclusive line ranges covered by `#[cfg(test)]` mods / `#[test]`
    /// fns.
    test_regions: Vec<(u32, u32)>,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> (Krate, FileClass) {
    let krate = match rel.strip_prefix("crates/") {
        Some(rest) => match rest.split('/').next() {
            Some("core") => Krate::Core,
            Some("sim") => Krate::Sim,
            Some("net") => Krate::Net,
            Some("traces") => Krate::Traces,
            Some("experiments") => Krate::Experiments,
            Some("bench") => Krate::Bench,
            Some("lint") => Krate::Lint,
            _ => Krate::Unknown,
        },
        None => {
            if rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("examples/")
            {
                Krate::Root
            } else {
                Krate::Unknown
            }
        }
    };
    let mut class = FileClass::Lib;
    for seg in rel.split('/') {
        match seg {
            "tests" => class = FileClass::Test,
            "benches" => class = FileClass::Bench,
            "examples" => class = FileClass::Example,
            "bin" => class = FileClass::Bin,
            _ => {}
        }
    }
    (krate, class)
}

impl<'s> FileCtx<'s> {
    /// Lexes `src` and computes the classification + test regions.
    pub fn new(rel: &'s str, src: &'s str) -> Self {
        let toks = lexer::lex(src);
        let mut code = Vec::with_capacity(toks.len());
        let mut comments = Vec::new();
        for t in toks {
            if t.kind == TokKind::Comment {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let test_regions = find_test_regions(&code);
        let (krate, class) = classify(rel);
        FileCtx { rel, krate, class, code, comments, test_regions }
    }

    /// True when `line` falls inside a `#[cfg(test)]` mod or `#[test]`
    /// fn.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Scope shared by the crate-scoped rules (D001/P001/F001):
    /// library code of the deterministic crates. `Unknown` is included
    /// on purpose — a scratch file handed to the CLI gets the strict
    /// treatment.
    pub fn det_lib_scope(&self) -> bool {
        self.class == FileClass::Lib
            && matches!(
                self.krate,
                Krate::Core
                    | Krate::Sim
                    | Krate::Net
                    | Krate::Traces
                    | Krate::Root
                    | Krate::Unknown
            )
    }

    /// Builds a diagnostic anchored at `t`.
    pub fn diag(&self, code: &'static str, t: &Tok, message: String) -> Diagnostic {
        Diagnostic { code, file: self.rel.to_string(), line: t.line, col: t.col, message }
    }
}

/// Finds `#[cfg(test)] mod … { }` / `#[test] fn … { }` line ranges by
/// token scan: an attribute whose content mentions `test` (and not
/// `not(test)`) arms the detector; the next `fn`/`mod`/`impl` item's
/// braced body becomes a test region. Items ending in `;` (e.g.
/// `#[cfg(test)] use …;`) disarm it.
fn find_test_regions(code: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let attr_open = code[i].kind == TokKind::Punct
            && code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Punct && t.text == "[");
        if !attr_open {
            i += 1;
            continue;
        }
        // Scan the attribute content to its matching `]`.
        let attr_line = code[i].line;
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        while j < code.len() {
            let t = &code[j];
            if t.kind == TokKind::Punct && t.text == "[" {
                depth += 1;
            } else if t.kind == TokKind::Punct && t.text == "]" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                has_test |= t.text == "test";
                has_not |= t.text == "not";
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j + 1;
            continue;
        }
        // Armed: skip further attributes and visibility/qualifier
        // tokens, then require an item keyword with a braced body.
        let mut k = j + 1;
        loop {
            if code.get(k).is_some_and(|t| t.kind == TokKind::Punct && t.text == "#")
                && code.get(k + 1).is_some_and(|t| t.kind == TokKind::Punct && t.text == "[")
            {
                let mut d = 0usize;
                let mut m = k + 1;
                while m < code.len() {
                    match code[m].text {
                        "[" if code[m].kind == TokKind::Punct => d += 1,
                        "]" if code[m].kind == TokKind::Punct => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m + 1;
                continue;
            }
            match code.get(k) {
                Some(t)
                    if t.kind == TokKind::Ident
                        && matches!(
                            t.text,
                            "pub" | "crate" | "async" | "const" | "unsafe" | "extern"
                        ) =>
                {
                    k += 1;
                }
                Some(t) if t.kind == TokKind::Punct && matches!(t.text, "(" | ")") => {
                    // `pub(crate)` parens.
                    k += 1;
                }
                Some(t) if t.kind == TokKind::Ident && matches!(t.text, "fn" | "mod" | "impl") => {
                    // Find the body `{` (or `;` → no body).
                    let mut m = k + 1;
                    while m < code.len() {
                        let u = &code[m];
                        if u.kind == TokKind::Punct && (u.text == "{" || u.text == ";") {
                            break;
                        }
                        m += 1;
                    }
                    if m < code.len() && code[m].text == "{" {
                        // Match the brace.
                        let mut d = 0usize;
                        let mut e = m;
                        while e < code.len() {
                            let u = &code[e];
                            if u.kind == TokKind::Punct && u.text == "{" {
                                d += 1;
                            } else if u.kind == TokKind::Punct && u.text == "}" {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            e += 1;
                        }
                        let end_line = code.get(e).map_or(u32::MAX, |u| u.line);
                        regions.push((attr_line, end_line));
                        i = e;
                    } else {
                        i = m;
                    }
                    break;
                }
                _ => break,
            }
        }
        i += 1;
    }
    regions
}

/// One parsed `// d3t-lint: allow(CODE[,CODE]) -- reason` pragma.
struct Pragma {
    line: u32,
    col: u32,
    codes: Vec<String>,
    /// Line whose diagnostics this pragma suppresses.
    target_line: u32,
    /// `Err(why)` for malformed pragmas → L001.
    parsed: Result<(), &'static str>,
}

const PRAGMA_HEAD: &str = "d3t-lint:";

/// Extracts pragmas from a file's comments. A pragma standing alone on
/// its line applies to the next line; otherwise to its own.
fn parse_pragmas(ctx: &FileCtx) -> Vec<Pragma> {
    let code_lines: std::collections::BTreeSet<u32> = ctx.code.iter().map(|t| t.line).collect();
    let known: Vec<&str> = all_codes();
    let mut out = Vec::new();
    for c in &ctx.comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim()
            .trim_end_matches("*/")
            .trim();
        let Some(rest) = body.strip_prefix(PRAGMA_HEAD) else { continue };
        let rest = rest.trim();
        let target_line = if code_lines.contains(&c.line) { c.line } else { c.line + 1 };
        let mut pragma =
            Pragma { line: c.line, col: c.col, codes: Vec::new(), target_line, parsed: Ok(()) };
        let parsed = (|| {
            let inner =
                rest.strip_prefix("allow(").ok_or("expected `allow(CODE[, CODE…]) -- reason`")?;
            let close = inner.find(')').ok_or("unclosed `allow(`")?;
            let (codes_str, tail) = inner.split_at(close);
            for code in codes_str.split(',') {
                let code = code.trim();
                if !known.contains(&code) {
                    return Err("unknown diagnostic code");
                }
                pragma.codes.push(code.to_string());
            }
            if pragma.codes.is_empty() {
                return Err("empty code list");
            }
            let tail = tail[1..].trim(); // past `)`
            let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
            if reason.is_empty() {
                return Err("missing `-- reason` (every suppression carries a written reason)");
            }
            Ok(())
        })();
        pragma.parsed = parsed;
        out.push(pragma);
    }
    out
}

/// One checked-in allowlist entry: `CODE path[/] -- reason`.
pub struct AllowEntry {
    pub line: u32,
    pub code: String,
    pub path: String,
    pub reason: String,
    pub used: bool,
}

/// Parses the allowlist file. Malformed lines are hard errors — the
/// allowlist is config, not source, so it must always be exact.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let known: Vec<&str> = all_codes();
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("allowlist line {}: {what}: `{raw}`", idx + 1);
        let (head, reason) = line.split_once(" -- ").ok_or_else(|| err("missing ` -- reason`"))?;
        let reason = reason.trim();
        if reason.is_empty() {
            return Err(err("empty reason"));
        }
        let mut parts = head.split_whitespace();
        let code = parts.next().ok_or_else(|| err("missing code"))?;
        let path = parts.next().ok_or_else(|| err("missing path"))?;
        if parts.next().is_some() {
            return Err(err("expected `CODE path -- reason`"));
        }
        if !known.contains(&code) {
            return Err(err("unknown diagnostic code"));
        }
        out.push(AllowEntry {
            line: (idx + 1) as u32,
            code: code.to_string(),
            path: path.to_string(),
            reason: reason.to_string(),
            used: false,
        });
    }
    Ok(out)
}

impl AllowEntry {
    /// Whether this entry covers `(code, file)`. A path ending in `/`
    /// is a directory prefix; otherwise it must match exactly.
    fn covers(&self, code: &str, file: &str) -> bool {
        self.code == code
            && if self.path.ends_with('/') {
                file.starts_with(self.path.as_str())
            } else {
                file == self.path
            }
    }
}

/// Every diagnostic code the tool can emit (rule pack + framework
/// L-series), in render order.
pub fn all_codes() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = rules::RULE_PACK.iter().map(|r| r.code).collect();
    v.push("L001");
    v.push("L002");
    v
}

/// A finished lint run.
pub struct Report {
    pub files: usize,
    pub diagnostics: Vec<Diagnostic>,
}

/// What to lint and with which allowlist.
pub struct Options {
    /// Workspace root; `rel` paths in diagnostics are relative to it.
    pub root: PathBuf,
    /// Explicit files to lint; `None` scans the whole workspace.
    pub files: Option<Vec<PathBuf>>,
    /// Allowlist file; `None` disables the allowlist.
    pub allowlist: Option<PathBuf>,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "fixtures", "node_modules"];

/// Collects the workspace's `*.rs` files, sorted for deterministic
/// output.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let rd = std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in rd {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints one file's source under a pretend workspace-relative path.
/// Pragmas are honored; the allowlist is not consulted. The entry point
/// for fixture tests.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_ctx(&FileCtx::new(rel, src), &mut [])
}

/// Runs the rule pack + pragma machinery over one file. Returns the
/// diagnostics no pragma or allowlist entry suppressed.
fn lint_ctx(ctx: &FileCtx, allowlist: &mut [AllowEntry]) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for rule in rules::RULE_PACK {
        (rule.check)(ctx, &mut raw);
    }
    let pragmas = parse_pragmas(ctx);
    for p in &pragmas {
        if let Err(why) = p.parsed {
            raw.push(Diagnostic {
                code: "L001",
                file: ctx.rel.to_string(),
                line: p.line,
                col: p.col,
                message: format!("malformed d3t-lint pragma: {why}"),
            });
        }
    }
    let mut kept = Vec::new();
    'diags: for d in raw {
        if d.code != "L001" {
            for p in &pragmas {
                if p.parsed.is_ok()
                    && p.target_line == d.line
                    && p.codes.iter().any(|c| c == d.code)
                {
                    continue 'diags;
                }
            }
            for e in allowlist.iter_mut() {
                if e.covers(d.code, &d.file) {
                    e.used = true;
                    continue 'diags;
                }
            }
        }
        kept.push(d);
    }
    kept
}

/// Runs the full lint pass per `opts`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut allowlist = match &opts.allowlist {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("allowlist {}: {e}", p.display()))?;
            parse_allowlist(&text)?
        }
        None => Vec::new(),
    };
    let files = match &opts.files {
        Some(fs) => fs.clone(),
        None => workspace_files(&opts.root)?,
    };

    let mut diagnostics = Vec::new();
    for path in &files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel_buf =
            path.strip_prefix(&opts.root).map(|p| p.to_path_buf()).unwrap_or_else(|_| path.clone());
        let rel = rel_buf.to_string_lossy().replace('\\', "/");
        let ctx = FileCtx::new(&rel, &src);
        diagnostics.extend(lint_ctx(&ctx, &mut allowlist));
    }

    // Allowlist hygiene: entries that matched nothing are violations —
    // the list must describe the tree as it is.
    let allowlist_rel = opts
        .allowlist
        .as_ref()
        .map(|p| {
            p.strip_prefix(&opts.root)
                .map(|q| q.to_string_lossy().replace('\\', "/"))
                .unwrap_or_else(|_| p.to_string_lossy().to_string())
        })
        .unwrap_or_default();
    for e in &allowlist {
        if !e.used {
            diagnostics.push(Diagnostic {
                code: "L002",
                file: allowlist_rel.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "allowlist entry `{} {}` no longer suppresses anything; remove it",
                    e.code, e.path
                ),
            });
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.code).cmp(&(b.file.as_str(), b.line, b.col, b.code))
    });
    Ok(Report { files: files.len(), diagnostics })
}
