//! The determinism & safety rule pack.
//!
//! Each rule is a pure function over one file's token stream plus the
//! file's classification (crate, lib/test/bench/bin/example, in-file
//! test regions). Rules never read other files — cross-file policy
//! (allowlists, suppression) lives in the framework. New series (e.g.
//! the sharding PR's S-series) extend [`RULE_PACK`] without touching
//! the framework.
//!
//! | Code | Invariant protected |
//! |------|---------------------|
//! | D001 | No `HashMap`/`HashSet` in det-crates' lib code — unordered iteration breaks bit-identical replay; use `BTreeMap`/`BTreeSet`/sorted `Vec`. |
//! | D002 | No `Instant`/`SystemTime`/`rdtsc` — simulation time is virtual integer µs; wall-clock reads belong to the telemetry/bench allowlist. |
//! | D003 | No `thread::spawn`/`std::sync` primitives — threading goes through the sweep runner and the vendored rayon shim only. |
//! | D004 | No `thread_rng`/`OsRng`/entropy sources — every RNG is seeded (`seed_from_u64`) so runs replay. |
//! | U001 | Every `unsafe` is immediately preceded by a `// SAFETY:` comment justifying it. |
//! | P001 | No `unwrap()`/`expect()`/`panic!` in det-crates' non-test lib code — return errors, or document the invariant in an allow pragma. |
//! | F001 | No `partial_cmp(..).unwrap()/expect()` sort keys — float ordering goes through `f64::total_cmp` or the documented total-order helpers. |
//! | S001 | In shard code, event-queue pushes happen only inside the `route_*` exchange functions — cross-shard sends stage through epoch outboxes. |
//! | S002 | No shared-mutable state (`static mut`, `RefCell`/`Cell`/`UnsafeCell`/`Rc`) in shard code — shards exchange only at the barrier, through their `Mutex`es. |

use crate::lexer::{Tok, TokKind};
use crate::{Diagnostic, FileClass, FileCtx, Krate};

/// One lint rule: stable code, one-line summary (docs), and the
/// per-file check.
pub struct Rule {
    pub code: &'static str,
    pub summary: &'static str,
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// The full rule pack, in diagnostic-code order.
pub static RULE_PACK: &[Rule] = &[
    Rule {
        code: "D001",
        summary: "unordered std::collections::HashMap/HashSet in deterministic library code",
        check: d001_hash_collections,
    },
    Rule {
        code: "D002",
        summary:
            "wall-clock (Instant/SystemTime) or TSC read outside the telemetry/bench allowlist",
        check: d002_wall_clock,
    },
    Rule {
        code: "D003",
        summary: "thread::spawn / std::sync primitive outside the sweep runner and rayon shim",
        check: d003_threading,
    },
    Rule {
        code: "D004",
        summary: "entropy-seeded RNG (thread_rng/OsRng/from_entropy); seeded RNGs only",
        check: d004_entropy,
    },
    Rule {
        code: "U001",
        summary: "unsafe without an immediately preceding `// SAFETY:` comment",
        check: u001_safety_comment,
    },
    Rule {
        code: "P001",
        summary: "unwrap()/expect()/panic! in deterministic non-test library code",
        check: p001_panic_hygiene,
    },
    Rule {
        code: "F001",
        summary: "float ordering via partial_cmp(..).unwrap(); use total_cmp / total-order helpers",
        check: f001_float_order,
    },
    Rule {
        code: "S001",
        summary: "shard-code queue push outside the route_* exchange functions",
        check: s001_shard_queue_sends,
    },
    Rule {
        code: "S002",
        summary: "shared-mutable state (static mut / interior mutability / Rc) in shard code",
        check: s002_shard_shared_mutable,
    },
];

/// `code[i] == text` as a punctuation byte.
fn punct(code: &[Tok], i: usize, text: &str) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// `code[i] == text` as an identifier.
fn ident(code: &[Tok], i: usize, text: &str) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// `code[i..]` starts with `a :: b`.
fn path2(code: &[Tok], i: usize, a: &str, b: &str) -> bool {
    ident(code, i, a) && punct(code, i + 1, ":") && punct(code, i + 2, ":") && ident(code, i + 3, b)
}

fn d001_hash_collections(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.det_lib_scope() {
        return;
    }
    for t in &ctx.code {
        if t.kind == TokKind::Ident
            && matches!(t.text, "HashMap" | "HashSet")
            && !ctx.in_test(t.line)
        {
            out.push(ctx.diag(
                "D001",
                t,
                format!(
                    "std {} iterates in unspecified order, which breaks bit-identical replay; \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            ));
        }
    }
}

fn d002_wall_clock(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in &ctx.code {
        if t.kind == TokKind::Ident && matches!(t.text, "Instant" | "SystemTime" | "_rdtsc") {
            out.push(ctx.diag(
                "D002",
                t,
                format!(
                    "`{}` reads the wall clock/TSC; simulation time is virtual integer µs — \
                     timing belongs in the telemetry/bench allowlist",
                    t.text
                ),
            ));
        }
    }
}

fn d003_threading(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let code = &ctx.code[..];
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = if path2(code, i, "thread", "spawn") {
            Some("thread::spawn")
        } else if path2(code, i, "std", "sync") {
            Some("std::sync")
        } else if path2(code, i, "std", "thread") {
            Some("std::thread")
        } else if matches!(t.text, "Mutex" | "RwLock" | "Condvar" | "Barrier" | "OnceLock")
            || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len())
        {
            Some(t.text)
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.diag(
                "D003",
                t,
                format!(
                    "`{what}` introduces scheduling nondeterminism; parallelism goes through \
                     the sweep runner / vendored rayon shim (deterministic ordered joins) only"
                ),
            ));
        }
    }
}

fn d004_entropy(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in &ctx.code {
        if t.kind == TokKind::Ident
            && matches!(t.text, "thread_rng" | "OsRng" | "from_entropy" | "getrandom")
        {
            out.push(ctx.diag(
                "D004",
                t,
                format!(
                    "`{}` draws OS entropy, so runs cannot replay; construct RNGs with \
                     seed_from_u64 from the run's seed tree",
                    t.text
                ),
            ));
        }
    }
}

/// How many lines above an `unsafe` token the `// SAFETY:` comment may
/// sit (attributes like `#[cfg(target_arch = …)]` may intervene).
const SAFETY_WINDOW_LINES: u32 = 3;

fn u001_safety_comment(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in &ctx.code {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let justified = ctx.comments.iter().any(|c| {
            c.line <= t.line && t.line - c.line <= SAFETY_WINDOW_LINES && c.text.contains("SAFETY:")
        });
        if !justified {
            out.push(ctx.diag(
                "U001",
                t,
                "`unsafe` without an immediately preceding `// SAFETY:` comment; state why the \
                 invariants hold"
                    .to_string(),
            ));
        }
    }
}

fn p001_panic_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.det_lib_scope() {
        return;
    }
    let code = &ctx.code[..];
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let call = matches!(t.text, "unwrap" | "expect")
            && i > 0
            && punct(code, i - 1, ".")
            && punct(code, i + 1, "(");
        let mac = t.text == "panic" && punct(code, i + 1, "!");
        if call || mac {
            out.push(ctx.diag(
                "P001",
                t,
                format!(
                    "`{}` in deterministic library code; return an error, or keep it and \
                     document the invariant via `// d3t-lint: allow(P001) -- reason`",
                    if mac { "panic!" } else { t.text }
                ),
            ));
        }
    }
}

fn f001_float_order(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.det_lib_scope() {
        return;
    }
    let code = &ctx.code[..];
    for i in 0..code.len() {
        if !ident(code, i, "partial_cmp") || !punct(code, i + 1, "(") || ctx.in_test(code[i].line) {
            continue;
        }
        // Skip the balanced argument list, then look for `.unwrap(` /
        // `.expect(`.
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < code.len() {
            if punct(code, j, "(") {
                depth += 1;
            } else if punct(code, j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let chained = punct(code, j + 1, ".")
            && (ident(code, j + 2, "unwrap") || ident(code, j + 2, "expect"))
            && punct(code, j + 3, "(");
        if chained {
            out.push(
                ctx.diag(
                    "F001",
                    &code[i],
                    "partial_cmp(..).unwrap()/expect() panics or mis-sorts on NaN; use \
                 f64::total_cmp or the documented total-order helpers (e.g. Coherency's Ord)"
                        .to_string(),
                ),
            );
        }
    }
}

/// Scope of the S-series: sharded-engine library files (any `d3t-sim`
/// lib file whose name mentions `shard`). The invariants they protect —
/// the epoch-inbox send discipline and barrier-only state exchange —
/// are what make the parallel drive bit-identical to the scalar oracle.
fn shard_file_scope(ctx: &FileCtx) -> bool {
    ctx.krate == Krate::Sim
        && ctx.class == FileClass::Lib
        && ctx.rel.rsplit('/').next().is_some_and(|name| name.contains("shard"))
}

/// Line regions of `fn route_*` bodies — the sanctioned exchange-side
/// queue-push sites. Mirrors the brace-matching of the test-region
/// scanner, keyed on the function name instead of an attribute.
fn route_fn_regions(code: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let named_route = ident(code, i, "fn")
            && code
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("route_"));
        if !named_route {
            i += 1;
            continue;
        }
        // Skip the signature to the body `{` (or `;` for a trait decl),
        // then match the braces.
        let mut j = i + 2;
        while j < code.len() && !punct(code, j, "{") && !punct(code, j, ";") {
            j += 1;
        }
        if j >= code.len() || punct(code, j, ";") {
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        let mut e = j;
        while e < code.len() {
            if punct(code, e, "{") {
                depth += 1;
            } else if punct(code, e, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            e += 1;
        }
        let end_line = code.get(e).map_or(u32::MAX, |t| t.line);
        regions.push((code[i].line, end_line));
        i = e + 1;
    }
    regions
}

/// How many tokens before a `.push(` the receiver chain is inspected
/// for a queue-named ident (`self . queue . push` needs 4).
const S001_RECEIVER_WINDOW: usize = 6;

fn s001_shard_queue_sends(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !shard_file_scope(ctx) {
        return;
    }
    let routes = route_fn_regions(&ctx.code);
    let code = &ctx.code[..];
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident
            || !matches!(t.text, "push" | "push_batch")
            || i == 0
            || !punct(code, i - 1, ".")
            || !punct(code, i + 1, "(")
            || ctx.in_test(t.line)
        {
            continue;
        }
        let on_queue = code[i.saturating_sub(S001_RECEIVER_WINDOW)..i]
            .iter()
            .any(|u| u.kind == TokKind::Ident && u.text.starts_with("queue"));
        if !on_queue || routes.iter().any(|&(a, b)| (a..=b).contains(&t.line)) {
            continue;
        }
        out.push(
            ctx.diag(
                "S001",
                t,
                "direct shard-queue push outside the route_* exchange functions; cross-shard \
             sends stage into the epoch outbox and land at the barrier, where the merge \
             re-stamps them under the push contract"
                    .to_string(),
            ),
        );
    }
}

fn s002_shard_shared_mutable(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !shard_file_scope(ctx) {
        return;
    }
    let code = &ctx.code[..];
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let hit = if t.text == "static" && ident(code, i + 1, "mut") {
            Some("static mut")
        } else if matches!(t.text, "RefCell" | "Cell" | "UnsafeCell" | "Rc") {
            Some(t.text)
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.diag(
                "S002",
                t,
                format!(
                    "`{what}` lets shard state mutate outside the exchange barrier; all \
                     cross-shard state lives in the Mutex-guarded ShardState and moves only \
                     at the barrier, or the determinism argument collapses"
                ),
            ));
        }
    }
}
