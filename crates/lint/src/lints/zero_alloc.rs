//! L3 — zero-alloc regions: the static twin of
//! `rt-bench/tests/zero_alloc.rs`.
//!
//! The hot decision loops (the simulator's driver, the execution driver,
//! the probe hooks) are required to make **zero allocations per
//! decision** — the counting-allocator test pins this dynamically by
//! asserting the allocation count is horizon-independent. That test
//! catches a regression hours later; this lint catches the obvious causes
//! seconds later: a fn marked `// rt-lint: zero-alloc` may not contain the
//! allocating constructs below anywhere in its body (closures included).
//! Amortized-growth `push`es into pre-reserved scratch buffers are still
//! legal — that is precisely the boundary the dynamic test owns.

use crate::context::FileCtx;
use crate::diag::{Finding, Lint};
use crate::lexer::TokenKind;

/// A discovered region: `(fn name, marker line, body line range)`.
#[derive(Debug, Clone)]
pub struct Region {
    pub fn_name: String,
    pub marker_line: u32,
    pub first_line: u32,
    pub last_line: u32,
}

/// Method calls that allocate.
const FORBIDDEN_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "clone",
    "into_boxed_slice",
    "join",
    "repeat",
];

/// `Type::fn` paths that allocate.
const FORBIDDEN_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("VecDeque", "new"),
    ("BinaryHeap", "new"),
];

/// Allocating macros.
const FORBIDDEN_MACROS: &[&str] = &["vec", "format"];

/// Scans the file's marked regions; returns discovered regions for the
/// coverage cross-check.
pub fn run(ctx: &FileCtx, out: &mut Vec<Finding>) -> Vec<Region> {
    let markers = &ctx.directives.zero_alloc_markers;
    if markers.is_empty() {
        return Vec::new();
    }
    let fns = ctx.fn_spans();
    let toks = &ctx.lexed.tokens;
    let mut regions = Vec::new();
    let mut found: Vec<Finding> = Vec::new();

    for &marker_line in markers {
        // The marked fn is the first `fn` token at or after the marker.
        let Some(f) = fns
            .iter()
            .find(|f| toks[f.fn_tok].line >= marker_line)
            .copied()
        else {
            ctx.push(
                &mut found,
                Lint::Suppression,
                marker_line,
                1,
                "zero-alloc marker is not followed by a fn item".to_string(),
            );
            continue;
        };
        let Some((body_open, body_close)) = f.body else {
            ctx.push(
                &mut found,
                Lint::Suppression,
                marker_line,
                1,
                "zero-alloc marker on a bodyless fn declaration".to_string(),
            );
            continue;
        };
        let fn_name = toks[f.name_tok].text.clone();
        regions.push(Region {
            fn_name: fn_name.clone(),
            marker_line,
            first_line: toks[f.fn_tok].line,
            last_line: toks[body_close.min(toks.len() - 1)].line,
        });
        scan_body(ctx, &fn_name, body_open, body_close, &mut found);
    }

    // Overlapping regions (a marked fn nested inside a marked fn) would
    // report the same site once per enclosing region; dedupe by position.
    found.sort_by_key(|a| (a.line, a.col, a.lint));
    found.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.lint == b.lint);
    out.extend(found);
    regions
}

fn scan_body(ctx: &FileCtx, fn_name: &str, open: usize, close: usize, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let flag = |i: usize, what: &str, out: &mut Vec<Finding>| {
        ctx.push(
            out,
            Lint::ZeroAlloc,
            toks[i].line,
            toks[i].col,
            format!(
                "`{what}` allocates inside the zero-alloc region `{fn_name}` — hoist it \
                 to setup/finalisation or reuse a scratch buffer (the dynamic twin is \
                 rt-bench/tests/zero_alloc.rs)"
            ),
        );
    };

    let end = close.min(toks.len().saturating_sub(1));
    for i in open..=end {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());

        // Allocating macros: `vec![..]`, `format!(..)`.
        if FORBIDDEN_MACROS.contains(&name) && next == Some("!") {
            flag(i, &format!("{name}!"), out);
            continue;
        }
        // Allocating method calls: `.to_string()`, `.collect::<..>()`.
        if prev == Some(".")
            && FORBIDDEN_METHODS.contains(&name)
            && (next == Some("(") || next == Some("::"))
        {
            flag(i, &format!(".{name}()"), out);
            continue;
        }
        // Allocating constructors: `Vec::new()`, `Box::new(..)`.
        if next == Some("::") {
            if let Some(fn_tok) = toks.get(i + 2) {
                if FORBIDDEN_PATHS
                    .iter()
                    .any(|(ty, f)| *ty == name && *f == fn_tok.text)
                {
                    flag(i, &format!("{name}::{}", fn_tok.text), out);
                }
            }
        }
    }
}
