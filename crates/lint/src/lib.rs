#![forbid(unsafe_code)]
//! `tane-lint` — a std-only static analyzer for the TANE workspace.
//!
//! The workspace's correctness story rests on invariants no unit test can
//! pin down forever: the determinism contract of DESIGN §9 (results
//! byte-identical across thread counts, hash seeds, and wall-clock), the
//! audited-`unsafe` discipline around the worker pool's lifetime-erasing
//! transmute, and the server's lock and panic hygiene. This crate checks
//! them *statically*, on every tier-1 run.
//!
//! v2 is a two-phase workspace analyzer. Phase one builds a **symbol
//! graph** over the hand-rolled lexer: a per-file item tree (modules,
//! fns, impls, nested closures) plus an approximate call graph with
//! explicit unresolved/ambiguous handling (`parser`, `symbols`,
//! `callgraph`). Phase two runs the rules — per-file token passes where
//! file scope suffices, workspace passes over the graph where the
//! invariant is interprocedural:
//!
//! | rule | scope | invariant |
//! |---|---|---|
//! | `unsafe-audit` | whole workspace | `unsafe` only in allowlisted files, each site `// SAFETY:`-commented |
//! | `determinism` | workspace (clocks: core/partition/relation/util) | no hash-order taint reaching result sinks, no clock reads outside timing modules |
//! | `lock-discipline` | workspace (poison: server, partition) | every guard-held-while-acquiring edge — including through calls — declared via `lint:lock-order`, no unhandled poison |
//! | `lock-graph` | whole workspace | no cycles in the derived lock graph, no stale declarations |
//! | `atomics-audit` | util, core, partition | every `Ordering::*` justified with `// ORDERING:`, no Relaxed loads on result paths |
//! | `error-hygiene` | server | request paths return errors, never panic |
//!
//! Suppression: `// lint:allow(<rule>[, <rule>...]): <why>` on the line
//! above (or the same line as) a violation. The reason is part of the
//! syntax by convention — an allow is a documented exception, not an
//! off-switch. Unknown rule names in an allow are themselves violations,
//! so a typo cannot silently mask nothing. Suppressed hash-iteration
//! sources are dropped *before* taint propagation: a documented allow
//! covers the whole downstream chain.

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Report};
use rules::Ctx;
use symbols::SymbolGraph;

pub const RULE_UNSAFE: &str = "unsafe-audit";
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_LOCK: &str = "lock-discipline";
pub const RULE_LOCK_GRAPH: &str = "lock-graph";
pub const RULE_ATOMICS: &str = "atomics-audit";
pub const RULE_HYGIENE: &str = "error-hygiene";
/// Meta-rule for malformed/unknown suppressions.
pub const RULE_ALLOW: &str = "lint-allow";

pub const ALL_RULES: &[&str] = &[
    RULE_UNSAFE,
    RULE_DETERMINISM,
    RULE_LOCK,
    RULE_LOCK_GRAPH,
    RULE_ATOMICS,
    RULE_HYGIENE,
];

/// A full analysis: the diagnostics plus the symbol graph they were
/// derived from (for `--symbols` dumps and tests).
pub struct Analysis {
    pub report: Report,
    pub graph: SymbolGraph,
}

/// Analyzes a set of `(path, source)` pairs as one workspace. `path` is
/// the repo-relative path (forward slashes) — it selects which rules
/// apply, so callers with out-of-tree content (fixtures) choose scoping
/// by choosing the path.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Analysis {
    let mut input = Vec::new();
    for (path, src) in sources {
        let lexed = lexer::lex(&src);
        let spans = rules::test_spans(&lexed.tokens);
        input.push((path, lexed, spans));
    }
    let mut g = SymbolGraph::build(input);
    callgraph::resolve(&mut g);
    callgraph::direct_summaries(&mut g);
    callgraph::lock_fixpoint(&mut g);

    // Suppressions first: hash-taint sources must be filtered before they
    // propagate, so the maps are computed up front.
    let mut suppressed: BTreeMap<String, BTreeSet<(String, u32)>> = BTreeMap::new();
    let mut allow_diags: Vec<Diagnostic> = Vec::new();
    for fs in &g.files {
        let (pairs, mut ds) = suppressions(&fs.path, &fs.lexed);
        suppressed.entry(fs.path.clone()).or_default().extend(pairs);
        allow_diags.append(&mut ds);
    }
    let is_suppressed = |rule: &str, file: &str, line: u32| {
        suppressed
            .get(file)
            .is_some_and(|s| s.contains(&(rule.to_string(), line)))
    };

    // Per-file passes (immutable borrow of the graph); hash sources are
    // collected here and folded into the graph afterwards.
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut edges: Vec<rules::lock_discipline::DerivedEdge> = Vec::new();
    let mut decls: Vec<rules::lock_discipline::LockDecl> = Vec::new();
    let mut pending_sources: Vec<(usize, rules::determinism::HashSource)> = Vec::new();
    for file in 0..g.files.len() {
        let fsy = &g.files[file];
        let ctx = Ctx {
            path: &fsy.path,
            toks: &fsy.lexed.tokens,
            comments: &fsy.lexed.comments,
            test_spans: fsy.test_spans.clone(),
        };
        diags.extend(rules::unsafe_audit::run(&ctx));
        if rules::determinism::clock_in_scope(&fsy.path) {
            diags.extend(rules::determinism::clock_run(&ctx));
        }
        if rules::error_hygiene::in_scope(&fsy.path) {
            diags.extend(rules::error_hygiene::run(&ctx));
        }
        if rules::atomics::in_scope(&fsy.path) {
            diags.extend(rules::atomics::ordering_comments(&ctx, &g, file));
        }
        let (mut es, mut poison) = rules::lock_discipline::scan(&ctx, &g, file);
        edges.append(&mut es);
        diags.append(&mut poison);
        let (mut ds, mut malformed) =
            rules::lock_discipline::declarations(&fsy.path, &fsy.lexed.comments);
        decls.append(&mut ds);
        diags.append(&mut malformed);
        for s in rules::determinism::sources(&ctx) {
            if is_suppressed(RULE_DETERMINISM, &fsy.path, s.line) {
                continue;
            }
            if let Some(f) = g.enclosing(file, s.tok) {
                pending_sources.push((f, s));
            }
        }
    }
    for (f, s) in pending_sources {
        g.fns[f].hash_sources.push((s.line, s.name, s.how));
    }

    // Workspace passes over the graph.
    diags.extend(rules::lock_graph::run(&edges, &decls));

    // Hash-order taint: sources reach sinks through resolved return edges
    // unless the call site canonicalizes the returned data.
    let reach_hash = callgraph::reachable_from_sinks(&g, |caller, c| {
        let toks = &g.files[g.fns[caller].file].lexed.tokens;
        !rules::determinism::canonicalized_downstream(toks, c.tok)
    });
    for (id, f) in g.fns.iter().enumerate() {
        if f.hash_sources.is_empty() {
            continue;
        }
        let Some(path) = &reach_hash[id] else {
            continue;
        };
        let sink = g.fns[path[0]]
            .sinks
            .first()
            .map(|(s, _)| s.clone())
            .unwrap_or_else(|| "result".to_string());
        let chain = callgraph::chain_label(&g, path);
        for (line, name, how) in &f.hash_sources {
            diags.push(Diagnostic::new(
                RULE_DETERMINISM,
                &g.files[f.file].path,
                *line,
                format!(
                    "iteration (`{how}`) over hash-keyed `{name}` leaks arbitrary \
                     order into `{sink}` (call path: {chain}); sort the output / \
                     use a BTreeMap, or justify with \
                     `// lint:allow(determinism): <why>`"
                ),
            ));
        }
    }

    // Relaxed-load taint: canonicalization does not help a stale counter,
    // so every resolved return edge propagates.
    let reach_all = callgraph::reachable_from_sinks(&g, |_, _| true);
    diags.extend(rules::atomics::relaxed_taint(&g, &reach_all));

    diags.retain(|d| !is_suppressed(d.rule, &d.file, d.line));
    diags.append(&mut allow_diags);

    let mut report = Report {
        diagnostics: diags,
        files_scanned: g.files.len(),
    };
    report.finish();
    Analysis { report, graph: g }
}

/// Lints one file's source in isolation (no cross-file edges — fixture
/// and unit-test entry point).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_sources(vec![(path.to_string(), src.to_string())])
        .report
        .diagnostics
}

/// Parses `lint:allow(...)` comments. A suppression covers every line of
/// the contiguous comment run containing the directive (so the reason may
/// wrap onto continuation lines) plus the line after it — both trailing
/// and preceding placement work. Returns (suppressed (rule, line) pairs,
/// diagnostics for unknown rule names).
fn suppressions(path: &str, lexed: &lexer::Lexed) -> (Vec<(String, u32)>, Vec<Diagnostic>) {
    let mut pairs = Vec::new();
    let mut diags = Vec::new();
    for (ci, c) in lexed.comments.iter().enumerate() {
        // Directive position is anchored: the comment must *start* with
        // `lint:allow(` (after the comment sigils). Mid-sentence mentions
        // — e.g. docs describing the syntax — are not directives.
        let body = c
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_ascii_start();
        if !body.starts_with("lint:allow(") {
            continue;
        }
        let rest = &body["lint:allow(".len()..];
        let Some(end) = rest.find(')') else {
            diags.push(Diagnostic::new(
                RULE_ALLOW,
                path,
                c.start_line,
                "malformed `lint:allow(...)`: missing closing parenthesis",
            ));
            continue;
        };
        for rule in rest[..end].split(',') {
            let rule = rule.trim();
            if !ALL_RULES.contains(&rule) {
                diags.push(Diagnostic::new(
                    RULE_ALLOW,
                    path,
                    c.start_line,
                    format!(
                        "unknown rule `{rule}` in lint:allow (known: {})",
                        ALL_RULES.join(", ")
                    ),
                ));
                continue;
            }
            let mut cover_end = c.end_line;
            for next in &lexed.comments[ci + 1..] {
                if next.start_line == cover_end + 1 {
                    cover_end = next.end_line;
                } else {
                    break;
                }
            }
            for line in c.start_line..=cover_end + 1 {
                pairs.push((rule.to_string(), line));
            }
        }
    }
    (pairs, diags)
}

/// All workspace `.rs` files to lint, repo-root-relative, sorted. Skips
/// build output and the linter's own violation fixtures.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || rel.contains("tests/fixtures") {
                continue;
            }
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Forward slashes for stable diagnostics across platforms.
    rel.to_string_lossy().replace('\\', "/")
}

/// Analyzes the whole workspace under `root`, returning the report and
/// the symbol graph.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    analyze_paths(root, &workspace_files(root)?)
}

/// Lints the whole workspace under `root`.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    Ok(analyze_workspace(root)?.report)
}

/// Analyzes an explicit path list (files or directories, root-relative or
/// absolute) as one workspace.
pub fn analyze_explicit(root: &Path, paths: &[String]) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for p in paths {
        let full = if Path::new(p).is_absolute() {
            PathBuf::from(p)
        } else {
            root.join(p)
        };
        if full.is_dir() {
            walk(&full, root, &mut files)?;
        } else {
            files.push(rel_path(root, &full));
        }
    }
    files.sort();
    files.dedup();
    analyze_paths(root, &files)
}

/// Lints an explicit path list.
pub fn run_explicit(root: &Path, paths: &[String]) -> io::Result<Report> {
    Ok(analyze_explicit(root, paths)?.report)
}

fn analyze_paths(root: &Path, files: &[String]) -> io::Result<Analysis> {
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        sources.push((rel.clone(), fs::read_to_string(root.join(rel))?));
    }
    Ok(analyze_sources(sources))
}

/// Walks upward from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
