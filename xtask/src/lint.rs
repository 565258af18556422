//! Custom static checks over `crates/*/src`.
//!
//! Ten rules guard the invariants the type system cannot express. They
//! run over a real token-level AST ([`crate::analyzer::FileModel`]):
//! each file is lexed once, test/loop masks are derived from actual
//! `#[cfg(test)]` attributes and loop expressions with matched
//! delimiters, and every rule matches token structure — not line
//! regexes. See `DESIGN.md` §13 for the architecture.
//!
//! * **L1 — typed time**: no `.as_secs()` escape from `SimTime` outside
//!   `crates/des/src/time.rs` and the allowlisted metrics boundary. Raw
//!   f64-seconds arithmetic is how unit bugs and catastrophic cancellation
//!   sneak into a DES; all clock math must stay behind the newtype.
//! * **L2 — determinism**: no `std::time::Instant`, `SystemTime` or
//!   `thread_rng` in the deterministic crates (`des`, `sim`, `core`,
//!   `sched`, `faults`, `obs`, `serve`). The simulator must be a pure
//!   function of (config, placement, workload, seed); wall-clock reads
//!   or OS entropy silently break replayability.
//! * **L3 — iteration order**: no iteration over `HashMap`/`HashSet` in
//!   simulation-order-sensitive code. Unordered iteration reorders
//!   tie-broken events between runs and platforms; use `Vec`, `BTreeMap`
//!   or sort before iterating.
//! * **L4 — no panic shortcuts**: no `.unwrap()`/`.expect(...)` in
//!   non-test code of the `des`/`sim`/`sched`/`faults`/`obs`/`serve`
//!   hot paths.
//! * **L5 — no dropped results**: no `let _ = f(...)` in non-test code
//!   of the hot paths — a discarded call result is almost always a
//!   swallowed `Result` or an audit-relevant value.
//! * **L6 — no hot-loop state copies**: no `.state().clone()` and no
//!   `.entries().to_vec()` inside loop bodies in non-test hot-path code.
//! * **L7 — float-reduction determinism**: no non-associative `f64`
//!   reduction (`.sum()`, `.product()`, `fold(.. + ..)`) over an
//!   iterator that is not provably order-stable (parallel iterators,
//!   `HashMap`/`HashSet` sources) in the deterministic crates. `f64`
//!   addition does not associate; an order-unstable reduction makes the
//!   golden fingerprints platform-dependent.
//! * **L8 — unit safety**: no public `fn` in `model`/`core`/`des`/
//!   `sim`/`sched` taking or returning a raw `f64`/`u64` whose name
//!   says seconds/bytes/position — those must cross APIs as `SimTime`
//!   or the `model::units` newtypes. The conversion boundaries
//!   (`des::time`, `model::units`) are exempt by construction.
//! * **L9 — TraceEvent exhaustiveness**: no wildcard `_` arm in a
//!   `match` over `TraceEvent` inside `des::audit` and `obs::spans`, so
//!   adding an event variant is a compile-visible obligation on the
//!   auditor and the time accountant.
//! * **L10 — panic reachability**: no `panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` and no direct slice indexing in any function
//!   reachable (over the intra-workspace call graph, matched by name —
//!   a deliberate over-approximation) from the engine entry points
//!   (`run_scheduled*`, the serve crate's `serve_run` and
//!   `supervisor_run`, the parallel gears' `run_windowed` and
//!   `run_partitioned`, the sim crate's `plan_with` seek-policy
//!   dispatcher — the exact-DP and approx planners must be panic-free on
//!   any input — and `Workload::try_new`, which validates every workload
//!   file).
//!
//! Findings can be suppressed via `xtask/lint.allow`: one
//! `RULE path-substring` pair per line, `#` comments allowed. An
//! allowlist entry that suppresses **zero** findings is itself reported
//! (rule `ALLOW`): stale suppressions hide future regressions. Each rule
//! has a negative self-test below that seeds a violation into a temp
//! tree and asserts the lint fires, and a differential test proves the
//! AST-derived masks are a superset-or-equal of the old brace-counting
//! masks over the live workspace.

use crate::analyzer::{arm_is_wildcard, FileModel};
use crate::ast::Tok;
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`L1`..`L10`, or `ALLOW` for a stale suppression).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
    /// Extra context (e.g. the L10 reachability chain); empty if none.
    pub note: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}:{}: {}",
            self.rule, self.file, self.line, self.column, self.excerpt
        )?;
        if !self.note.is_empty() {
            write!(f, "  [{}]", self.note)?;
        }
        Ok(())
    }
}

/// One `RULE path-substring` suppression.
#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path: String,
    /// 1-based line in `lint.allow`.
    line: usize,
}

/// Parsed `lint.allow`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one `RULE path-substring` per line,
    /// blank lines and `#` comments ignored.
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .enumerate()
            .filter_map(|(i, l)| {
                let l = l.trim();
                if l.is_empty() || l.starts_with('#') {
                    return None;
                }
                let (rule, path) = l.split_once(char::is_whitespace)?;
                Some(AllowEntry {
                    rule: rule.to_string(),
                    path: path.trim().to_string(),
                    line: i + 1,
                })
            })
            .collect();
        Allowlist { entries }
    }

    /// Index of the first entry suppressing (`rule`, `file`).
    fn match_idx(&self, rule: &str, file: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.rule == rule && file.contains(e.path.as_str()))
    }
}

/// Output format for `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

/// Entry point for `cargo xtask lint [--format human|json]`.
pub fn run(args: &[String]) -> ExitCode {
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format expects `human` or `json` (got {other:?})");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let allow_path = root.join("xtask/lint.allow");
    let allow = match fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let findings = match scan_workspace(&root, &allow) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Json => println!("{}", to_json(&findings)),
        Format::Human => {
            if findings.is_empty() {
                eprintln!("xtask lint: clean (rules L1-L10 over crates/*/src)");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!(
                    "xtask lint: {} finding(s). Fix them or add a justified entry to \
                     xtask/lint.allow.",
                    findings.len()
                );
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders findings as a JSON array (hand-rolled: xtask stays
/// dependency-free, and the shim `serde_json` is a consumer-side shim).
fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"column\":{},\
                 \"excerpt\":\"{}\",\"note\":\"{}\"}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                f.column,
                esc(&f.excerpt),
                esc(&f.note)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn workspace_root() -> PathBuf {
    // xtask lives directly under the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Scans every `crates/*/src/**/*.rs` under `root`: per-file rules
/// L1–L9, the cross-file L10 reachability rule, allowlist filtering and
/// stale-allowlist detection.
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<Vec<Finding>> {
    let models = build_models(root)?;
    let deps = crate_deps(root);
    let mut findings = Vec::new();
    for m in &models {
        findings.extend(per_file_findings(m));
    }
    findings.extend(l10_findings(&models, &deps));
    dedupe_sort(&mut findings);

    // Allowlist filtering, tracking which entries actually fire.
    let mut used = vec![0usize; allow.entries.len()];
    findings.retain(|f| match allow.match_idx(f.rule, &f.file) {
        Some(i) => {
            used[i] += 1;
            false
        }
        None => true,
    });
    for (i, entry) in allow.entries.iter().enumerate() {
        if used[i] == 0 {
            findings.push(Finding {
                rule: "ALLOW",
                file: "xtask/lint.allow".to_string(),
                line: entry.line,
                column: 1,
                excerpt: format!("stale allowlist entry: {} {}", entry.rule, entry.path),
                note: "suppresses zero findings; remove it".to_string(),
            });
        }
    }
    Ok(findings)
}

/// Parses every workspace source file into a [`FileModel`].
fn build_models(root: &Path) -> std::io::Result<Vec<FileModel>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut models = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&path)?;
        let model = FileModel::build(&rel, &content)
            .map_err(|e| std::io::Error::other(format!("{rel}: {e}")))?;
        models.push(model);
    }
    Ok(models)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which rule families apply to a file, by crate.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

const DETERMINISTIC: &[&str] = &["des", "sim", "core", "sched", "faults", "obs", "serve"];
const HOT_PATH: &[&str] = &["des", "sim", "sched", "faults", "obs", "serve"];
/// Crates whose public APIs must use `SimTime` / `model::units` newtypes.
const UNIT_CRATES: &[&str] = &["model", "core", "des", "sim", "sched"];
/// The sanctioned conversion boundaries: these files *define* the
/// newtype↔raw conversions, so raw seconds/bytes in their signatures are
/// the point, not a leak.
const UNIT_BOUNDARY_FILES: &[&str] = &["crates/des/src/time.rs", "crates/model/src/units.rs"];

/// Iteration verbs whose receiver order becomes observable.
const ITER_VERBS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];
/// Rayon-style adapters whose reduction order is scheduling-dependent.
const PAR_ADAPTERS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
];
/// Identifier segments that name seconds, bytes or tape positions.
const UNIT_SEGMENTS: &[&str] = &[
    "sec", "secs", "second", "seconds", "byte", "bytes", "track", "pos", "position", "offset",
    "duration", "latency", "elapsed",
];

fn dedupe_sort(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.column == b.column
    });
}

/// L1–L9 over one parsed file.
fn per_file_findings(m: &FileModel) -> Vec<Finding> {
    let Some(krate) = crate_of(&m.rel) else {
        return Vec::new();
    };
    let deterministic = DETERMINISTIC.contains(&krate);
    let hot = HOT_PATH.contains(&krate);
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: usize, column: usize, note: String| {
        out.push(Finding {
            rule,
            file: m.rel.clone(),
            line,
            column,
            excerpt: m.excerpt(line),
            note,
        });
    };

    let methods = m.method_calls();

    // L1: typed time — `.as_secs()` escapes outside des::time (test code
    // converting for assertions is fine).
    if m.rel != "crates/des/src/time.rs" {
        for c in &methods {
            let line = m.tf.line(c.name_idx);
            if m.tf.tokens[c.name_idx].tok.is_ident("as_secs") && !m.line_in_test(line) {
                push("L1", line, m.tf.col(c.name_idx), String::new());
            }
        }
    }

    // L2: determinism — wall clocks and OS entropy, anywhere in the file
    // (even tests: a time- or entropy-dependent test is a flaky test).
    if deterministic {
        for (i, t) in m.tf.tokens.iter().enumerate() {
            if ["Instant", "SystemTime", "thread_rng"]
                .iter()
                .any(|p| t.tok.is_ident(p))
            {
                push("L2", m.tf.line(i), m.tf.col(i), String::new());
            }
        }
    }

    // L3: unordered iteration — an iteration verb whose receiver chain
    // roots in a HashMap/HashSet binding or constructs one inline, and
    // `for` loops over such a binding.
    if deterministic {
        for c in &methods {
            let name = &m.tf.tokens[c.name_idx].tok;
            let line = m.tf.line(c.name_idx);
            if m.line_in_test(line) || !ITER_VERBS.iter().any(|v| name.is_ident(v)) {
                continue;
            }
            let start = m.chain_start(c.dot);
            if chain_touches_hash(m, start, c.dot) {
                push("L3", line, m.tf.col(c.name_idx), String::new());
            }
        }
        for (for_idx, expr) in for_loop_exprs(m) {
            let line = m.tf.line(for_idx);
            if m.line_in_test(line) {
                continue;
            }
            if chain_touches_hash(m, expr.0, expr.1) {
                push("L3", line, m.tf.col(for_idx), String::new());
            }
        }
    }

    // L4: panic shortcuts in hot paths (non-test code only).
    if hot {
        for c in &methods {
            let name = &m.tf.tokens[c.name_idx].tok;
            let line = m.tf.line(c.name_idx);
            if (name.is_ident("unwrap") || name.is_ident("expect")) && !m.line_in_test(line) {
                push("L4", line, m.tf.col(c.name_idx), String::new());
            }
        }
    }

    // L5: dropped call results in hot paths (non-test code only). A bare
    // `let _ = name;` rebinding is fine; `let _ =` on anything that
    // calls is a silently swallowed result.
    if hot {
        let t = &m.tf;
        for i in 0..t.tokens.len() {
            if !(t.tokens[i].tok.is_ident("let")
                && t.get(i + 1).is_some_and(|x| x.is_ident("_"))
                && t.get(i + 2).is_some_and(|x| x.is_punct('=')))
            {
                continue;
            }
            let line = t.line(i);
            if m.line_in_test(line) {
                continue;
            }
            let mut j = i + 3;
            let mut has_call = false;
            while j < t.tokens.len() {
                match &t.tokens[j].tok {
                    Tok::Punct(';') => break,
                    Tok::Open('(') => {
                        has_call = true;
                        break;
                    }
                    Tok::Open(_) => j = t.skip_group(j),
                    _ => j += 1,
                }
            }
            if has_call {
                push("L5", line, t.col(i), String::new());
            }
        }
    }

    // L6: per-iteration state copies in hot paths (non-test code only).
    if hot {
        for c in &methods {
            let line = m.tf.line(c.name_idx);
            if m.line_in_test(line) || !m.line_in_loop(line) {
                continue;
            }
            let pairs: &[(&str, &str)] = &[("state", "clone"), ("entries", "to_vec")];
            for (recv, call) in pairs {
                if m.tf.tokens[c.name_idx].tok.is_ident(call) && receiver_is_call_of(m, c.dot, recv)
                {
                    push("L6", line, m.tf.col(c.name_idx), String::new());
                }
            }
        }
    }

    // L7: non-associative f64 reductions over order-unstable iterators.
    if deterministic {
        for c in &methods {
            let name = &m.tf.tokens[c.name_idx].tok;
            let line = m.tf.line(c.name_idx);
            if m.line_in_test(line) {
                continue;
            }
            let is_fold = name.is_ident("fold");
            if !(is_fold || name.is_ident("sum") || name.is_ident("product")) {
                continue;
            }
            let start = m.chain_start(c.dot);
            let idents = m.chain_idents(start, c.dot);
            let parallel = idents.iter().any(|i| PAR_ADAPTERS.contains(i));
            let hash_sourced = idents.iter().any(|i| ITER_VERBS.contains(i))
                && (idents.iter().any(|i| m.hash_names.iter().any(|h| h == i))
                    || idents.iter().any(|i| *i == "HashMap" || *i == "HashSet"));
            if !(parallel || hash_sourced) {
                continue;
            }
            if reduction_is_float(m, c, start) {
                push(
                    "L7",
                    line,
                    m.tf.col(c.name_idx),
                    "f64 reduction over an order-unstable iterator".to_string(),
                );
            }
        }
    }

    // L8: unit safety of public signatures.
    if UNIT_CRATES.contains(&krate) && !UNIT_BOUNDARY_FILES.contains(&m.rel.as_str()) {
        for f in &m.fns {
            if !f.is_pub || f.in_test {
                continue;
            }
            for p in &f.params {
                let raw = p.ty == ["f64"] || p.ty == ["u64"];
                if raw && has_unit_segment(&p.name) {
                    push(
                        "L8",
                        p.line,
                        p.col,
                        format!(
                            "parameter `{}: {}` smells of raw units; use SimTime / model::units",
                            p.name,
                            p.ty.join("")
                        ),
                    );
                }
            }
            if let Some((rs, re)) = f.ret {
                let idents: Vec<&str> = m.tf.tokens[rs..re]
                    .iter()
                    .filter_map(|t| t.tok.ident())
                    .collect();
                let raw_only =
                    !idents.is_empty() && idents.iter().all(|i| *i == "f64" || *i == "u64");
                if raw_only && has_unit_segment(&f.name) {
                    push(
                        "L8",
                        f.line,
                        f.col,
                        format!(
                            "`{}` returns raw {}; use SimTime / model::units",
                            f.name,
                            idents.join("/")
                        ),
                    );
                }
            }
        }
    }

    // L9: TraceEvent exhaustiveness in the auditor and time accountant.
    let l9_scope =
        m.rel.starts_with("crates/des/src/audit") || m.rel.starts_with("crates/obs/src/spans");
    if l9_scope {
        for me in m.match_exprs() {
            let line = m.tf.line(me.kw);
            if m.line_in_test(line) {
                continue;
            }
            let mentions_trace_event = m
                .chain_idents(me.scrutinee.0, me.scrutinee.1)
                .contains(&"TraceEvent")
                || me.arms.iter().any(|a| {
                    m.tf.tokens[a.pat.0..a.pat.1]
                        .iter()
                        .any(|t| t.tok.is_ident("TraceEvent"))
                });
            if !mentions_trace_event {
                continue;
            }
            for arm in &me.arms {
                if arm_is_wildcard(&m.tf, arm) {
                    push(
                        "L9",
                        m.tf.line(arm.pat.0),
                        m.tf.col(arm.pat.0),
                        "wildcard arm over TraceEvent; list the variants".to_string(),
                    );
                }
            }
        }
    }

    out
}

/// Splits `name` on `_` and checks for a seconds/bytes/position segment.
fn has_unit_segment(name: &str) -> bool {
    name.split('_').any(|seg| UNIT_SEGMENTS.contains(&seg))
}

/// Does the chain `[start, end)` mention a HashMap/HashSet binding or
/// type?
fn chain_touches_hash(m: &FileModel, start: usize, end: usize) -> bool {
    let idents = m.chain_idents(start, end);
    idents.iter().any(|i| *i == "HashMap" || *i == "HashSet")
        || idents.iter().any(|i| m.hash_names.iter().any(|h| h == i))
}

/// For every loop-`for`, the token range of its iterated expression.
fn for_loop_exprs(m: &FileModel) -> Vec<(usize, (usize, usize))> {
    let t = &m.tf;
    let mut out = Vec::new();
    for i in 0..t.tokens.len() {
        if !t.tokens[i].tok.is_ident("for") {
            continue;
        }
        // Find the `in` and the body `{` the analyzer's loop mask used.
        let mut j = i + 1;
        let mut in_idx = None;
        while j < t.tokens.len() {
            match &t.tokens[j].tok {
                Tok::Ident(w) if w == "in" => {
                    in_idx = Some(j);
                    break;
                }
                Tok::Open('{') | Tok::Close(_) => break,
                Tok::Punct(';') => break,
                Tok::Open(_) => j = t.skip_group(j),
                _ => j += 1,
            }
        }
        let Some(in_idx) = in_idx else { continue };
        let mut k = in_idx + 1;
        while k < t.tokens.len() {
            match &t.tokens[k].tok {
                Tok::Open('{') if !t.tokens[k - 1].tok.is_punct('|') => break,
                Tok::Open(_) => k = t.skip_group(k),
                Tok::Punct(';') | Tok::Close(_) => break,
                _ => k += 1,
            }
        }
        out.push((i, (in_idx + 1, k)));
    }
    out
}

/// Is the receiver of the method call at `dot` itself a call of
/// `recv_name` (`x.recv_name().this()`)?
fn receiver_is_call_of(m: &FileModel, dot: usize, recv_name: &str) -> bool {
    let t = &m.tf;
    let Some(close) = dot.checked_sub(1) else {
        return false;
    };
    if !matches!(t.tokens[close].tok, Tok::Close(')')) {
        return false;
    }
    let open = t.match_of[close];
    open >= 1 && t.tokens[open - 1].tok.is_ident(recv_name)
}

/// Float evidence for an L7 reduction: an `f64` turbofish, an `f64`
/// `let` annotation, a float literal in a `fold` seed (plus a `+` in its
/// body), or an `f64` conversion inside the chain.
fn reduction_is_float(m: &FileModel, c: &crate::analyzer::MethodCall, chain_start: usize) -> bool {
    let t = &m.tf;
    // Turbofish: `.sum::<f64>()`.
    let turbofish_f64 = t.tokens[c.name_idx + 1..c.args_open]
        .iter()
        .any(|x| x.tok.is_ident("f64") || x.tok.is_ident("f32"));
    if turbofish_f64 {
        return true;
    }
    let name = &t.tokens[c.name_idx].tok;
    if name.is_ident("fold") {
        // Non-associative only if the body adds; seed must be floaty.
        let close = t.match_of[c.args_open];
        let args = &t.tokens[c.args_open + 1..close];
        let has_add = args.iter().any(|x| x.tok.is_punct('+'));
        let floaty = args
            .iter()
            .any(|x| matches!(x.tok, Tok::Num { float: true, .. }) || x.tok.is_ident("f64"));
        return has_add && floaty;
    }
    // `let total: f64 = chain...;`
    if chain_start >= 3
        && t.tokens[chain_start - 1].tok.is_punct('=')
        && t.tokens[chain_start - 2].tok.is_ident("f64")
        && t.tokens[chain_start - 3].tok.is_punct(':')
    {
        return true;
    }
    // An `as f64` / float literal inside the chain (e.g. in a `.map`).
    t.tokens[chain_start..c.dot]
        .iter()
        .any(|x| matches!(x.tok, Tok::Num { float: true, .. }) || x.tok.is_ident("f64"))
}

// ---------------------------------------------------------------------
// L10: panic reachability over the intra-workspace call graph.
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Direct intra-workspace dependencies, keyed by crate *directory* name
/// (the package `tapesim-placement` lives in `crates/core`). Name-matched
/// call edges are only admitted along these edges (or within a crate):
/// without this, a generic method name like `run` teleports the L10
/// walk into crates the caller cannot even link against.
type CrateDeps = BTreeMap<String, Vec<String>>;

/// Parses `crates/*/Cargo.toml` into the direct-dependency map. Missing
/// or unparsable manifests (e.g. test fixture trees) yield no entry,
/// which restricts that crate to same-crate edges — the conservative
/// default for fixtures.
fn crate_deps(root: &Path) -> CrateDeps {
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return CrateDeps::new();
    };
    for entry in entries.flatten() {
        let dir = entry.file_name().to_string_lossy().to_string();
        let Ok(manifest) = fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let mut pkg = String::new();
        let mut deps = Vec::new();
        let mut section = "";
        for line in manifest.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line;
                continue;
            }
            if section == "[package]" && line.starts_with("name") {
                if let Some(name) = line.split('"').nth(1) {
                    pkg = name.to_string();
                }
            }
            if section == "[dependencies]" {
                if let Some(dep) = line.split(['=', ' ', '.']).next() {
                    if dep.starts_with("tapesim-") {
                        deps.push(dep.to_string());
                    }
                }
            }
        }
        if !pkg.is_empty() {
            pkg_to_dir.insert(pkg, dir.clone());
        }
        raw.push((dir, deps));
    }
    raw.into_iter()
        .map(|(dir, deps)| {
            let dirs = deps
                .iter()
                .filter_map(|d| pkg_to_dir.get(d).cloned())
                .collect();
            (dir, dirs)
        })
        .collect()
}

/// May a fn in `caller` crate-dir call into `callee` crate-dir?
fn dep_edge_ok(deps: &CrateDeps, caller: &str, callee: &str) -> bool {
    caller == callee
        || deps
            .get(caller)
            .is_some_and(|ds| ds.iter().any(|d| d == callee))
}

/// A call-graph node: one non-test fn in one file.
struct Node {
    model: usize,
    fn_idx: usize,
    /// Names this fn calls (free calls, path calls and method names).
    calls: Vec<String>,
    /// Panic-family macro sites in the body: (line, col, macro name).
    panics: Vec<(usize, usize, String)>,
    /// Direct index-expression sites in the body: (line, col).
    indexes: Vec<(usize, usize)>,
}

/// Is this fn an engine entry point?
fn is_root(krate: &str, name: &str) -> bool {
    name.starts_with("run_scheduled")
        || (krate == "serve" && name.starts_with("serve_run"))
        || (krate == "serve" && name.starts_with("supervisor_run"))
        // The parallel gears: the window runner (des) and the
        // partitioned scheduler entry (sched).
        // `run_scheduled_faulty_parallel` is already covered by the
        // `run_scheduled` prefix above.
        || (krate == "des" && name.starts_with("run_windowed"))
        || (krate == "sched" && name.starts_with("run_partitioned"))
        // The engines' event handlers (`World::handle` in `sched` and
        // `sim`): `des::Scheduler::run` calls them through the trait, an
        // edge against the crate dependency order the graph cannot
        // follow, so every dispatch path would otherwise go unseen.
        || ((krate == "sched" || krate == "sim") && name == "handle")
        // The seek-policy dispatcher: every planner (greedy sweep,
        // exact LTSP DP, ratio-2 approx) hangs off this entry, so the
        // DP's state/replay machinery is lint-forced to stay index-free.
        || (krate == "sim" && name.starts_with("plan_with"))
        // The workload validation boundary: deserialising a workload file
        // runs it on untrusted input, so it must reject, never panic.
        || (krate == "workload" && name == "try_new")
}

/// Builds the graph, BFS-marks reachability from the engine roots, and
/// reports reachable panic sites and index expressions.
fn l10_findings(models: &[FileModel], deps: &CrateDeps) -> Vec<Finding> {
    let mut nodes = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (mi, m) in models.iter().enumerate() {
        if crate_of(&m.rel).is_none() {
            continue;
        }
        // Pre-collect sites per model, then attribute to innermost fns.
        let mut calls_at: Vec<(usize, String)> = Vec::new();
        for c in m.free_calls() {
            if let Some(name) = m.tf.tokens[c.name_idx].tok.ident() {
                calls_at.push((c.name_idx, name.to_string()));
            }
        }
        for c in m.method_calls() {
            if let Some(name) = m.tf.tokens[c.name_idx].tok.ident() {
                calls_at.push((c.name_idx, name.to_string()));
            }
        }
        let mut panics_at: Vec<(usize, String)> = Vec::new();
        for mc in m.macro_calls() {
            if let Some(name) = m.tf.tokens[mc.name_idx].tok.ident() {
                if PANIC_MACROS.contains(&name) {
                    panics_at.push((mc.name_idx, name.to_string()));
                }
            }
        }
        let index_at: Vec<usize> = m.index_sites();

        for (fi, f) in m.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let (open, close) = f.body.unwrap_or((0, 0));
            let within = |idx: usize| idx > open && idx < close;
            let owned = |idx: usize| m.enclosing_fn(idx) == Some(fi);
            let node = Node {
                model: mi,
                fn_idx: fi,
                calls: calls_at
                    .iter()
                    .filter(|(i, _)| within(*i) && owned(*i))
                    .map(|(_, n)| n.clone())
                    .collect(),
                panics: panics_at
                    .iter()
                    .filter(|(i, _)| within(*i) && owned(*i) && !m.line_in_test(m.tf.line(*i)))
                    .map(|(i, n)| (m.tf.line(*i), m.tf.col(*i), n.clone()))
                    .collect(),
                indexes: index_at
                    .iter()
                    .filter(|&&i| within(i) && owned(i) && !m.line_in_test(m.tf.line(i)))
                    .map(|&i| (m.tf.line(i), m.tf.col(i)))
                    .collect(),
            };
            nodes.push(node);
        }
    }
    for (ni, n) in nodes.iter().enumerate() {
        let name = models[n.model].fns[n.fn_idx].name.as_str();
        by_name.entry(name).or_default().push(ni);
    }

    // BFS from the engine roots, recording one predecessor per node so a
    // finding can show its reachability chain.
    let mut pred: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached = vec![false; nodes.len()];
    let mut queue = VecDeque::new();
    for (ni, n) in nodes.iter().enumerate() {
        let m = &models[n.model];
        let f = &m.fns[n.fn_idx];
        if crate_of(&m.rel).is_some_and(|k| is_root(k, &f.name)) {
            reached[ni] = true;
            queue.push_back(ni);
        }
    }
    while let Some(ni) = queue.pop_front() {
        let caller_crate = crate_of(&models[nodes[ni].model].rel).unwrap_or("");
        for callee in &nodes[ni].calls {
            if let Some(targets) = by_name.get(callee.as_str()) {
                for &ti in targets {
                    let callee_crate = crate_of(&models[nodes[ti].model].rel).unwrap_or("");
                    if !dep_edge_ok(deps, caller_crate, callee_crate) {
                        continue;
                    }
                    if !reached[ti] {
                        reached[ti] = true;
                        pred[ti] = Some(ni);
                        queue.push_back(ti);
                    }
                }
            }
        }
    }

    let chain_of = |mut ni: usize| -> String {
        let mut names = vec![models[nodes[ni].model].fns[nodes[ni].fn_idx].name.clone()];
        while let Some(p) = pred[ni] {
            names.push(models[nodes[p].model].fns[nodes[p].fn_idx].name.clone());
            ni = p;
        }
        names.reverse();
        format!("reachable: {}", names.join(" -> "))
    };

    let mut out = Vec::new();
    for (ni, n) in nodes.iter().enumerate() {
        if !reached[ni] {
            continue;
        }
        let m = &models[n.model];
        for (line, col, mac) in &n.panics {
            out.push(Finding {
                rule: "L10",
                file: m.rel.clone(),
                line: *line,
                column: *col,
                excerpt: m.excerpt(*line),
                note: format!("{}! — {}", mac, chain_of(ni)),
            });
        }
        for (line, col) in &n.indexes {
            out.push(Finding {
                rule: "L10",
                file: m.rel.clone(),
                line: *line,
                column: *col,
                excerpt: m.excerpt(*line),
                note: format!("slice indexing — {}", chain_of(ni)),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A scratch workspace tree under the system temp dir.
    struct Fixture {
        root: PathBuf,
    }

    static FIXTURE_SEQ: AtomicU32 = AtomicU32::new(0);

    impl Fixture {
        fn new() -> Fixture {
            let n = FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed);
            let root =
                std::env::temp_dir().join(format!("tapesim-lint-test-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn write(&self, rel: &str, content: &str) {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        }

        fn scan(&self, allow: &Allowlist) -> Vec<Finding> {
            scan_workspace(&self.root, allow).unwrap()
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn l1_fires_on_as_secs_escape() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/bad.rs",
            "pub fn f(t: SimTime) -> f64 {\n    t.as_secs() * 2.0\n}\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L1"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn l1_spares_time_rs_tests_and_allowlisted_files() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/time.rs",
            "pub fn as_secs(self) -> f64 { self.0.as_secs() }\n",
        );
        fx.write(
            "crates/des/src/stats.rs",
            "pub fn mean(t: SimTime) -> f64 { t.as_secs() }\n",
        );
        fx.write(
            "crates/sim/src/ok.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(t: SimTime) -> f64 { t.as_secs() }\n}\n",
        );
        let allow = Allowlist::parse("# metrics boundary\nL1 crates/des/src/stats.rs\n");
        assert!(fx.scan(&allow).is_empty());
    }

    #[test]
    fn l2_fires_on_wall_clock_and_entropy() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/bad.rs",
            "pub fn f() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n",
        );
        fx.write(
            "crates/core/src/bad.rs",
            "pub fn g() -> u64 {\n    rand::thread_rng().next_u64()\n}\n",
        );
        let mut rules = rules_of(&fx.scan(&Allowlist::default()));
        rules.sort_unstable();
        assert_eq!(rules, vec!["L2", "L2"]);
    }

    #[test]
    fn l2_ignores_non_deterministic_crates_and_comments() {
        let fx = Fixture::new();
        fx.write(
            "crates/cli/src/ok.rs",
            "pub fn f() { let _ = std::time::Instant::now(); }\n",
        );
        fx.write(
            "crates/des/src/ok.rs",
            "// A comment mentioning SystemTime and thread_rng is fine.\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l3_fires_on_hashmap_iteration() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/bad.rs",
            "use std::collections::HashMap;\n\
             pub fn f(m: &HashMap<u32, u32>) -> u32 {\n\
             \x20   let mut counts = HashMap::new();\n\
             \x20   counts.insert(1u32, 2u32);\n\
             \x20   counts.values().sum::<u32>()\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L3"]);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn l3_allows_membership_use_without_iteration() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/ok.rs",
            "use std::collections::HashSet;\n\
             pub fn f(xs: &[u32]) -> bool {\n\
             \x20   let mut seen = HashSet::new();\n\
             \x20   xs.iter().all(|x| seen.insert(*x))\n\
             }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l3_sees_through_multiline_chains() {
        // The old line-regex scanner only fired when the verb and the
        // HashMap landed on the same line; the AST chain walk does not
        // care about line breaks.
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/bad.rs",
            "use std::collections::HashMap;\n\
             pub fn f() -> u32 {\n\
             \x20   let mut counts = HashMap::new();\n\
             \x20   counts.insert(1u32, 2u32);\n\
             \x20   counts\n\
             \x20       .values()\n\
             \x20       .copied()\n\
             \x20       .max()\n\
             \x20       .unwrap_or(0)\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L3"]);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn l4_fires_on_unwrap_and_expect_in_hot_paths() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/bad.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        );
        fx.write(
            "crates/sim/src/bad.rs",
            "pub fn g(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n",
        );
        let mut rules = rules_of(&fx.scan(&Allowlist::default()));
        rules.sort_unstable();
        assert_eq!(rules, vec!["L4", "L4"]);
    }

    #[test]
    fn l4_spares_tests_other_crates_and_unwrap_or() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/ok.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t() { assert_eq!(super::f(Some(3)), Some(3).unwrap()); }\n\
             }\n",
        );
        fx.write(
            "crates/cluster/src/ok.rs",
            "pub fn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l5_fires_on_dropped_call_result_in_scoped_crates() {
        let fx = Fixture::new();
        fx.write(
            "crates/faults/src/bad.rs",
            "pub fn f(r: &mut Resource) {\n    let _ = r.acquire(now, d);\n}\n",
        );
        fx.write(
            "crates/sched/src/bad.rs",
            "pub fn g() {\n    let _ = std::fs::write(\"x\", \"y\");\n}\n",
        );
        let mut rules = rules_of(&fx.scan(&Allowlist::default()));
        rules.sort_unstable();
        assert_eq!(rules, vec!["L5", "L5"]);
    }

    #[test]
    fn l5_spares_plain_rebinds_tests_other_crates_and_allowlisted() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/ok.rs",
            "pub fn f(x: u32) {\n    let _ = x;\n}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { let _ = super::helper(); }\n\
             }\n",
        );
        fx.write(
            "crates/cli/src/ok.rs",
            "pub fn g() { let _ = std::fs::remove_file(\"x\"); }\n",
        );
        fx.write(
            "crates/sim/src/justified.rs",
            "pub fn h() { let _ = best_effort_flush(); }\n",
        );
        let allow = Allowlist::parse("L5 crates/sim/src/justified.rs\n");
        assert!(fx.scan(&allow).is_empty());
    }

    #[test]
    fn l6_fires_on_state_clone_and_trace_copy_in_loops() {
        let fx = Fixture::new();
        fx.write(
            "crates/sched/src/bad.rs",
            "pub fn f(sim: &Simulator) {\n\
             \x20   for _ in 0..10 {\n\
             \x20       let state = sim.state().clone();\n\
             \x20       consume(state);\n\
             \x20   }\n\
             }\n",
        );
        fx.write(
            "crates/des/src/bad.rs",
            "pub fn g(tracer: &Tracer) {\n\
             \x20   while more() {\n\
             \x20       audit(tracer.entries().to_vec());\n\
             \x20   }\n\
             }\n",
        );
        let mut rules = rules_of(&fx.scan(&Allowlist::default()));
        rules.sort_unstable();
        assert_eq!(rules, vec!["L6", "L6"]);
    }

    #[test]
    fn l6_spares_top_level_clones_tests_other_crates_and_allowlisted() {
        let fx = Fixture::new();
        // A once-per-run snapshot before the loop is the sanctioned shape.
        fx.write(
            "crates/sim/src/ok.rs",
            "pub fn f(sim: &Simulator) {\n\
             \x20   let state = sim.state().clone();\n\
             \x20   for _ in 0..10 {\n\
             \x20       consume(&state);\n\
             \x20   }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t(sim: &Simulator) {\n\
             \x20       for _ in 0..2 {\n\
             \x20           let _s = sim.state().clone();\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        );
        fx.write(
            "crates/cli/src/ok.rs",
            "pub fn g(sim: &Simulator) {\n\
             \x20   loop {\n\
             \x20       let _s = sim.state().clone();\n\
             \x20   }\n\
             }\n",
        );
        fx.write(
            "crates/faults/src/justified.rs",
            "pub fn h(t: &Tracer) {\n\
             \x20   for _ in 0..2 {\n\
             \x20       keep(t.entries().to_vec());\n\
             \x20   }\n\
             }\n",
        );
        let allow = Allowlist::parse("L6 crates/faults/src/justified.rs\n");
        assert!(fx.scan(&allow).is_empty());
    }

    #[test]
    fn l7_fires_on_parallel_float_sum_and_float_fold() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/bad.rs",
            "pub fn f(xs: &[f64]) -> f64 {\n\
             \x20   xs.par_iter().sum::<f64>()\n\
             }\n\
             pub fn g(xs: &[f64]) -> f64 {\n\
             \x20   xs.par_iter().copied().fold(0.0, |a, b| a + b)\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L7", "L7"]);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 5);
    }

    #[test]
    fn l7_fires_on_hash_sourced_float_sum() {
        let fx = Fixture::new();
        fx.write(
            "crates/sched/src/bad.rs",
            "use std::collections::HashMap;\n\
             pub fn f() -> f64 {\n\
             \x20   let mut weights = HashMap::new();\n\
             \x20   weights.insert(1u32, 0.5f64);\n\
             \x20   weights.values().sum::<f64>()\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        // The same site also violates L3 (hash iteration); both must fire.
        assert_eq!(rules_of(&findings), vec!["L3", "L7"]);
        assert_eq!(findings[1].line, 5);
    }

    #[test]
    fn l7_spares_slice_sums_integer_sums_and_non_additive_folds() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/ok.rs",
            "pub fn f(xs: &[f64]) -> f64 {\n\
             \x20   xs.iter().sum::<f64>()\n\
             }\n\
             pub fn g(xs: &[u64]) -> u64 {\n\
             \x20   xs.par_iter().sum::<u64>()\n\
             }\n\
             pub fn h(xs: &[u32]) -> Vec<u32> {\n\
             \x20   xs.par_iter().fold(Vec::new(), |mut v, x| { v.push(*x); v })\n\
             }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l7_fires_on_summing_partition_metrics_in_thread_completion_order() {
        // The parallel-merge anti-pattern: partition busy-time deltas
        // come off worker threads in completion order, and a float sum
        // over that order changes bits run to run. The real merge
        // replays the deltas by sorted OpKey instead.
        let fx = Fixture::new();
        fx.write(
            "crates/sched/src/bad_merge.rs",
            "pub fn merged_busy(done: std::sync::mpsc::Receiver<f64>) -> f64 {\n\
             \x20   done.into_iter().par_bridge().sum::<f64>()\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L7"]);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].note.contains("order-unstable"));
    }

    #[test]
    fn l8_fires_on_raw_unit_params_and_returns() {
        let fx = Fixture::new();
        fx.write(
            "crates/model/src/bad.rs",
            "pub fn seek_seconds(dist: u64) -> f64 {\n\
             \x20   dist as f64 * 0.001\n\
             }\n\
             impl Layout {\n\
             \x20   pub fn set(&mut self, offset_bytes: u64) {\n\
             \x20       self.off = offset_bytes;\n\
             \x20   }\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L8", "L8"]);
        // The return-side finding anchors at the fn, the param-side
        // finding at the parameter.
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 5);
        assert!(findings[1].note.contains("offset_bytes"));
    }

    #[test]
    fn l8_spares_newtypes_private_fns_tests_and_boundary_files() {
        let fx = Fixture::new();
        fx.write(
            "crates/model/src/ok.rs",
            "pub fn elapsed_time(t: SimTime) -> SimTime { t }\n\
             fn seek_seconds(dist: u64) -> f64 { dist as f64 }\n\
             pub fn ratio(x: f64) -> f64 { x }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   pub fn bytes_used(bytes: u64) -> u64 { bytes }\n\
             }\n",
        );
        fx.write(
            "crates/model/src/units.rs",
            "pub fn from_bytes(bytes: u64) -> Bytes { Bytes(bytes) }\n",
        );
        fx.write(
            "crates/obs/src/ok.rs",
            "pub fn budget_seconds(seconds: f64) -> f64 { seconds }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l9_fires_on_wildcard_trace_event_arm() {
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/audit.rs",
            "pub fn f(e: &TraceEvent) -> u32 {\n\
             \x20   match e {\n\
             \x20       TraceEvent::Mounted { .. } => 1,\n\
             \x20       _ => 0,\n\
             \x20   }\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L9"]);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn l9_spares_exhaustive_matches_other_enums_other_files_and_tests() {
        let fx = Fixture::new();
        // Exhaustive TraceEvent match: fine.
        fx.write(
            "crates/des/src/audit.rs",
            "pub fn f(e: &TraceEvent) -> u32 {\n\
             \x20   match e {\n\
             \x20       TraceEvent::Mounted { .. } => 1,\n\
             \x20       TraceEvent::Unmounted { .. } => 2,\n\
             \x20   }\n\
             }\n",
        );
        // Wildcard over a different enum in scope: fine.
        fx.write(
            "crates/obs/src/spans.rs",
            "pub fn g(k: Kind) -> u32 {\n\
             \x20   match k {\n\
             \x20       Kind::A => 1,\n\
             \x20       _ => 0,\n\
             \x20   }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t(e: &TraceEvent) -> u32 {\n\
             \x20       match e {\n\
             \x20           TraceEvent::Mounted { .. } => 1,\n\
             \x20           _ => 0,\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        );
        // Wildcard TraceEvent match outside the audited files: fine.
        fx.write(
            "crates/sim/src/other.rs",
            "pub fn h(e: &TraceEvent) -> u32 {\n\
             \x20   match e {\n\
             \x20       TraceEvent::Mounted { .. } => 1,\n\
             \x20       _ => 0,\n\
             \x20   }\n\
             }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l10_fires_on_reachable_panics_and_indexing_with_chain() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/bad.rs",
            "pub fn run_scheduled_fx(n: usize) -> u32 {\n\
             \x20   step(n)\n\
             }\n\
             fn step(n: usize) -> u32 {\n\
             \x20   let xs = vec![1, 2, 3];\n\
             \x20   if n > 3 { panic!(\"too deep\") }\n\
             \x20   xs[n]\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L10", "L10"]);
        assert_eq!(findings[0].line, 6);
        assert!(findings[0].note.contains("panic!"));
        assert!(findings[0].note.contains("run_scheduled_fx -> step"));
        assert_eq!(findings[1].line, 7);
        assert!(findings[1].note.contains("slice indexing"));
    }

    #[test]
    fn l10_spares_unreachable_fns_and_test_code() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/ok.rs",
            "pub fn run_scheduled_fx(n: usize) -> usize {\n\
             \x20   n + 1\n\
             }\n\
             fn never_called(xs: &[u32], n: usize) -> u32 {\n\
             \x20   xs[n]\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t() {\n\
             \x20       assert_eq!(super::run_scheduled_fx(1), 2);\n\
             \x20       panic!(\"test-only panic\");\n\
             \x20   }\n\
             }\n",
        );
        assert!(fx.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l10_edges_respect_the_crate_dependency_graph() {
        // `run_scheduled_fx` (sim) calls `helper()`, and a fn named `helper`
        // with a panic exists in des. Without a manifest declaring
        // sim -> des, the name match must NOT create an edge.
        let src_sim = "pub fn run_scheduled_fx() -> u32 {\n    helper()\n}\n";
        let src_des = "pub fn helper() -> u32 {\n    panic!(\"boom\")\n}\n";

        let fx = Fixture::new();
        fx.write("crates/sim/src/a.rs", src_sim);
        fx.write("crates/des/src/b.rs", src_des);
        assert!(fx.scan(&Allowlist::default()).is_empty());

        let fx2 = Fixture::new();
        fx2.write("crates/sim/src/a.rs", src_sim);
        fx2.write("crates/des/src/b.rs", src_des);
        fx2.write(
            "crates/sim/Cargo.toml",
            "[package]\nname = \"tapesim-sim\"\n[dependencies]\ntapesim-des = { workspace = true }\n",
        );
        fx2.write(
            "crates/des/Cargo.toml",
            "[package]\nname = \"tapesim-des\"\n",
        );
        let findings = fx2.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L10"]);
        assert!(findings[0].note.contains("run_scheduled_fx -> helper"));
    }

    #[test]
    fn l10_treats_parallel_entry_points_as_roots() {
        // The window runner (des) and the partitioned scheduler entry
        // (sched) are engine roots: panics reachable from them must be
        // flagged even though nothing in the scanned set calls them.
        let fx = Fixture::new();
        fx.write(
            "crates/des/src/windowed.rs",
            "pub fn run_windowed(n: usize) -> usize {\n\
             \x20   step(n)\n\
             }\n\
             fn step(n: usize) -> usize {\n\
             \x20   if n > 3 { panic!(\"past the barrier\") }\n\
             \x20   n\n\
             }\n",
        );
        fx.write(
            "crates/sched/src/partitioned.rs",
            "pub fn run_partitioned(xs: &[u32], n: usize) -> u32 {\n\
             \x20   xs[n]\n\
             }\n",
        );
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L10", "L10"]);
        assert!(findings[0].note.contains("run_windowed -> step"));
        assert!(findings[1].note.contains("run_partitioned"));
    }

    #[test]
    fn l10_treats_engine_event_handlers_as_roots() {
        // `World::handle` in sched and sim is reached only through the
        // des trait object, so the handler itself is a root; a `handle`
        // in any other crate is not.
        let src = "impl World for Sim {\n\
                   \x20   fn handle(&mut self, drive: usize) {\n\
                   \x20       self.dispatch(drive)\n\
                   \x20   }\n\
                   }\n\
                   impl Sim {\n\
                   \x20   fn dispatch(&mut self, drive: usize) {\n\
                   \x20       self.busy[drive] = true;\n\
                   \x20   }\n\
                   }\n";
        for krate in ["sched", "sim"] {
            let fx = Fixture::new();
            fx.write(&format!("crates/{krate}/src/engine.rs"), src);
            let findings = fx.scan(&Allowlist::default());
            assert_eq!(rules_of(&findings), vec!["L10"], "{krate}");
            assert_eq!(findings[0].line, 8);
            assert!(findings[0].note.contains("handle -> dispatch"), "{krate}");
        }
        let other = Fixture::new();
        other.write("crates/obs/src/engine.rs", src);
        assert!(other.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn l10_treats_workload_validation_as_a_root() {
        // `try_new` validates deserialised workloads: indexing or a panic
        // reachable from it is flagged, in the workload crate only.
        let src = "pub fn try_new(ids: &[u32], n: usize) -> Result<u32, String> {\n\
                   \x20   if n > ids.len() { panic!(\"short\") }\n\
                   \x20   Ok(ids[n])\n\
                   }\n";
        let fx = Fixture::new();
        fx.write("crates/workload/src/workload.rs", src);
        let findings = fx.scan(&Allowlist::default());
        assert_eq!(rules_of(&findings), vec!["L10", "L10"]);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].note.contains("reachable: try_new"));
        assert_eq!(findings[1].line, 3);
        assert!(findings[1].note.contains("slice indexing"));

        let other = Fixture::new();
        other.write("crates/sim/src/ok.rs", src);
        assert!(other.scan(&Allowlist::default()).is_empty());
    }

    #[test]
    fn stale_allowlist_entries_are_findings() {
        let fx = Fixture::new();
        fx.write("crates/sim/src/ok.rs", "pub fn f(x: u32) -> u32 { x }\n");
        let allow =
            Allowlist::parse("# justified: nothing, it is stale\nL4 crates/sim/src/removed.rs\n");
        let findings = fx.scan(&allow);
        assert_eq!(rules_of(&findings), vec!["ALLOW"]);
        assert_eq!(findings[0].file, "xtask/lint.allow");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].excerpt.contains("L4 crates/sim/src/removed.rs"));
    }

    #[test]
    fn allowlist_is_per_rule() {
        let fx = Fixture::new();
        fx.write(
            "crates/sim/src/bad.rs",
            "pub fn f(t: SimTime, x: Option<u32>) -> f64 {\n\
             \x20   let _ = x.unwrap();\n\
             \x20   t.as_secs()\n\
             }\n",
        );
        let allow = Allowlist::parse("L1 crates/sim/src/bad.rs\n");
        // L1 suppressed; L4 (unwrap) and L5 (dropped result) still fire.
        let mut rules = rules_of(&fx.scan(&allow));
        rules.sort_unstable();
        assert_eq!(rules, vec!["L4", "L5"]);
    }

    #[test]
    fn json_format_escapes_and_structures_findings() {
        let findings = vec![Finding {
            rule: "L4",
            file: "crates/sim/src/bad.rs".to_string(),
            line: 2,
            column: 7,
            excerpt: "x.expect(\"present\")".to_string(),
            note: String::new(),
        }];
        let json = to_json(&findings);
        assert_eq!(
            json,
            "[{\"rule\":\"L4\",\"file\":\"crates/sim/src/bad.rs\",\"line\":2,\"column\":7,\
             \"excerpt\":\"x.expect(\\\"present\\\")\",\"note\":\"\"}]"
        );
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn crate_deps_map_package_names_to_directories() {
        let deps = crate_deps(&workspace_root());
        // tapesim-placement lives in crates/core; sched depends on it.
        assert!(dep_edge_ok(&deps, "sched", "core"));
        assert!(dep_edge_ok(&deps, "sched", "sim"));
        assert!(dep_edge_ok(&deps, "sched", "sched"));
        // The reverse direction is not a dependency edge.
        assert!(!dep_edge_ok(&deps, "sim", "sched"));
        assert!(!dep_edge_ok(&deps, "des", "cli"));
    }

    #[test]
    fn the_real_workspace_is_clean() {
        let root = workspace_root();
        let allow_text = fs::read_to_string(root.join("xtask/lint.allow")).unwrap_or_default();
        let allow = Allowlist::parse(&allow_text);
        let findings = scan_workspace(&root, &allow).unwrap();
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(Finding::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn analyzer_wall_time_stays_under_ten_seconds() {
        // The AST rewrite must not make the pre-commit loop sluggish.
        // (std::time::Instant is fine here: xtask is tooling, not a
        // deterministic simulation crate, and is not scanned by L2.)
        let root = workspace_root();
        let allow_text = fs::read_to_string(root.join("xtask/lint.allow")).unwrap_or_default();
        let allow = Allowlist::parse(&allow_text);
        let start = std::time::Instant::now();
        let findings = scan_workspace(&root, &allow).unwrap();
        let elapsed = start.elapsed();
        eprintln!(
            "analyzer wall-time over the workspace: {elapsed:?} ({} findings)",
            findings.len()
        );
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "full-workspace scan took {elapsed:?}, budget is 10s"
        );
    }
}
