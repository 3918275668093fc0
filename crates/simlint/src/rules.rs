//! The rule set and the token-pattern engine that drives it.
//!
//! Three families, mirroring the determinism contract the differentials
//! depend on (DESIGN.md §12):
//!
//! * **D-rules** — determinism: no wall-clock time sources, no
//!   iteration-order-sensitive containers in simulation crates, no ambient
//!   randomness, no OS threads outside the bench fan-out.
//! * **I-rules** — invariants: no `unwrap()`/`expect()` on protocol paths,
//!   every tracer emit guarded by `trace_enabled()`, `forbid(unsafe_code)`
//!   in every crate root.
//! * **A-rules** — API hygiene: no resurrected pre-builder cluster API, no
//!   public fields on wire structs.
//!
//! Waivers are inline comments with a mandatory justification:
//! `// simlint: allow(I001): completion invariants keep the parent alive`.
//! A waiver covers its own line and the next line that carries code. The
//! meta-rules W000 (missing justification) and W001 (unused waiver) police
//! the waivers themselves and cannot be waived.

use crate::config::{Config, RulePolicy};
use crate::lexer::{lex, Tok, TokKind};

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id, e.g. `D001`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
    /// Waiver justification when the finding is covered by an allow
    /// comment (waived findings never fail the run).
    pub waived: Option<String>,
    /// Demoted to a warning by config (`severity = "warn"`).
    pub warning: bool,
}

/// Static description of a rule, for `--list-rules` and the self-test.
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo { id: "D001", summary: "no wall-clock time sources (std::time::{Instant,SystemTime})" },
    RuleInfo { id: "D002", summary: "no HashMap/HashSet in determinism-scoped code (iteration order feeds traces/scheduling)" },
    RuleInfo { id: "D003", summary: "no ambient randomness (thread_rng/from_entropy/OsRng) — use seeded SimRng" },
    RuleInfo { id: "D004", summary: "no std::thread spawn/scope outside the sanctioned fan-out site" },
    RuleInfo { id: "I001", summary: "no unwrap()/expect() on protocol paths — surface typed IoError/ProtoError" },
    RuleInfo { id: "I002", summary: "tracer/lifecycle emit sites must be guarded by trace_enabled()/lifecycle_enabled()" },
    RuleInfo { id: "I003", summary: "crate roots must carry #![forbid(unsafe_code)]" },
    RuleInfo { id: "A001", summary: "no HpbdCluster::build/build_on remnants — use ClusterBuilder" },
    RuleInfo { id: "A002", summary: "no pub fields on wire/protocol structs" },
    RuleInfo { id: "A003", summary: "no raw post_send outside ibsim — submit through the typed WrChain builder" },
    RuleInfo { id: "A004", summary: "no raw RequestQueue in vmsim outside the BlockBackend adapter — go through SwapBackend" },
    RuleInfo { id: "D005", summary: "no wall-clock Duration in crates that drive the virtual clock (linked: needs the workspace index)" },
    RuleInfo { id: "A005", summary: "*Config hygiene: derive Clone + Debug, no mutable statics, every knob read somewhere (linked)" },
    RuleInfo { id: "X001", summary: "every wire type with encode/to_wire needs a decode call in some test (linked)" },
    RuleInfo { id: "X002", summary: "completion-lifecycle leaks: swap submissions need a reap loop, WrChains must be posted (linked)" },
    RuleInfo { id: "X003", summary: "registered metrics must be emitted; counter reads must name an emitted metric (linked)" },
    RuleInfo { id: "W000", summary: "waiver without a justification" },
    RuleInfo { id: "W001", summary: "waiver that matched no finding (stale)" },
    RuleInfo { id: "W002", summary: "waiver naming a rule id that does not exist (typo — the allow can never match)" },
];

/// Rule ids that need the pass-1 workspace index (pass 2 skips them when
/// no index was built, e.g. in single-rule unit tests).
pub const LINKED_RULES: &[&str] = &["D005", "A005", "X001", "X002", "X003"];

/// An inline waiver comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    /// First line after `line` that carries code (second covered line).
    next_code_line: u32,
    justification: String,
    used: bool,
}

/// Lexed file plus the derived per-token context rules need.
pub struct FileCtx {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    toks: Vec<Tok>,
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Per-token: inside `#[cfg(test)]` / `#[test]` items or a `tests/`
    /// file.
    in_test: Vec<bool>,
    waivers: Vec<Waiver>,
}

impl FileCtx {
    /// Lex and annotate one file.
    pub fn new(rel: &str, src: &str) -> FileCtx {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut ctx = FileCtx {
            rel: rel.replace('\\', "/"),
            in_test: vec![false; toks.len()],
            waivers: Vec::new(),
            toks,
            code,
        };
        ctx.mark_test_regions();
        if ctx.path_is_test_file() {
            ctx.in_test.iter_mut().for_each(|f| *f = true);
        }
        ctx.collect_waivers();
        ctx
    }

    fn path_is_test_file(&self) -> bool {
        self.rel.split('/').any(|seg| seg == "tests")
    }

    /// Number of non-comment tokens (the index the pass-1 walk runs over).
    pub(crate) fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Token (not code-index) accessor.
    pub(crate) fn tok(&self, code_idx: usize) -> &Tok {
        &self.toks[self.code[code_idx]]
    }

    pub(crate) fn ident_at(&self, code_idx: usize, name: &str) -> bool {
        code_idx < self.code.len() && self.tok(code_idx).is_ident(name)
    }

    pub(crate) fn punct_at(&self, code_idx: usize, c: char) -> bool {
        code_idx < self.code.len() && self.tok(code_idx).is_punct(c)
    }

    /// `a :: b` path-segment test: ident `a` at k, `::`, ident `b`.
    pub(crate) fn path2(&self, k: usize, a: &str, b: &str) -> bool {
        self.ident_at(k, a)
            && self.punct_at(k + 1, ':')
            && self.punct_at(k + 2, ':')
            && self.ident_at(k + 3, b)
    }

    pub(crate) fn in_test_at(&self, code_idx: usize) -> bool {
        self.in_test[self.code[code_idx]]
    }

    /// Mark the bodies of `#[cfg(test)]` / `#[test]` items.
    fn mark_test_regions(&mut self) {
        let mut k = 0usize;
        while k < self.code.len() {
            if self.is_test_attr(k) {
                // Skip this and any further attributes.
                let mut j = k;
                while self.punct_at(j, '#') {
                    j = self.skip_attr(j);
                }
                // Find the item body: `{ ... }` before any `;`.
                let mut body = None;
                let mut scan = j;
                while scan < self.code.len() {
                    let t = self.tok(scan);
                    if t.is_punct(';') {
                        break;
                    }
                    if t.is_punct('{') {
                        body = Some(scan);
                        break;
                    }
                    scan += 1;
                }
                if let Some(open) = body {
                    let close = self.matching_brace(open);
                    let (lo, hi) = (self.code[open], self.code[close.min(self.code.len() - 1)]);
                    for flag in &mut self.in_test[lo..=hi] {
                        *flag = true;
                    }
                    k = close + 1;
                    continue;
                }
                k = scan + 1;
                continue;
            }
            k += 1;
        }
    }

    /// Does an attribute starting at code index k (`#`) mean test code?
    fn is_test_attr(&self, k: usize) -> bool {
        if !(self.punct_at(k, '#') && self.punct_at(k + 1, '[')) {
            return false;
        }
        let end = self.skip_attr(k);
        // `#[test]`
        if self.ident_at(k + 2, "test") && self.punct_at(k + 3, ']') {
            return true;
        }
        // `#[cfg(...test...)]`
        if self.ident_at(k + 2, "cfg") {
            for j in k + 3..end {
                if self.ident_at(j, "test") {
                    return true;
                }
            }
        }
        false
    }

    /// Given code index of `#`, return the code index just past the
    /// closing `]`.
    fn skip_attr(&self, k: usize) -> usize {
        let mut j = k + 1;
        if !self.punct_at(j, '[') {
            return k + 1;
        }
        let mut depth = 0i32;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Code index of the `}` matching the `{` at `open`.
    pub(crate) fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.code.len() {
            let t = self.tok(j);
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.code.len().saturating_sub(1)
    }

    fn collect_waivers(&mut self) {
        let mut found: Vec<(String, u32, String)> = Vec::new();
        for t in &self.toks {
            if !t.is_comment() {
                continue;
            }
            // A waiver must be the whole comment: `// simlint: allow(...)`.
            // (Prose that merely mentions the syntax does not count.)
            let body = t
                .text
                .trim_start_matches('/')
                .trim_start_matches(['*', '!'])
                .trim_start();
            let Some(rest) = body.strip_prefix("simlint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let justification = after
                .strip_prefix(':')
                .map(|j| j.trim().trim_end_matches("*/").trim().to_string())
                .unwrap_or_default();
            found.push((rule, t.line, justification));
        }
        for (rule, line, justification) in found {
            let next_code_line = self
                .code
                .iter()
                .map(|&i| self.toks[i].line)
                .find(|&l| l > line)
                .unwrap_or(line);
            self.waivers.push(Waiver {
                rule,
                line,
                next_code_line,
                justification,
                used: false,
            });
        }
    }

    /// Try to waive a finding; returns the justification if covered.
    fn try_waive(&mut self, rule: &str, line: u32) -> Option<String> {
        for w in &mut self.waivers {
            if w.rule == rule
                && !w.justification.is_empty()
                && (w.line == line || w.next_code_line == line)
            {
                w.used = true;
                return Some(w.justification.clone());
            }
        }
        None
    }
}

/// Is `rel` under any of the given repo-relative prefixes?
fn under_any(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        let p = p.trim_end_matches('/');
        rel == p || rel.starts_with(&format!("{p}/"))
    })
}

/// Does the rule apply to this file at all, given its policy?
fn rule_applies(rel: &str, policy: &RulePolicy) -> bool {
    if policy.enabled == Some(false) {
        return false;
    }
    if under_any(rel, &policy.allow) {
        return false;
    }
    if !policy.paths.is_empty() && !under_any(rel, &policy.paths) {
        return false;
    }
    true
}

/// A004 built-in scope: vmsim sources, minus the one adapter that is
/// *supposed* to hold the queue. Hardcoded (not config `paths`) so the
/// self-test exercises the real scope and a missing `simlint.toml`
/// section cannot silently widen or disable it.
fn a004_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/vmsim/") && rel != "crates/vmsim/src/backend.rs"
}

/// Crate-root check: `src/lib.rs` at the workspace root or in a crate.
fn is_crate_root(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    matches!(segs.as_slice(), ["src", "lib.rs"])
        || matches!(segs.as_slice(), ["crates", _, "src", "lib.rs"])
}

/// Run every enabled rule over one file. `only` restricts to a single rule
/// id (used by the self-test); pass `None` for all. `index` is the pass-1
/// workspace symbol index: linked rules (D005/A005/X001/X002/X003) run
/// only when it is present.
pub fn check_file(
    ctx: &mut FileCtx,
    config: &Config,
    only: Option<&str>,
    index: Option<&crate::index::WorkspaceIndex>,
) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let enabled = |id: &str| only.map(|o| o == id).unwrap_or(true);
    let rel = ctx.rel.clone();

    let mut push = |ctx: &mut FileCtx, id: &'static str, line: u32, message: String| {
        let policy = config.rule(id);
        let waived = ctx.try_waive(id, line);
        out.push(Finding {
            rule: id,
            path: rel.clone(),
            line,
            message,
            waived,
            warning: policy.warn,
        });
    };

    // ---- token-pattern rules ------------------------------------------------
    for id in [
        "D001", "D002", "D003", "D004", "I001", "A001", "A003", "A004",
    ] {
        if !enabled(id) || !rule_applies(&ctx.rel, &config.rule(id)) {
            continue;
        }
        let skip_tests = matches!(id, "D002" | "D004" | "I001");
        let n = ctx.code.len();
        for k in 0..n {
            if skip_tests && ctx.in_test_at(k) {
                continue;
            }
            let line = ctx.tok(k).line;
            match id {
                "D001" => {
                    // std::time::{Instant,SystemTime} — direct path or
                    // brace-group import.
                    if ctx.path2(k, "std", "time")
                        && ctx.punct_at(k + 4, ':')
                        && ctx.punct_at(k + 5, ':')
                    {
                        if ctx.ident_at(k + 6, "Instant") || ctx.ident_at(k + 6, "SystemTime") {
                            let name = ctx.tok(k + 6).text.clone();
                            push(ctx, "D001", line, format!("wall-clock time source `std::time::{name}` breaks run determinism (virtual SimTime only)"));
                        } else if ctx.punct_at(k + 6, '{') {
                            let close = ctx.matching_brace(k + 6);
                            for j in k + 7..close {
                                if ctx.ident_at(j, "Instant") || ctx.ident_at(j, "SystemTime") {
                                    let name = ctx.tok(j).text.clone();
                                    let l = ctx.tok(j).line;
                                    push(ctx, "D001", l, format!("wall-clock time source `std::time::{name}` breaks run determinism (virtual SimTime only)"));
                                }
                            }
                        }
                    }
                    // Instant::now() / SystemTime::now() after an import.
                    if (ctx.ident_at(k, "Instant") || ctx.ident_at(k, "SystemTime"))
                        && ctx.punct_at(k + 1, ':')
                        && ctx.punct_at(k + 2, ':')
                        && ctx.ident_at(k + 3, "now")
                        && !(k >= 2 && ctx.punct_at(k - 1, ':') && ctx.punct_at(k - 2, ':'))
                    {
                        let name = ctx.tok(k).text.clone();
                        push(ctx, "D001", line, format!("wall-clock call `{name}::now()` breaks run determinism (use Engine::now)"));
                    }
                }
                "D002" => {
                    if ctx.ident_at(k, "HashMap") || ctx.ident_at(k, "HashSet") {
                        let name = ctx.tok(k).text.clone();
                        push(ctx, "D002", line, format!("`{name}` iteration order is nondeterministic and this crate feeds trace emission/scheduling — use BTreeMap/BTreeSet or a Vec"));
                    }
                }
                "D003" => {
                    for bad in ["thread_rng", "from_entropy", "OsRng"] {
                        if ctx.ident_at(k, bad) {
                            push(ctx, "D003", line, format!("ambient randomness `{bad}` breaks seeded reproducibility — use simcore::SimRng"));
                        }
                    }
                }
                "D004" => {
                    if ctx.ident_at(k, "thread")
                        && ctx.punct_at(k + 1, ':')
                        && ctx.punct_at(k + 2, ':')
                        && (ctx.ident_at(k + 3, "spawn") || ctx.ident_at(k + 3, "scope"))
                    {
                        let what = ctx.tok(k + 3).text.clone();
                        push(ctx, "D004", line, format!("`thread::{what}` outside the sanctioned fan-out site (bench::runner) — simulation code is single-threaded by contract"));
                    }
                }
                "I001" => {
                    if k >= 1
                        && ctx.punct_at(k - 1, '.')
                        && (ctx.ident_at(k, "unwrap") || ctx.ident_at(k, "expect"))
                        && ctx.punct_at(k + 1, '(')
                    {
                        let what = ctx.tok(k).text.clone();
                        push(ctx, "I001", line, format!("`.{what}()` on a protocol path — convert to a typed ProtoError/IoError (or waive with a justification)"));
                    }
                }
                "A001" => {
                    if ctx.ident_at(k, "HpbdCluster")
                        && ctx.punct_at(k + 1, ':')
                        && ctx.punct_at(k + 2, ':')
                        && (ctx.ident_at(k + 3, "build") || ctx.ident_at(k + 3, "build_on"))
                    {
                        let what = ctx.tok(k + 3).text.clone();
                        push(ctx, "A001", line, format!("`HpbdCluster::{what}` is the removed positional API — use ClusterBuilder"));
                    }
                }
                "A003" => {
                    if k >= 1
                        && ctx.punct_at(k - 1, '.')
                        && ctx.ident_at(k, "post_send")
                        && ctx.punct_at(k + 1, '(')
                    {
                        push(ctx, "A003", line, "raw `.post_send(...)` bypasses the typed WrChain builder — build a chain with Qp::chain() so doorbell accounting stays uniform".to_string());
                    }
                }
                "A004" => {
                    if a004_in_scope(&ctx.rel) && ctx.ident_at(k, "RequestQueue") {
                        push(ctx, "A004", line, "raw `RequestQueue` inside vmsim bypasses the SwapBackend boundary — submit pages through a SwapBackend (BlockBackend wraps the queue)".to_string());
                    }
                }
                _ => unreachable!("pattern rule list"),
            }
        }
    }

    // ---- I002: guarded tracer emits ----------------------------------------
    if enabled("I002") && rule_applies(&ctx.rel, &config.rule("I002")) {
        let findings = check_emit_guards(ctx);
        for (line, message) in findings {
            push(ctx, "I002", line, message);
        }
    }

    // ---- I003: forbid(unsafe_code) in crate roots ---------------------------
    if enabled("I003") && rule_applies(&ctx.rel, &config.rule("I003")) && is_crate_root(&ctx.rel) {
        let mut found = false;
        for k in 0..ctx.code.len() {
            if ctx.punct_at(k, '#')
                && ctx.punct_at(k + 1, '!')
                && ctx.punct_at(k + 2, '[')
                && ctx.ident_at(k + 3, "forbid")
                && ctx.punct_at(k + 4, '(')
                && ctx.ident_at(k + 5, "unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            push(
                ctx,
                "I003",
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    // ---- A002: pub fields on wire structs -----------------------------------
    if enabled("A002") && rule_applies(&ctx.rel, &config.rule("A002")) {
        let findings = check_pub_fields(ctx);
        for (line, message) in findings {
            push(ctx, "A002", line, message);
        }
    }

    // ---- linked rules (pass 2, need the workspace index) --------------------
    // These run BEFORE the waiver police so a justified waiver on a
    // linked finding is marked used and does not trip W001.
    if let Some(index) = index {
        if let Some(facts) = index.facts(&ctx.rel) {
            for info in RULES.iter().filter(|r| LINKED_RULES.contains(&r.id)) {
                let id = info.id;
                if !enabled(id) || !rule_applies(&ctx.rel, &config.rule(id)) {
                    continue;
                }
                for (line, message) in crate::linked::check_linked(id, facts, index) {
                    push(ctx, id, line, message);
                }
            }
        }
    }

    // ---- W000 / W001 / W002: waiver police ----------------------------------
    if only.is_none() || matches!(only, Some("W000") | Some("W001") | Some("W002")) {
        let mut meta: Vec<(&'static str, u32, String)> = Vec::new();
        for w in &ctx.waivers {
            let known = RULES.iter().any(|r| r.id == w.rule);
            if !known {
                // A typo'd rule id can never match a finding — W001's
                // "stale" message would misdiagnose it, so W002 owns it.
                if only.is_none() || only == Some("W002") {
                    meta.push((
                        "W002",
                        w.line,
                        format!(
                            "waiver names unknown rule `{}` — no such rule exists, so this allow can never match (typo?)",
                            w.rule
                        ),
                    ));
                }
            } else if w.justification.is_empty() && (only.is_none() || only == Some("W000")) {
                meta.push((
                    "W000",
                    w.line,
                    format!("waiver for {} carries no justification — write `// simlint: allow({}): <why>`", w.rule, w.rule),
                ));
            } else if !w.justification.is_empty() && !w.used && only.is_none() {
                meta.push((
                    "W001",
                    w.line,
                    format!(
                        "waiver for {} matched no finding — remove the stale allow",
                        w.rule
                    ),
                ));
            }
        }
        for (id, line, message) in meta {
            // Waiver meta-findings are themselves unwaivable.
            let policy = config.rule(id);
            out.push(Finding {
                rule: id,
                path: rel.clone(),
                line,
                message,
                waived: None,
                warning: policy.warn,
            });
        }
    }

    // Deduplicate (a token can match two patterns of the same rule).
    out.sort_by(|a, b| (a.rule, a.line, &a.message).cmp(&(b.rule, b.line, &b.message)));
    out.dedup_by(|a, b| {
        a.rule == b.rule && a.line == b.line && a.path == b.path && a.message == b.message
    });
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Scope-tracking walk for I002. Two families of hot-path emits, each with
/// its own guard predicate:
///
/// * `tracer().<emit>(...)` must be lexically inside an `if` whose
///   condition mentions `trace_enabled` (or a local bound from it, e.g.
///   `let on = e.trace_enabled(); if on { .. }`), or after an early-return
///   guard (`if !...trace_enabled() { return; }`) in the same function.
/// * `lifecycle().<emit>(...)` for the per-request emit methods (`begin`,
///   `mark_phys`, `note_fault`, `register_phys`, `unregister_phys`) must
///   likewise sit under `lifecycle_enabled`, or under a span-context
///   presence check (`if let Some(ctx) = ...` / `...ctx.is_some()`) —
///   a context only exists when the hub was enabled at `begin`. Cold
///   query/dump methods (`summary`, `dump_json`, ...) are exempt.
fn check_emit_guards(ctx: &FileCtx) -> Vec<(u32, String)> {
    /// Which enable flags a scope (or variable) proves are on. The two
    /// dimensions are independent: `trace_enabled()` says nothing about
    /// the lifecycle hub and vice versa.
    #[derive(Clone, Copy, Default, PartialEq)]
    struct Guards {
        trace: bool,
        lifecycle: bool,
    }
    impl Guards {
        fn or(self, other: Guards) -> Guards {
            Guards {
                trace: self.trace || other.trace,
                lifecycle: self.lifecycle || other.lifecycle,
            }
        }
        fn any(self) -> bool {
            self.trace || self.lifecycle
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Block,
        If { cond_guards: Guards },
        Fn,
    }
    struct Scope {
        guarded: Guards,
        kind: Kind,
        saw_return: bool,
        /// `let` bindings in this scope whose initialiser mentions
        /// `trace_enabled`/`lifecycle_enabled` (or another guard
        /// variable): naming one in an `if` condition counts as a guard
        /// for the same dimension(s).
        guard_vars: Vec<(String, Guards)>,
    }
    /// Guards carried by variable `name` here, if any. Bindings are
    /// function-local: the walk stops after the innermost `fn` scope.
    fn guard_var(stack: &[Scope], name: &str) -> Guards {
        for scope in stack.iter().rev() {
            if let Some((_, g)) = scope.guard_vars.iter().find(|(v, _)| v == name) {
                return *g;
            }
            if matches!(scope.kind, Kind::Fn) {
                break;
            }
        }
        Guards::default()
    }
    /// Lifecycle hub methods that run per request on the hot path; the
    /// cold query/dump surface is exempt from the guard requirement.
    const LIFECYCLE_EMITS: [&str; 5] = [
        "begin",
        "mark_phys",
        "note_fault",
        "register_phys",
        "unregister_phys",
    ];
    let mut out = Vec::new();
    let mut stack: Vec<Scope> = vec![Scope {
        guarded: Guards::default(),
        kind: Kind::Block,
        saw_return: false,
        guard_vars: Vec::new(),
    }];
    let mut pending: Option<Kind> = None;
    let n = ctx.code.len();
    for k in 0..n {
        let t = ctx.tok(k);
        if t.is_ident("if") {
            // Scan the condition up to the body `{` at paren depth 0.
            let mut guards = Guards::default();
            let mut saw_ctx = false;
            let mut saw_presence = false;
            let mut depth = 0i32;
            let mut j = k + 1;
            while j < n {
                let c = ctx.tok(j);
                if c.is_punct('(') || c.is_punct('[') {
                    depth += 1;
                } else if c.is_punct(')') || c.is_punct(']') {
                    depth -= 1;
                } else if c.is_punct('{') && depth == 0 {
                    break;
                } else if c.is_ident("trace_enabled") {
                    guards.trace = true;
                } else if c.is_ident("lifecycle_enabled") {
                    guards.lifecycle = true;
                } else if c.kind == TokKind::Ident {
                    guards = guards.or(guard_var(&stack, &c.text));
                    if c.text == "ctx" {
                        saw_ctx = true;
                    }
                    if c.text == "Some" || c.text == "is_some" {
                        saw_presence = true;
                    }
                    // `has_ctx()` helpers assert span-context presence by
                    // name: they exist only to wrap the Some-check.
                    if c.text == "has_ctx" {
                        saw_ctx = true;
                        saw_presence = true;
                    }
                }
                j += 1;
            }
            // `if let Some(ctx) = req.lifecycle()` / `if ....ctx.is_some()`:
            // a span context exists only when the hub was enabled, so
            // presence of `ctx` proves the lifecycle dimension.
            if saw_ctx && saw_presence {
                guards.lifecycle = true;
            }
            pending = Some(Kind::If {
                cond_guards: guards,
            });
        } else if t.is_ident("fn") {
            pending = Some(Kind::Fn);
        } else if t.is_ident("let") {
            // `let [mut] name [: ty] = <init>;` — record `name` as a guard
            // variable when the initialiser mentions trace_enabled /
            // lifecycle_enabled (or an existing guard variable). Pattern
            // bindings (`let Some(x)`) are skipped: the next token after
            // the name must be `=`/`:`.
            let mut j = k + 1;
            if j < n && ctx.tok(j).is_ident("mut") {
                j += 1;
            }
            if j < n
                && ctx.tok(j).kind == TokKind::Ident
                && (ctx.punct_at(j + 1, '=') || ctx.punct_at(j + 1, ':'))
            {
                let name = ctx.tok(j).text.clone();
                let mut depth = 0i32;
                let mut m = j + 1;
                let mut from_guard = Guards::default();
                while m < n {
                    let c = ctx.tok(m);
                    if c.is_punct('(') || c.is_punct('[') || c.is_punct('{') {
                        depth += 1;
                    } else if c.is_punct(')') || c.is_punct(']') || c.is_punct('}') {
                        depth -= 1;
                    } else if c.is_punct(';') && depth == 0 {
                        break;
                    } else if c.is_ident("trace_enabled") {
                        from_guard.trace = true;
                    } else if c.is_ident("lifecycle_enabled") {
                        from_guard.lifecycle = true;
                    } else if c.kind == TokKind::Ident {
                        from_guard = from_guard.or(guard_var(&stack, &c.text));
                    }
                    m += 1;
                }
                if from_guard.any() {
                    if let Some(top) = stack.last_mut() {
                        top.guard_vars.push((name, from_guard));
                    }
                }
            }
        } else if t.is_ident("return") {
            if let Some(top) = stack.last_mut() {
                top.saw_return = true;
            }
        } else if t.is_punct('{') {
            let kind = pending.take().unwrap_or(Kind::Block);
            let parent_guarded = stack.last().map(|s| s.guarded).unwrap_or_default();
            let guarded = match kind {
                Kind::Fn => Guards::default(),
                Kind::If { cond_guards } => parent_guarded.or(cond_guards),
                Kind::Block => parent_guarded,
            };
            stack.push(Scope {
                guarded,
                kind,
                saw_return: false,
                guard_vars: Vec::new(),
            });
        } else if t.is_punct('}') {
            if stack.len() > 1 {
                let done = stack.pop().expect("non-empty scope stack");
                if let Kind::If { cond_guards } = done.kind {
                    if cond_guards.any() && done.saw_return {
                        // `if !trace_enabled() { return; }`: the rest of the
                        // enclosing scope runs only when the emit is on.
                        if let Some(top) = stack.last_mut() {
                            top.guarded = top.guarded.or(cond_guards);
                        }
                    }
                }
            }
        } else if (t.is_ident("tracer") || t.is_ident("lifecycle"))
            && ctx.punct_at(k + 1, '(')
            && ctx.punct_at(k + 2, ')')
            && ctx.punct_at(k + 3, '.')
            && k + 4 < n
            && ctx.tok(k + 4).kind == TokKind::Ident
            && ctx.punct_at(k + 5, '(')
            && !(k >= 1 && ctx.punct_at(k - 1, ':'))
            && !(k >= 1 && ctx.tok(k - 1).is_ident("fn"))
        {
            if ctx.in_test_at(k) {
                continue;
            }
            let guarded = stack.last().map(|s| s.guarded).unwrap_or_default();
            let method = &ctx.tok(k + 4).text;
            if t.is_ident("tracer") && !guarded.trace {
                out.push((
                    t.line,
                    format!("tracer().{method}(...) emit is not guarded by trace_enabled() — hot paths must skip argument marshalling when tracing is off"),
                ));
            } else if t.is_ident("lifecycle")
                && LIFECYCLE_EMITS.contains(&method.as_str())
                && !guarded.lifecycle
            {
                out.push((
                    t.line,
                    format!("lifecycle().{method}(...) emit is not guarded by lifecycle_enabled() (or a span-context presence check) — hot paths must skip attribution marshalling when the flight recorder is off"),
                ));
            }
        }
    }
    out
}

/// A002 walk: `pub` fields inside `struct Name { ... }` / `struct Name(...)`
/// bodies.
fn check_pub_fields(ctx: &FileCtx) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    let mut k = 0usize;
    while k < n {
        if ctx.ident_at(k, "struct") && k + 1 < n && ctx.tok(k + 1).kind == TokKind::Ident {
            let name = ctx.tok(k + 1).text.clone();
            // Find the body opener, stopping at `;` (unit struct).
            let mut j = k + 2;
            let mut body: Option<(usize, char)> = None;
            while j < n {
                let t = ctx.tok(j);
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('{') {
                    body = Some((j, '}'));
                    break;
                }
                if t.is_punct('(') {
                    body = Some((j, ')'));
                    break;
                }
                j += 1;
            }
            if let Some((open, close_ch)) = body {
                let open_ch = if close_ch == '}' { '{' } else { '(' };
                let mut depth = 0i32;
                let mut m = open;
                while m < n {
                    let t = ctx.tok(m);
                    if t.is_punct(open_ch) {
                        depth += 1;
                    } else if t.is_punct(close_ch) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1 && t.is_ident("pub") {
                        out.push((
                            t.line,
                            format!("wire struct `{name}` exposes a pub field — keep wire layouts sealed behind constructors/accessors so checksummed invariants hold"),
                        ));
                    }
                    m += 1;
                }
                k = m + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, only: &str) -> Vec<Finding> {
        let mut ctx = FileCtx::new(rel, src);
        check_file(&mut ctx, &Config::builtin(), Some(only), None)
    }

    #[test]
    fn d001_catches_paths_imports_and_now() {
        let f = run("crates/x/src/a.rs", "use std::time::Instant;\n", "D001");
        assert_eq!(f.len(), 1);
        let f = run(
            "crates/x/src/a.rs",
            "use std::time::{Duration, SystemTime};\n",
            "D001",
        );
        assert_eq!(f.len(), 1);
        let f = run("crates/x/src/a.rs", "let t = Instant::now();\n", "D001");
        assert_eq!(f.len(), 1);
        // EventKind::Instant is not a time source.
        let f = run(
            "crates/x/src/a.rs",
            "match k { EventKind::Instant => 1 }\n",
            "D001",
        );
        assert!(f.is_empty());
        // Duration alone is fine.
        let f = run("crates/x/src/a.rs", "use std::time::Duration;\n", "D001");
        assert!(f.is_empty());
    }

    #[test]
    fn i001_skips_test_modules_and_unwrap_or() {
        let src = "fn f() { x.unwrap(); y.unwrap_or(0); }\n#[cfg(test)]\nmod tests { fn g() { z.unwrap(); } }\n";
        let f = run("crates/x/src/a.rs", src, "I001");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn i002_guard_forms() {
        let guarded = "fn f(&self) { if self.engine.trace_enabled() { self.engine.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert!(run("crates/x/src/a.rs", guarded, "I002").is_empty());
        let early = "fn f(&self) { if !engine.trace_enabled() { return; } engine.tracer().span(\"a\", \"b\", 0, 1, &[]); }";
        assert!(run("crates/x/src/a.rs", early, "I002").is_empty());
        let naked = "fn f(&self) { engine.tracer().instant(\"a\", \"b\", 0, &[]); }";
        assert_eq!(run("crates/x/src/a.rs", naked, "I002").len(), 1);
        // The guard does not leak across fn boundaries.
        let leak = "fn f() { if trace_enabled() { } }\nfn g() { engine.tracer().instant(\"a\", \"b\", 0, &[]); }";
        assert_eq!(run("crates/x/src/a.rs", leak, "I002").len(), 1);
    }

    #[test]
    fn i002_guard_variables() {
        // A local bound from trace_enabled() carries the guard.
        let var = "fn f() { let on = engine.trace_enabled(); if on { engine.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert!(run("crates/x/src/a.rs", var, "I002").is_empty());
        // Early-return through the variable guards the rest of the fn.
        let early = "fn f() { let on = e.trace_enabled(); if !on { return; } e.tracer().span(\"a\", \"b\", 0, 1, &[]); }";
        assert!(run("crates/x/src/a.rs", early, "I002").is_empty());
        // Aliasing propagates: a guard var copied into another binding.
        let alias = "fn f() { let on = e.trace_enabled(); let go = on; if go { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert!(run("crates/x/src/a.rs", alias, "I002").is_empty());
        // An unrelated boolean does NOT guard.
        let unrelated = "fn f() { let other = e.ready(); if other { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert_eq!(run("crates/x/src/a.rs", unrelated, "I002").len(), 1);
        // Guard variables are function-local.
        let cross = "fn f() { let on = e.trace_enabled(); }\nfn g(on: bool) { if on { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert_eq!(run("crates/x/src/a.rs", cross, "I002").len(), 1);
        // `let mut` and a type annotation still register the binding.
        let muts = "fn f() { let mut on: bool = e.trace_enabled(); if on { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert!(run("crates/x/src/a.rs", muts, "I002").is_empty());
    }

    #[test]
    fn i002_lifecycle_emits() {
        // The enabled() guard covers direct hub emits.
        let guarded = "fn f() { if e.lifecycle_enabled() { e.lifecycle().mark_phys(1, MarkKind::Posted, 0); } }";
        assert!(run("crates/x/src/a.rs", guarded, "I002").is_empty());
        // A span-context presence check proves the hub was enabled.
        let presence = "fn f() { if let Some(ctx) = &phys.parent.ctx { e.lifecycle().register_phys(1, ctx, 0, 0); } }";
        assert!(run("crates/x/src/a.rs", presence, "I002").is_empty());
        let is_some =
            "fn f() { if phys.parent.ctx.is_some() { e.lifecycle().unregister_phys(1); } }";
        assert!(run("crates/x/src/a.rs", is_some, "I002").is_empty());
        // A has_ctx() presence helper proves the same thing.
        let helper = "fn f() { if phys.has_ctx() { e.lifecycle().unregister_phys(1); } }";
        assert!(run("crates/x/src/a.rs", helper, "I002").is_empty());
        // Naked hot-path emits are findings.
        let naked = "fn f() { e.lifecycle().note_fault(true); }";
        assert_eq!(run("crates/x/src/a.rs", naked, "I002").len(), 1);
        // The two guard dimensions are independent: trace_enabled() does
        // not license a lifecycle emit, nor the other way around.
        let wrong = "fn f() { if e.trace_enabled() { e.lifecycle().begin(d, false, 0, 0); } }";
        assert_eq!(run("crates/x/src/a.rs", wrong, "I002").len(), 1);
        let wrong2 =
            "fn f() { if e.lifecycle_enabled() { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert_eq!(run("crates/x/src/a.rs", wrong2, "I002").len(), 1);
        // Cold query/dump methods need no guard.
        let cold =
            "fn f() { let s = e.lifecycle().dump_json(\"hpbd0\"); e.lifecycle().summary(); }";
        assert!(run("crates/x/src/a.rs", cold, "I002").is_empty());
        // A guard variable bound from lifecycle_enabled() carries only
        // the lifecycle dimension.
        let var =
            "fn f() { let on = e.lifecycle_enabled(); if on { e.lifecycle().note_fault(false); } }";
        assert!(run("crates/x/src/a.rs", var, "I002").is_empty());
        let varwrong = "fn f() { let on = e.lifecycle_enabled(); if on { e.tracer().instant(\"a\", \"b\", 0, &[]); } }";
        assert_eq!(run("crates/x/src/a.rs", varwrong, "I002").len(), 1);
    }

    #[test]
    fn i003_requires_forbid_in_crate_roots() {
        assert_eq!(run("crates/x/src/lib.rs", "//! docs\n", "I003").len(), 1);
        assert!(run("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n", "I003").is_empty());
        // Non-roots are exempt.
        assert!(run("crates/x/src/other.rs", "//! docs\n", "I003").is_empty());
    }

    #[test]
    fn a002_pub_fields_and_waivers() {
        let src = "pub struct Wire { pub a: u32, b: u64 }\n";
        let f = run("crates/x/src/proto.rs", src, "A002");
        assert_eq!(f.len(), 1);
        let waived = "pub struct Wire {\n    // simlint: allow(A002): stats snapshot, not a wire layout\n    pub a: u32,\n}\n";
        let f = run("crates/x/src/proto.rs", waived, "A002");
        assert_eq!(f.len(), 1);
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn w000_flags_missing_justification() {
        let src = "// simlint: allow(I001)\nfn f() { x.unwrap(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None, None);
        assert!(f.iter().any(|f| f.rule == "W000"));
        // ...and the unjustified waiver does not actually waive.
        assert!(f.iter().any(|f| f.rule == "I001" && f.waived.is_none()));
    }

    #[test]
    fn w001_flags_stale_waivers() {
        let src = "// simlint: allow(I001): nothing here needs it\nfn f() { ok(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None, None);
        assert!(f.iter().any(|f| f.rule == "W001"));
    }

    #[test]
    fn w002_flags_unknown_rule_ids() {
        // The classic typo: I0O1 for I001. Justified or not, it can
        // never match — W002, not W000/W001.
        let src = "// simlint: allow(I0O1): looks plausible\nfn f() { x.unwrap(); }\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), None, None);
        assert!(f.iter().any(|f| f.rule == "W002"), "{f:?}");
        assert!(!f.iter().any(|f| f.rule == "W000" || f.rule == "W001"));
    }

    #[test]
    fn linked_rules_run_only_with_an_index() {
        use crate::index::WorkspaceIndex;
        let src = "use std::time::Duration;\nfn f(e: &Engine) { e.schedule_in(1); }\n";
        // Without an index the linked pass is skipped entirely.
        let f = run("crates/x/src/a.rs", src, "D005");
        assert!(f.is_empty());
        // With one, the same file fires (its own crate has clock sites).
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let index = WorkspaceIndex::build(std::slice::from_ref(&ctx));
        let mut ctx = ctx;
        let f = check_file(&mut ctx, &Config::builtin(), Some("D005"), Some(&index));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn linked_findings_are_waivable_without_tripping_w001() {
        use crate::index::WorkspaceIndex;
        let src = "fn f(e: &Engine) {\n    // simlint: allow(D005): interop with a host API that wants Duration\n    let d = std::time::Duration::from_millis(1);\n}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let index = WorkspaceIndex::build(std::slice::from_ref(&ctx));
        let mut ctx = ctx;
        let f = check_file(&mut ctx, &Config::builtin(), None, Some(&index));
        let d005: Vec<_> = f.iter().filter(|f| f.rule == "D005").collect();
        assert_eq!(d005.len(), 1);
        assert!(d005[0].waived.is_some());
        assert!(!f.iter().any(|f| f.rule == "W001"), "{f:?}");
    }

    #[test]
    fn trailing_same_line_waiver() {
        let src = "fn f() { x.unwrap(); } // simlint: allow(I001): boot-time invariant\n";
        let mut ctx = FileCtx::new("crates/x/src/a.rs", src);
        let f = check_file(&mut ctx, &Config::builtin(), Some("I001"), None);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived.is_some());
    }
}
