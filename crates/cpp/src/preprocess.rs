//! The preprocessor driver: directives, includes, and `.i` generation.

use crate::cond::CondStack;
use crate::error::{CppError, CppErrorKind};
use crate::expand::Expander;
use crate::expr::eval_if_expr;
use crate::lexer::lex;
use crate::lines::{logical_lines, LogicalLine};
use crate::macros::{str_hash, MacroDef, MacroTable};
use crate::memo::{IncludeEffect, IncludeKey, IncludeMemo, MacroEvent};
use crate::token::{render_into, render_tokens, Token, TokenKind};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Maximum include nesting before [`CppErrorKind::IncludeDepthExceeded`].
const MAX_INCLUDE_DEPTH: usize = 64;

/// Supplies the content of `#include` targets.
///
/// Implementations resolve a target against the including file (for quoted
/// includes) and a set of search paths (for angle includes), mirroring
/// `-I` handling.
pub trait IncludeResolver {
    /// Resolve `target`; `quoted` distinguishes `"x.h"` from `<x.h>`,
    /// `including_file` is the canonical path of the file containing the
    /// directive. Returns the canonical path and content; the content is
    /// a shared handle so resolvers over long-lived trees hand out
    /// pointers instead of copying file text per inclusion.
    fn resolve(
        &self,
        target: &str,
        quoted: bool,
        including_file: &str,
    ) -> Option<(String, Arc<str>)>;
}

/// An [`IncludeResolver`] over an in-memory file map — the whole workspace
/// keeps source trees in memory (the paper ran its evaluation from a tmpfs
/// for the same reason).
#[derive(Debug, Clone, Default)]
pub struct MapResolver {
    files: BTreeMap<String, Arc<str>>,
    search_paths: Vec<String>,
}

impl MapResolver {
    /// Empty resolver with no files and no search paths.
    pub fn new() -> Self {
        MapResolver::default()
    }

    /// Add (or replace) a file.
    pub fn add_file(&mut self, path: impl Into<String>, content: impl Into<String>) {
        let content: String = content.into();
        self.files
            .insert(normalize_path(path.into()), content.into());
    }

    /// Append an include search path (like `-I`).
    pub fn add_search_path(&mut self, path: impl Into<String>) {
        self.search_paths.push(path.into());
    }

    /// Borrow a file's content by canonical path.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.files
            .get(&normalize_path(path.to_string()))
            .map(|c| &**c)
    }
}

impl IncludeResolver for MapResolver {
    fn resolve(
        &self,
        target: &str,
        quoted: bool,
        including_file: &str,
    ) -> Option<(String, Arc<str>)> {
        resolve_include(target, quoted, including_file, &self.search_paths, |c| {
            self.files.get(c).map(Arc::clone)
        })
    }
}

/// Resolve an `#include` target in the one candidate order every resolver
/// in the workspace shares (the build engine's, the object cache's
/// include fingerprint, the reachability analyzer's and [`MapResolver`]):
/// a quoted target first relative to the including file's directory, then
/// under each search path in order (`-I`), then as a bare path. Each
/// candidate has its `.` and `..` segments collapsed before `probe` sees
/// it, so `#include "../x.h"` names the file it means; a candidate
/// without such segments is probed as built, with no further allocation.
///
/// Returns the first candidate `probe` accepts, together with what
/// `probe` returned for it.
pub fn resolve_include<S: AsRef<str>, T>(
    target: &str,
    quoted: bool,
    including_file: &str,
    search_paths: &[S],
    mut probe: impl FnMut(&str) -> Option<T>,
) -> Option<(String, T)> {
    let mut attempt = |candidate: String| {
        let candidate = normalize_path(candidate);
        probe(&candidate).map(|found| (candidate, found))
    };
    if quoted {
        let candidate = match including_file.rsplit_once('/') {
            Some((dir, _)) if !dir.is_empty() => format!("{dir}/{target}"),
            _ => target.to_string(),
        };
        if let Some(hit) = attempt(candidate) {
            return Some(hit);
        }
    }
    for sp in search_paths {
        if let Some(hit) = attempt(format!("{}/{target}", sp.as_ref())) {
            return Some(hit);
        }
    }
    attempt(target.to_string())
}

/// First identifier of a directive operand (`#ifdef NAME`, `#undef NAME`).
fn first_ident(rest: &str) -> Option<String> {
    let t = rest.trim_start();
    let id: String = t
        .chars()
        .take_while(|c| *c == '_' || c.is_ascii_alphanumeric())
        .collect();
    if id.is_empty() || id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(id)
    }
}

/// Normalize `a/./b/../c` to `a/c` (empty segments drop too). A path
/// with no `.`, `..` or empty segment comes back as it went in.
fn normalize_path(path: String) -> String {
    if !path.split('/').any(|seg| matches!(seg, "" | "." | "..")) {
        return path;
    }
    let mut parts: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            s => parts.push(s),
        }
    }
    parts.join("/")
}

/// Everything produced by one preprocessing run.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    /// The `.i` text: expanded source with `# line "file"` markers.
    pub text: String,
    /// Diagnostics (empty for a clean run).
    pub errors: Vec<CppError>,
    /// Names of macros that were expanded at least once.
    pub expanded_macros: HashSet<String>,
    /// Canonical paths of every file included, in first-inclusion order.
    pub includes: Vec<String>,
    /// The macro table as it stood at end of the translation unit.
    pub macros: MacroTable,
}

impl PreprocessOutput {
    /// True when preprocessing raised no diagnostics.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The preprocessor: configure predefined macros and search behaviour, then
/// run [`Preprocessor::preprocess`] per translation unit.
#[derive(Clone)]
pub struct Preprocessor<R> {
    resolver: R,
    predefined: MacroTable,
    memo: Option<Arc<dyn IncludeMemo>>,
}

impl<R: std::fmt::Debug> std::fmt::Debug for Preprocessor<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Preprocessor")
            .field("resolver", &self.resolver)
            .field("predefined", &self.predefined)
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl<R: IncludeResolver> Preprocessor<R> {
    /// A preprocessor reading includes from `resolver`.
    pub fn new(resolver: R) -> Self {
        Preprocessor {
            resolver,
            predefined: MacroTable::new(),
            memo: None,
        }
    }

    /// Attach a header-inclusion memo (see [`crate::memo`]). Replayed
    /// inclusions leave the output and all preprocessor state
    /// byte-identical to live processing; only host time changes.
    pub fn set_memo(&mut self, memo: Arc<dyn IncludeMemo>) {
        self.memo = Some(memo);
    }

    /// Replace the whole predefined-macro table at once. A table built
    /// ahead of time and [`MacroTable::freeze`]d (e.g. one per build
    /// configuration) keeps its definitions in a shared base, so
    /// installing it, and the per-run copy [`Preprocessor::preprocess`]
    /// takes, cost a refcount bump instead of re-`define`-ing or
    /// deep-copying every macro per translation unit.
    pub fn set_predefined(&mut self, table: MacroTable) {
        self.predefined = table;
    }

    /// Predefine an object-like macro (like `-D name=body`).
    pub fn define_object(&mut self, name: &str, body: &str) {
        self.predefined.define(MacroDef::object(name, body));
    }

    /// Access the resolver.
    pub fn resolver(&self) -> &R {
        &self.resolver
    }

    /// Preprocess one translation unit.
    pub fn preprocess(&self, path: &str, content: &str) -> PreprocessOutput {
        let mut st = State {
            resolver: &self.resolver,
            memo: self.memo.as_deref(),
            table: self.predefined.clone(),
            errors: Vec::new(),
            expanded: HashSet::new(),
            includes: Vec::new(),
            pragma_once: HashSet::new(),
            pragma_fp: 0,
            recording: false,
            rec_macros: Vec::new(),
            rec_expanded: Vec::new(),
            rec_includes: Vec::new(),
            rec_pragma: Vec::new(),
            rec_first_flush: None,
            out: String::new(),
            out_file: String::new(),
            out_line: 0,
        };
        st.process_file(path, content, 0);
        let State {
            table,
            errors,
            expanded,
            includes,
            out,
            ..
        } = st;
        PreprocessOutput {
            text: out,
            errors,
            expanded_macros: expanded,
            includes,
            macros: table,
        }
    }
}

struct State<'r, R> {
    resolver: &'r R,
    memo: Option<&'r dyn IncludeMemo>,
    table: MacroTable,
    errors: Vec<CppError>,
    expanded: HashSet<String>,
    includes: Vec<String>,
    pragma_once: HashSet<String>,
    /// Multiset fingerprint of `pragma_once` (memo key component).
    pragma_fp: u64,
    /// An include-effect recording is active (at most one at a time; the
    /// outermost memoizable inclusion records, nested ones run live or
    /// replay into the outer recording).
    recording: bool,
    rec_macros: Vec<MacroEvent>,
    rec_expanded: Vec<String>,
    rec_includes: Vec<String>,
    rec_pragma: Vec<String>,
    /// `(path, first_line, marker_emitted)` of the first flush inside the
    /// active recording — the only output decision that depends on the
    /// caller's state (see [`crate::memo`]).
    rec_first_flush: Option<(String, u32, bool)>,
    out: String,
    /// File the last emitted marker named.
    out_file: String,
    /// Source line of the last emitted output line.
    out_line: u32,
}

impl<'r, R: IncludeResolver> State<'r, R> {
    fn error(&mut self, file: &str, line: u32, kind: CppErrorKind) {
        self.errors.push(CppError {
            file: file.to_string(),
            line,
            kind,
        });
    }

    fn process_file(&mut self, path: &str, content: &str, depth: usize) {
        if depth > MAX_INCLUDE_DEPTH {
            self.error(path, 0, CppErrorKind::IncludeDepthExceeded);
            return;
        }
        let lls = logical_lines(content);
        let mut cond = CondStack::new();
        // Tokens of consecutive active text lines, flushed at directives.
        let mut run: Vec<Token> = Vec::new();

        for ll in &lls {
            if !ll.is_directive() {
                if cond.active() && !ll.is_blank() {
                    let mut toks = lex(&ll.text, ll.first_line);
                    self.replace_builtins(&mut toks, path);
                    run.extend(toks);
                }
                continue;
            }
            // Directive: flush the pending run first.
            self.flush(path, &mut run);
            let (name, rest) = ll.directive().expect("is_directive checked");
            self.handle_directive(path, ll, name, rest, &mut cond, depth);
        }
        self.flush(path, &mut run);
        if cond.depth() > 0 {
            let line = cond.innermost_open_line().unwrap_or(0);
            self.error(path, line, CppErrorKind::UnterminatedConditional);
        }
    }

    fn handle_directive(
        &mut self,
        path: &str,
        ll: &LogicalLine,
        name: &str,
        rest: &str,
        cond: &mut CondStack,
        depth: usize,
    ) {
        let line = ll.first_line;
        match name {
            "if" => {
                let value = if cond.active() {
                    self.eval_expr(path, line, rest)
                } else {
                    false
                };
                cond.push(value, line);
            }
            "ifdef" | "ifndef" => {
                let id = first_ident(rest);
                match id {
                    Some(id) => {
                        let defined = self.table.is_defined(&id);
                        let taken = if name == "ifdef" { defined } else { !defined };
                        cond.push(taken, line);
                    }
                    None => {
                        self.error(
                            path,
                            line,
                            CppErrorKind::MalformedDirective(format!("#{name} without identifier")),
                        );
                        cond.push(false, line);
                    }
                }
            }
            "elif" => {
                let value = cond.elif_needs_eval() && self.eval_expr(path, line, rest);
                if !cond.elif(value) {
                    self.error(
                        path,
                        line,
                        CppErrorKind::MalformedDirective("#elif without matching #if".into()),
                    );
                }
            }
            "else" => {
                if !cond.toggle_else() {
                    self.error(
                        path,
                        line,
                        CppErrorKind::MalformedDirective("#else without matching #if".into()),
                    );
                }
            }
            "endif" => {
                if !cond.pop() {
                    self.error(
                        path,
                        line,
                        CppErrorKind::MalformedDirective("#endif without matching #if".into()),
                    );
                }
            }
            _ if !cond.active() => {
                // All other directives are inert in dead regions.
            }
            "define" => self.handle_define(path, line, rest),
            "undef" => match first_ident(rest) {
                Some(id) => self.undef_macro(&id),
                None => self.error(
                    path,
                    line,
                    CppErrorKind::MalformedDirective("#undef without identifier".into()),
                ),
            },
            "include" => self.handle_include(path, line, rest, depth),
            "error" => self.error(path, line, CppErrorKind::UserError(rest.to_string())),
            "warning" | "pragma" | "line" | "ident" => {
                if name == "pragma" && rest.trim() == "once" {
                    self.pragma_insert(path);
                }
            }
            other => self.error(
                path,
                line,
                CppErrorKind::MalformedDirective(format!("unknown directive #{other}")),
            ),
        }
    }

    fn eval_expr(&mut self, path: &str, line: u32, rest: &str) -> bool {
        let toks = lex(rest, line);
        match eval_if_expr(&toks, &self.table) {
            Ok(v) => v != 0,
            Err(e) => {
                self.error(path, line, CppErrorKind::BadExpression(e));
                false
            }
        }
    }

    fn handle_define(&mut self, path: &str, line: u32, rest: &str) {
        // Name must start immediately; parameters only when '(' is adjacent.
        // The name is ASCII, so `name_len` is a char boundary of `rest`.
        let name_len = rest
            .bytes()
            .take_while(|b| *b == b'_' || b.is_ascii_alphanumeric())
            .count();
        if name_len == 0 {
            self.error(
                path,
                line,
                CppErrorKind::MalformedDirective("#define without name".into()),
            );
            return;
        }
        let (name, after_name) = rest.split_at(name_len);
        let (params, variadic, body) = if let Some(list) = after_name.strip_prefix('(') {
            // Function-like: parse parameter list.
            let Some((params_str, body)) = list.split_once(')') else {
                self.error(
                    path,
                    line,
                    CppErrorKind::MalformedDirective(format!("#define {name}( without )")),
                );
                return;
            };
            let mut params = Vec::new();
            let mut variadic = false;
            for p in params_str.split(',') {
                let p = p.trim();
                if p.is_empty() {
                    continue;
                }
                if p == "..." {
                    variadic = true;
                } else {
                    params.push(p.trim_end_matches("...").trim().to_string());
                    if p.ends_with("...") {
                        variadic = true;
                    }
                }
            }
            (Some(params), variadic, body)
        } else {
            (None, false, after_name)
        };
        let body = lex(body.trim_start(), line);
        self.define_macro(Arc::new(MacroDef {
            name: name.to_string(),
            params,
            variadic,
            body,
        }));
    }

    fn handle_include(&mut self, path: &str, line: u32, rest: &str, depth: usize) {
        let rest = rest.trim();
        // Computed includes: expand macros first when the target is not a
        // literal form.
        let expanded_rest;
        let target_text = if rest.starts_with('"') || rest.starts_with('<') {
            rest
        } else {
            let mut ex = Expander::new(&self.table);
            let toks = ex.expand(lex(rest, line));
            let names = std::mem::take(&mut ex.expanded_names);
            drop(ex);
            for name in &names {
                self.note_expanded(name);
            }
            expanded_rest = render_tokens(&toks);
            expanded_rest.trim()
        };
        let (target, quoted) = if let Some(t) = target_text.strip_prefix('"') {
            match t.find('"') {
                Some(end) => (t[..end].to_string(), true),
                None => {
                    self.error(
                        path,
                        line,
                        CppErrorKind::MalformedDirective("unterminated include target".into()),
                    );
                    return;
                }
            }
        } else if let Some(t) = target_text.strip_prefix('<') {
            match t.find('>') {
                Some(end) => (t[..end].to_string(), false),
                None => {
                    self.error(
                        path,
                        line,
                        CppErrorKind::MalformedDirective("unterminated include target".into()),
                    );
                    return;
                }
            }
        } else {
            self.error(
                path,
                line,
                CppErrorKind::MalformedDirective(format!("bad include target {target_text:?}")),
            );
            return;
        };
        match self.resolver.resolve(&target, quoted, path) {
            Some((canon, content)) => {
                if self.pragma_once.contains(&canon) {
                    return;
                }
                self.note_include(&canon);
                self.memo_or_process(&canon, &content, depth);
            }
            None => self.error(path, line, CppErrorKind::IncludeNotFound(target)),
        }
    }

    /// Process an inclusion through the memo when one is attached and the
    /// header's closure is fingerprintable: replay a recorded effect,
    /// record a fresh one, or fall through to live processing.
    fn memo_or_process(&mut self, canon: &str, content: &str, depth: usize) {
        let inc_depth = depth + 1;
        if let Some(memo) = self.memo {
            if let Some(closure_fp) = memo.closure_fp(canon) {
                let key = IncludeKey {
                    path: canon.to_string(),
                    closure_fp,
                    macro_fp: self.table.fingerprint(),
                    pragma_fp: self.pragma_fp,
                    depth: inc_depth as u32,
                };
                if let Some(effect) = memo.lookup(&key) {
                    if self.marker_decision_matches(&effect) {
                        self.replay(&effect);
                        return;
                    }
                } else if !self.recording {
                    self.record(memo, key, canon, content, inc_depth);
                    return;
                }
            }
        }
        self.process_file(canon, content, inc_depth);
    }

    /// A recorded effect's opening bytes are valid here iff the current
    /// output state would make the same first-marker decision the
    /// recording saw (recordings whose first flush skipped its marker are
    /// never stored, so the decision to match is always "emit").
    fn marker_decision_matches(&self, effect: &IncludeEffect) -> bool {
        match &effect.first_flush {
            None => true,
            Some((p, l)) => self.out_file != *p || *l != self.out_line + 1,
        }
    }

    /// Live-process `canon` while capturing its effect, then store the
    /// recording under `key`.
    fn record(
        &mut self,
        memo: &dyn IncludeMemo,
        key: IncludeKey,
        canon: &str,
        content: &str,
        inc_depth: usize,
    ) {
        self.recording = true;
        self.rec_first_flush = None;
        let out_start = self.out.len();
        let err_start = self.errors.len();
        self.process_file(canon, content, inc_depth);
        self.recording = false;
        let expanded = std::mem::take(&mut self.rec_expanded);
        let includes = std::mem::take(&mut self.rec_includes);
        let pragma_adds = std::mem::take(&mut self.rec_pragma);
        let macro_events = std::mem::take(&mut self.rec_macros);
        let first_flush = match self.rec_first_flush.take() {
            None => None,
            Some((p, l, true)) => Some((p, l)),
            // The first flush skipped its marker, so the chunk's opening
            // bytes depend on the caller's output state in a way replay
            // cannot re-create; drop the recording.
            Some((_, _, false)) => return,
        };
        let chunk = self.out[out_start..].to_string();
        let effect = IncludeEffect {
            exit_marker: (!chunk.is_empty()).then(|| (self.out_file.clone(), self.out_line)),
            chunk,
            errors: self.errors[err_start..].to_vec(),
            expanded,
            includes,
            pragma_adds,
            macro_events,
            first_flush,
        };
        memo.insert(key, Arc::new(effect));
    }

    /// Apply a recorded effect, leaving every piece of state byte-for-byte
    /// as live processing would have. Runs through the recording-aware
    /// helpers so a replay inside an outer recording is captured by it.
    fn replay(&mut self, effect: &IncludeEffect) {
        if self.recording && self.rec_first_flush.is_none() {
            if let Some((p, l)) = &effect.first_flush {
                self.rec_first_flush = Some((p.clone(), *l, true));
            }
        }
        self.out.push_str(&effect.chunk);
        if let Some((file, line)) = &effect.exit_marker {
            self.out_file.clone_from(file);
            self.out_line = *line;
        }
        // Plain pushes: an outer recording captures errors by index range.
        self.errors.extend(effect.errors.iter().cloned());
        for name in &effect.expanded {
            self.note_expanded(name);
        }
        for inc in &effect.includes {
            self.note_include(inc);
        }
        for p in &effect.pragma_adds {
            self.pragma_insert(p);
        }
        for ev in &effect.macro_events {
            match ev {
                MacroEvent::Define(def) => self.define_macro(def.clone()),
                MacroEvent::Undef(name) => self.undef_macro(name),
            }
        }
    }

    /// Record a first inclusion, in translation-unit order.
    fn note_include(&mut self, canon: &str) {
        if self.recording && !self.rec_includes.iter().any(|p| p == canon) {
            self.rec_includes.push(canon.to_string());
        }
        if !self.includes.iter().any(|p| p == canon) {
            self.includes.push(canon.to_string());
        }
    }

    /// Record an expanded-macro name.
    fn note_expanded(&mut self, name: &str) {
        if self.recording && !self.rec_expanded.iter().any(|n| n == name) {
            self.rec_expanded.push(name.to_string());
        }
        if !self.expanded.contains(name) {
            self.expanded.insert(name.to_string());
        }
    }

    /// Add to the pragma-once set, maintaining its fingerprint.
    fn pragma_insert(&mut self, path: &str) {
        if self.pragma_once.insert(path.to_string()) {
            self.pragma_fp = self.pragma_fp.wrapping_add(str_hash(path));
            if self.recording {
                self.rec_pragma.push(path.to_string());
            }
        }
    }

    /// Define a macro, logging the event when recording.
    fn define_macro(&mut self, def: Arc<MacroDef>) {
        if self.recording {
            self.rec_macros.push(MacroEvent::Define(Arc::clone(&def)));
        }
        self.table.define_shared(def);
    }

    /// Undefine a macro, logging the event when recording.
    fn undef_macro(&mut self, name: &str) {
        if self.recording {
            self.rec_macros.push(MacroEvent::Undef(name.to_string()));
        }
        self.table.undef(name);
    }

    /// Replace `__FILE__` and `__LINE__` before expansion.
    fn replace_builtins(&self, tokens: &mut [Token], path: &str) {
        for t in tokens.iter_mut() {
            if t.kind == TokenKind::Ident {
                if t.text == "__FILE__" {
                    t.kind = TokenKind::Str;
                    t.text = format!("\"{path}\"");
                } else if t.text == "__LINE__" {
                    t.kind = TokenKind::Number;
                    t.text = t.line.to_string();
                }
            }
        }
    }

    /// Expand and emit a run of text-line tokens.
    fn flush(&mut self, path: &str, run: &mut Vec<Token>) {
        if run.is_empty() {
            return;
        }
        let tokens = std::mem::take(run);
        let first_line = tokens.first().map(|t| t.line).unwrap_or(0);
        let mut ex = Expander::new(&self.table);
        let expanded = ex.expand(tokens);
        let names = std::mem::take(&mut ex.expanded_names);
        let kinds = std::mem::take(&mut ex.errors);
        for name in &names {
            self.note_expanded(name);
        }
        for kind in kinds {
            self.error(path, first_line, kind);
        }
        // Re-sync line markers like gcc -E.
        let emit_marker = self.out_file != path || first_line != self.out_line + 1;
        if self.recording && self.rec_first_flush.is_none() {
            self.rec_first_flush = Some((path.to_string(), first_line, emit_marker));
        }
        if emit_marker {
            writeln!(self.out, "# {first_line} \"{path}\"").expect("writing to a String");
            self.out_file = path.to_string();
        }
        // Render straight into the output, breaking output lines where
        // source lines advanced.
        let mut current_line = first_line;
        let mut line_start = 0;
        for (i, t) in expanded.iter().enumerate() {
            if t.line > current_line {
                self.emit_line(&expanded[line_start..i]);
                // Blank filler lines keep .i line numbers readable.
                for _ in current_line + 1..t.line {
                    self.out.push('\n');
                }
                current_line = t.line;
                line_start = i;
            }
        }
        if !expanded.is_empty() {
            self.emit_line(&expanded[line_start..]);
        }
        self.out_line = current_line;
    }

    /// Append one rendered output line, without trailing whitespace.
    fn emit_line(&mut self, tokens: &[Token]) {
        let start = self.out.len();
        render_into(&mut self.out, tokens);
        let kept = self.out[start..].trim_end().len();
        self.out.truncate(start + kept);
        self.out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> PreprocessOutput {
        Preprocessor::new(MapResolver::new()).preprocess("t.c", src)
    }

    #[test]
    fn plain_code_passes_through() {
        let out = pp("int main(void)\n{\nreturn 0;\n}\n");
        assert!(out.is_clean());
        assert!(out.text.contains("int main(void)"));
        assert!(out.text.contains("return 0;"));
    }

    #[test]
    fn object_macro_definition_and_use() {
        let out = pp("#define N 4\nint a[N];\n");
        assert!(out.is_clean());
        assert!(out.text.contains("int a[4];"));
        assert!(!out.text.contains("#define"));
        assert!(out.expanded_macros.contains("N"));
    }

    #[test]
    fn ifdef_excludes_dead_code() {
        let out = pp("#ifdef NOPE\nint dead;\n#else\nint live;\n#endif\n");
        assert!(out.is_clean());
        assert!(!out.text.contains("dead"));
        assert!(out.text.contains("live"));
    }

    #[test]
    fn if_zero_excludes_block() {
        let out = pp("#if 0\nint dead;\n#endif\nint live;\n");
        assert!(!out.text.contains("dead"));
        assert!(out.text.contains("live"));
    }

    #[test]
    fn elif_chain() {
        let src = "#if defined(A)\nint a;\n#elif defined(B)\nint b;\n#else\nint c;\n#endif\n";
        let mut p = Preprocessor::new(MapResolver::new());
        p.define_object("B", "1");
        let out = p.preprocess("t.c", src);
        assert!(out.text.contains("int b;"));
        assert!(!out.text.contains("int a;"));
        assert!(!out.text.contains("int c;"));
    }

    #[test]
    fn nested_conditionals() {
        let mut p = Preprocessor::new(MapResolver::new());
        p.define_object("OUTER", "1");
        let out = p.preprocess(
            "t.c",
            "#ifdef OUTER\n#ifdef INNER\nint both;\n#else\nint outer_only;\n#endif\n#endif\n",
        );
        assert!(out.text.contains("outer_only"));
        assert!(!out.text.contains("both"));
    }

    #[test]
    fn include_resolution_quoted_and_angle() {
        let mut r = MapResolver::new();
        r.add_file("include/linux/kernel.h", "#define KERN 1\n");
        r.add_file("drivers/net/local.h", "int local_decl;\n");
        r.add_file(
            "drivers/net/a.c",
            "#include <linux/kernel.h>\n#include \"local.h\"\nint x = KERN;\n",
        );
        r.add_search_path("include");
        let content = r.get("drivers/net/a.c").unwrap().to_string();
        let p = Preprocessor::new(r);
        let out = p.preprocess("drivers/net/a.c", &content);
        assert!(out.is_clean(), "{:?}", out.errors);
        assert!(out.text.contains("int local_decl;"));
        assert!(out.text.contains("int x = 1;"));
        assert_eq!(
            out.includes,
            vec![
                "include/linux/kernel.h".to_string(),
                "drivers/net/local.h".to_string()
            ]
        );
    }

    #[test]
    fn missing_include_is_diagnosed() {
        let out = pp("#include <no/such.h>\nint x;\n");
        assert_eq!(out.errors.len(), 1);
        assert!(matches!(
            out.errors[0].kind,
            CppErrorKind::IncludeNotFound(_)
        ));
        // Processing continues past the failure.
        assert!(out.text.contains("int x;"));
    }

    #[test]
    fn include_guard_prevents_reinclusion() {
        let mut r = MapResolver::new();
        r.add_file("h/g.h", "#ifndef G_H\n#define G_H\nint g_decl;\n#endif\n");
        r.add_search_path("h");
        let p = Preprocessor::new(r);
        let out = p.preprocess("t.c", "#include <g.h>\n#include <g.h>\n");
        assert!(out.is_clean());
        assert_eq!(out.text.matches("int g_decl;").count(), 1);
    }

    #[test]
    fn pragma_once_respected() {
        let mut r = MapResolver::new();
        r.add_file("h/p.h", "#pragma once\nint p_decl;\n");
        r.add_search_path("h");
        let p = Preprocessor::new(r);
        let out = p.preprocess("t.c", "#include <p.h>\n#include <p.h>\n");
        assert_eq!(out.text.matches("int p_decl;").count(), 1);
    }

    #[test]
    fn error_directive_only_fires_when_active() {
        let out = pp("#ifdef NOPE\n#error should not fire\n#endif\nint ok;\n");
        assert!(out.is_clean());
        let out2 = pp("#error boom\n");
        assert!(matches!(out2.errors[0].kind, CppErrorKind::UserError(_)));
    }

    #[test]
    fn unterminated_conditional_is_diagnosed() {
        let out = pp("#ifdef X\nint a;\n");
        assert!(out
            .errors
            .iter()
            .any(|e| e.kind == CppErrorKind::UnterminatedConditional));
    }

    #[test]
    fn stray_endif_is_diagnosed() {
        let out = pp("#endif\n");
        assert!(matches!(
            out.errors[0].kind,
            CppErrorKind::MalformedDirective(_)
        ));
    }

    #[test]
    fn undef_then_use_is_literal() {
        let out = pp("#define X 1\n#undef X\nint a = X;\n");
        assert!(out.text.contains("int a = X;"));
    }

    #[test]
    fn multiline_macro_definition_via_continuation() {
        let out = pp("#define SUM(a, b) \\\n ((a) + \\\n  (b))\nint s = SUM(1, 2);\n");
        assert!(out.is_clean());
        assert!(out.text.contains("int s = ((1) + (2));"));
    }

    #[test]
    fn non_ascii_parameter_lists_keep_the_whole_body() {
        // The body starts after the `)` however many bytes the parameter
        // names take.
        let out = pp("#define F(\u{e9}\u{e9}) x+1\nint a = F(2);\n");
        assert!(out.text.contains("int a = x+1;"), "{}", out.text);
        let out = pp("#define G(a, \u{e9}\u{e9}) a+x\nint b = G(1, 2);\n");
        assert!(out.text.contains("int b = 1+x;"), "{}", out.text);
    }

    #[test]
    fn multiline_invocation_spans_lines() {
        let out = pp("#define F(a, b) a + b\nint s = F(1,\n 2);\n");
        assert!(out.is_clean(), "{:?}", out.errors);
        assert!(out.text.contains("1 +"), "{}", out.text);
        assert!(out.text.contains('2'));
    }

    #[test]
    fn line_markers_emitted_on_file_switch() {
        let mut r = MapResolver::new();
        r.add_file("inc.h", "int from_header;\n");
        let p = Preprocessor::new(r);
        let out = p.preprocess("t.c", "#include \"inc.h\"\nint from_main;\n");
        assert!(out.text.contains("# 1 \"inc.h\""), "{}", out.text);
        assert!(out.text.contains("# 2 \"t.c\""), "{}", out.text);
    }

    #[test]
    fn mutation_glyph_passes_through_plain_code() {
        let out = pp("\u{2261}\"context:f.c:12\"\nint x;\n");
        assert!(out.text.contains("\u{2261}\"context:f.c:12\""));
    }

    #[test]
    fn mutation_in_dead_branch_disappears() {
        let out = pp("#ifdef NOPE\n\u{2261}\"context:f.c:2\"\nint dead;\n#endif\n");
        assert!(!out.text.contains('\u{2261}'));
    }

    #[test]
    fn mutation_in_unused_macro_disappears() {
        let out = pp("#define UNUSED_M(x) (x) \u{2261}\"define:f.c:1\"\nint y;\n");
        assert!(!out.text.contains('\u{2261}'));
    }

    #[test]
    fn mutation_in_used_macro_appears_at_use_site() {
        let out = pp("#define M(x) (x) \u{2261}\"define:f.c:1\"\nint y = M(3);\n");
        assert!(
            out.text.contains("(3) \u{2261}\"define:f.c:1\""),
            "{}",
            out.text
        );
    }

    #[test]
    fn file_and_line_builtins() {
        let out = pp("const char *f = __FILE__;\nint l = __LINE__;\n");
        assert!(out.text.contains("\"t.c\""));
        assert!(out.text.contains("int l = 2;"));
    }

    #[test]
    fn ifndef_taken_when_undefined() {
        let out = pp("#ifndef GUARD\nint first;\n#endif\n");
        assert!(out.text.contains("int first;"));
    }

    #[test]
    fn dead_branch_expressions_are_not_evaluated() {
        // The garbage expression sits in a branch that can never activate.
        let mut p = Preprocessor::new(MapResolver::new());
        p.define_object("A", "1");
        let out = p.preprocess(
            "t.c",
            "#if A\nint a;\n#elif )))garbage(((\nint b;\n#endif\n",
        );
        assert!(out.is_clean(), "{:?}", out.errors);
        assert!(out.text.contains("int a;"));
    }

    #[test]
    fn computed_include() {
        let mut r = MapResolver::new();
        r.add_file("h/target.h", "int computed;\n");
        r.add_search_path("h");
        let p = {
            let mut p = Preprocessor::new(r);
            p.define_object("TARGET", "<target.h>");
            p
        };
        let out = p.preprocess("t.c", "#include TARGET\n");
        assert!(out.is_clean(), "{:?}", out.errors);
        assert!(out.text.contains("int computed;"));
    }
}
