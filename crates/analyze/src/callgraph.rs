//! Workspace call-graph construction over the shared tokenizer — the one
//! parse every source-policy rule derives from.
//!
//! [`Workspace::load`] collects the library sources (non-test code outside
//! `tests/`, `benches/`, `examples/`, `bin/`, `vendor/` and nested
//! workspaces), lexes each file once, records whether it opens with a
//! module doc, and walks its token stream with a lightweight item parser.
//! The parser extracts every function (free, inherent, trait default,
//! trait impl), the calls it makes, the *sites* it contains (panic-capable
//! expressions, narrow `as` casts, wildcard arms on the guarded enums),
//! and every struct field whose type carries shared state (`Arc`,
//! `Atomic*`, `Mutex`, `RwLock`). The result feeds the reachability pass
//! in [`crate::reach`] and the rules in [`crate::rules`].
//!
//! Resolution is **name-based and over-approximate** — no type inference:
//!
//! * `Type::method(…)` resolves only to a workspace `Type::method`.
//! * `self.method(…)` prefers a method on the enclosing impl's type and
//!   falls back to every workspace function with that simple name.
//! * `free(…)` and `recv.method(…)` resolve to every workspace function
//!   with that simple name; capitalized idents before `(` are treated as
//!   tuple-struct or enum constructors, not calls.
//! * Closure bodies are attributed to the enclosing function; nested `fn`
//!   items are parsed as their own functions; `macro_rules!` bodies are
//!   skipped entirely.
//!
//! Resolution is **crate-aware**: a call from a function in crate A
//! resolves only to functions in A or in A's transitive `[dependencies]`
//! (read from each `crates/*/Cargo.toml`), since A cannot name anything
//! else. Methods in `impl Trait for Type` blocks stay resolvable from
//! every crate, because generic or `dyn` dispatch can reach a downstream
//! impl. Files outside any manifest-bearing crate (the root package, a
//! fixture tree without manifests) see, and are seen by, every crate.
//!
//! Over-approximation errs toward *more* edges, so panic-reachability
//! certification can report false positives but not false negatives
//! within the parsed-call model (dynamic dispatch through `dyn` objects
//! is covered by the simple-name fallback).

use std::path::Path;

use crate::tokens::{lex, scan_attribute, skip_item, strip_test_items, Tok, TokKind};

/// Reserved words that can precede `(` or `[` without being calls/indexing.
const KEYWORDS: [&str; 34] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "while",
];

/// Macros whose expansion can panic at runtime. `debug_assert*` is absent
/// deliberately: it compiles out of release builds, which is what the
/// certification targets.
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Type markers that make a struct field shared mutable state.
const SHARED_MARKERS: [&str; 3] = ["Arc", "Mutex", "RwLock"];

/// Cast targets that can drop high bits of a wider index: a `usize → u32`
/// cast silently truncates on graphs past 4 billion vertices.
const NARROW_TYPES: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "VertexId", "Label"];

/// Enums whose matches must stay exhaustive: adding a matching variant
/// (`Variant`) or cluster direction (`Orient`) must be a compile error
/// everywhere it matters, so `_ =>` arms over them are sites.
const GUARDED_ENUMS: [&str; 2] = ["Variant", "Orient"];

/// Method names that collide with ubiquitous `std` APIs (iterators,
/// collections, atomics). An unqualified `recv.load(…)` is overwhelmingly
/// an `AtomicUsize::load`, not `Workspace::load`; letting the simple-name
/// fallback fire on these names connects the executor to most of the
/// workspace and drowns real findings. Calls to same-named workspace
/// functions still resolve when written `Type::name(…)` or
/// `self.name(…)` — this list only suppresses the ambient fallback, and it
/// is a documented hole in the over-approximation (see DESIGN.md). It is
/// kept minimal: each entry is here because deleting it alone widens the
/// certified hot set.
const AMBIENT_METHODS: [&str; 9] =
    ["collect", "contains", "count", "enumerate", "is_empty", "iter", "len", "load", "take"];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s) || matches!(s, "self" | "Self" | "where" | "yield" | "union")
}

/// What a potentially-panicking (or truncating) token sequence is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert*!`.
    PanicMacro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `expr[…]` slice/array indexing.
    Index,
    /// `/` or `%` with a non-literal (or zero-literal) divisor.
    Div,
    /// `as` cast into a narrow index type.
    NarrowCast,
    /// `_ =>` arm in a match involving `Variant`/`Orient`.
    WildcardArm,
}

impl SiteKind {
    /// Whether this site can abort the process (a narrow cast truncates
    /// silently instead; a wildcard arm is a maintenance hazard).
    pub fn is_panic(self) -> bool {
        !matches!(self, SiteKind::NarrowCast | SiteKind::WildcardArm)
    }

    pub fn label(self) -> &'static str {
        match self {
            SiteKind::PanicMacro => "panic-macro",
            SiteKind::Unwrap => "unwrap",
            SiteKind::Expect => "expect",
            SiteKind::Index => "index",
            SiteKind::Div => "div",
            SiteKind::NarrowCast => "narrow-cast",
            SiteKind::WildcardArm => "wildcard-arm",
        }
    }
}

/// One panic/cast/wildcard site inside a function body.
#[derive(Clone, Debug)]
pub struct Site {
    pub kind: SiteKind,
    /// 1-based source line.
    pub line: u32,
    /// Short source excerpt, e.g. `` `panic!` `` or `` `as u32` ``.
    pub what: String,
}

impl Site {
    /// Whether library code may not contain this site at all, hot or
    /// not: `.unwrap()`, `.expect(…)` and `panic!`. The other panic-family
    /// macros state invariants and only count on the certified path.
    pub fn is_explicit_panic(&self) -> bool {
        matches!(self.kind, SiteKind::Unwrap | SiteKind::Expect) || self.what == "`panic!`"
    }
}

/// How a call expression named its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// `Type::name(…)` — resolves only within that type's impls.
    Qualified { qual: String, name: String },
    /// `self.name(…)` — prefers the enclosing impl's method.
    SelfMethod { name: String },
    /// `name(…)` or `recv.name(…)` — resolves by simple name.
    Named { name: String },
}

#[derive(Clone, Debug)]
pub struct Call {
    pub target: CallTarget,
    pub line: u32,
}

/// One parsed function: identity, outgoing calls, and contained sites.
#[derive(Clone, Debug)]
pub struct Function {
    /// `Type::name` for inherent/trait methods, bare `name` otherwise.
    pub qual_name: String,
    pub simple_name: String,
    /// Enclosing impl/trait type, for `self.method` resolution.
    pub owner: Option<String>,
    /// Defined in an `impl Trait for Type` block, so reachable by dynamic
    /// or generic dispatch from crates that cannot name it.
    pub trait_impl: bool,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    pub calls: Vec<Call>,
    pub sites: Vec<Site>,
}

/// A struct field whose type carries shared mutable state.
#[derive(Clone, Debug)]
pub struct SharedField {
    pub struct_name: String,
    pub field: String,
    /// The field's type, space-joined tokens.
    pub type_text: String,
    pub file: String,
    pub line: u32,
}

/// One workspace crate: where its sources live and which crates it can
/// call into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crate {
    /// Workspace-relative directory holding `Cargo.toml`, e.g. `crates/core`.
    pub dir: String,
    /// The `[package]` name.
    pub name: String,
    /// Package names listed under `[dependencies]`.
    pub deps: Vec<String>,
}

impl Crate {
    /// Read a crate's package name and `[dependencies]` keys from its
    /// manifest (both `dep = …` lines and `[dependencies.dep]` tables).
    pub fn from_manifest(dir: &str, manifest: &str) -> Crate {
        let mut krate = Crate { dir: dir.to_string(), name: String::new(), deps: Vec::new() };
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']').trim();
                if let Some(dep) = section.strip_prefix("dependencies.") {
                    krate.deps.push(dep.to_string());
                }
                continue;
            }
            let key = line.split(['=', '.']).next().unwrap_or_default().trim();
            match section {
                "package" if key == "name" => {
                    let value = line.split_once('=').map_or("", |(_, v)| v);
                    krate.name = value.trim().trim_matches('"').to_string();
                }
                "dependencies" => krate.deps.push(key.to_string()),
                _ => {}
            }
        }
        krate
    }
}

/// Every function, shared-state field and crate in the parsed sources.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub fns: Vec<Function>,
    pub shared_fields: Vec<SharedField>,
    /// Crates with a manifest, for crate-aware call resolution.
    pub crates: Vec<Crate>,
    /// Number of source files parsed.
    pub files: usize,
    /// Files that do not open with a `//!` or `/*!` module doc.
    pub undocumented: Vec<String>,
}

impl Workspace {
    /// Parse one source file into the workspace. `rel` labels locations;
    /// its directory decides the file's crate during [`Self::resolve`].
    pub fn parse_file(&mut self, rel: &str, src: &str) {
        let lexed = lex(src);
        self.files += 1;
        if !lexed.has_module_doc {
            self.undocumented.push(rel.to_string());
        }
        let toks = strip_test_items(lexed.toks);
        let mut p = Parser { toks: &toks, file: rel, trait_impl: false, ws: self };
        p.items(0, toks.len(), None);
    }

    /// Read every `crates/*/Cargo.toml` under `root`, then parse every
    /// library source in sorted path order.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut ws = Workspace::default();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in std::fs::read_dir(&crates_dir)? {
                let entry = entry?;
                let manifest = entry.path().join("Cargo.toml");
                if entry.file_type()?.is_dir() && manifest.is_file() {
                    let dir = format!("crates/{}", entry.file_name().to_string_lossy());
                    ws.crates.push(Crate::from_manifest(&dir, &std::fs::read_to_string(manifest)?));
                }
            }
        }
        ws.crates.sort_by(|a, b| a.dir.cmp(&b.dir));
        for rel in collect_sources(root)? {
            let src = std::fs::read_to_string(root.join(&rel))?;
            ws.parse_file(&rel, &src);
        }
        Ok(ws)
    }

    /// Indices of every function whose `qual_name` matches, restricted to
    /// files under `prefix` when given.
    pub fn find(&self, qual: &str, prefix: Option<&str>) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.qual_name == qual && prefix.is_none_or(|p| f.file.starts_with(p)))
            .map(|(i, _)| i)
            .collect()
    }

    /// The crate whose directory holds `file`, if any.
    fn crate_of(&self, file: &str) -> Option<usize> {
        self.crates.iter().position(|c| {
            file.strip_prefix(c.dir.as_str()).is_some_and(|rest| rest.starts_with('/'))
        })
    }

    /// `sees[a][b]`: crate `a` can name crate `b` — itself or one of its
    /// transitive dependencies.
    fn crate_visibility(&self) -> Vec<Vec<bool>> {
        let n = self.crates.len();
        let mut sees = vec![vec![false; n]; n];
        for (a, row) in sees.iter_mut().enumerate() {
            let mut stack = vec![a];
            while let Some(c) = stack.pop() {
                if std::mem::replace(&mut row[c], true) {
                    continue;
                }
                stack.extend(
                    self.crates[c]
                        .deps
                        .iter()
                        .filter_map(|d| self.crates.iter().position(|k| &k.name == d)),
                );
            }
        }
        sees
    }

    /// Resolve every call to workspace function indices, producing the
    /// call-graph adjacency (deduplicated, per function).
    pub fn resolve(&self) -> Vec<Vec<usize>> {
        use std::collections::HashMap;
        let mut by_simple: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_simple.entry(&f.simple_name).or_default().push(i);
            by_qual.entry(&f.qual_name).or_default().push(i);
        }
        let home: Vec<Option<usize>> = self.fns.iter().map(|f| self.crate_of(&f.file)).collect();
        let sees = self.crate_visibility();
        let empty: Vec<usize> = Vec::new();
        let mut adj = Vec::with_capacity(self.fns.len());
        for (caller, f) in self.fns.iter().enumerate() {
            let visible = |callee: &usize| match (home[caller], home[*callee]) {
                (Some(a), Some(b)) => sees[a][b] || self.fns[*callee].trait_impl,
                _ => true,
            };
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                let targets: &[usize] = match &call.target {
                    CallTarget::Qualified { qual, name } => {
                        let qual = if qual == "Self" {
                            f.owner.clone().unwrap_or_else(|| qual.clone())
                        } else {
                            qual.clone()
                        };
                        let key = format!("{qual}::{name}");
                        by_qual.get(key.as_str()).unwrap_or(&empty)
                    }
                    CallTarget::SelfMethod { name } => {
                        let owned = f
                            .owner
                            .as_ref()
                            .map(|o| format!("{o}::{name}"))
                            .and_then(|k| by_qual.get(k.as_str()));
                        match owned {
                            Some(v) => v,
                            None if AMBIENT_METHODS.contains(&name.as_str()) => &empty,
                            None => by_simple.get(name.as_str()).unwrap_or(&empty),
                        }
                    }
                    CallTarget::Named { name } => {
                        if AMBIENT_METHODS.contains(&name.as_str()) {
                            &empty
                        } else {
                            by_simple.get(name.as_str()).unwrap_or(&empty)
                        }
                    }
                };
                out.extend(targets.iter().filter(|t| visible(t)));
            }
            out.sort_unstable();
            out.dedup();
            adj.push(out);
        }
        adj
    }

    /// Total resolved call edges.
    pub fn edge_count(&self, adj: &[Vec<usize>]) -> usize {
        adj.iter().map(Vec::len).sum()
    }
}

/// Whether a workspace-relative path is non-test library code the rules
/// apply to.
pub fn is_library_source(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return false;
    }
    !parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples" | "bin" | "fixtures"))
        && rel.ends_with(".rs")
}

/// Collect the workspace's library sources under `root`, returning sorted
/// workspace-relative `/`-separated paths.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir != root && is_nested_workspace(&dir) {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !matches!(name.as_ref(), "target" | "vendor" | ".git" | ".claude") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if is_library_source(&rel) {
                    found.push(rel);
                }
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Whether `dir` holds a package that declares its own `[workspace]`
/// (e.g. the standalone `perfbench/`): it builds separately, workspace
/// crates cannot call into it, so it is outside the analyzed sources.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

struct Parser<'w, 't> {
    toks: &'t [Tok<'t>],
    file: &'t str,
    /// Inside an `impl Trait for Type` body.
    trait_impl: bool,
    ws: &'w mut Workspace,
}

impl Parser<'_, '_> {
    /// Parse items in `[i, end)` with `owner` as the enclosing impl/trait
    /// type (for method qualification).
    fn items(&mut self, mut i: usize, end: usize, owner: Option<&str>) {
        while i < end {
            let t = &self.toks[i];
            if t.text == "#" && i + 1 < end && self.toks[i + 1].text == "[" {
                let (attr_end, is_cfg_test) = scan_attribute(self.toks, i);
                if is_cfg_test || self.is_test_attr(i) {
                    i = skip_item(self.toks, attr_end).min(end);
                } else {
                    i = attr_end.min(end);
                }
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match t.text {
                "fn" => i = self.function(i, end, owner),
                "mod" => {
                    // `mod name { … }` recurses without an owner;
                    // `mod name;` is just skipped.
                    match self.toks.get(i + 2).map(|t| t.text) {
                        Some("{") => {
                            let close = matching_brace(self.toks, i + 2, end);
                            self.items(i + 3, close, None);
                            i = close + 1;
                        }
                        _ => i += 2,
                    }
                }
                "impl" => i = self.impl_or_trait(i, end, false),
                "trait" => i = self.impl_or_trait(i, end, true),
                "struct" => i = self.structure(i, end),
                "macro_rules" => i = skip_item(self.toks, i).min(end),
                "enum" | "union" | "use" | "extern" | "static" => {
                    i = skip_item(self.toks, i).min(end);
                }
                "type" => i = skip_item(self.toks, i).min(end),
                "const" => {
                    // `const fn` falls through to the `fn` arm next turn;
                    // `const NAME: … = …;` is skipped whole.
                    if self.toks.get(i + 1).map(|t| t.text) == Some("fn") {
                        i += 1;
                    } else {
                        i = skip_item(self.toks, i).min(end);
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// Whether the attribute starting at `#` at `i` is exactly `#[test]`.
    fn is_test_attr(&self, i: usize) -> bool {
        self.toks.get(i + 2).map(|t| t.text) == Some("test")
            && self.toks.get(i + 3).map(|t| t.text) == Some("]")
    }

    /// Parse an `impl`/`trait` item header, extract the self type, and
    /// recurse into the body with it as owner.
    fn impl_or_trait(&mut self, i: usize, end: usize, is_trait: bool) -> usize {
        // Find the body `{` at bracket/angle depth zero.
        let mut j = i + 1;
        let (mut paren, mut angle) = (0usize, 0usize);
        let mut body = None;
        while j < end {
            let txt = self.toks[j].text;
            match txt {
                "(" | "[" => paren += 1,
                ")" | "]" => paren = paren.saturating_sub(1),
                "<" => angle += 1,
                // `->` is a return arrow, not a generic close.
                ">" if j == 0 || self.toks[j - 1].text != "-" => {
                    angle = angle.saturating_sub(1);
                }
                "{" if paren == 0 && angle == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if paren == 0 && angle == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body else { return end };
        let (owner, trait_impl) = if is_trait {
            let name = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident);
            (name.map(|t| t.text.to_string()), false)
        } else {
            impl_self_type(&self.toks[i + 1..body])
        };
        let close = matching_brace(self.toks, body, end);
        self.trait_impl = trait_impl;
        self.items(body + 1, close, owner.as_deref());
        self.trait_impl = false;
        close + 1
    }

    /// Parse `struct Name { fields… }`, recording shared-state fields.
    fn structure(&mut self, i: usize, end: usize) -> usize {
        let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            return i + 1;
        };
        let name = name.text.to_string();
        // Find `{` (record fields), `;` (unit), or `(` (tuple — skip).
        let mut j = i + 2;
        let (mut paren, mut angle) = (0usize, 0usize);
        while j < end {
            match self.toks[j].text {
                "(" | "[" => paren += 1,
                ")" | "]" => paren = paren.saturating_sub(1),
                "<" => angle += 1,
                ">" if self.toks[j - 1].text != "-" => angle = angle.saturating_sub(1),
                "{" if paren == 0 && angle == 0 => {
                    let close = matching_brace(self.toks, j, end);
                    self.fields(j + 1, close, &name);
                    return close + 1;
                }
                ";" if paren == 0 && angle == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Scan named struct fields in `[i, end)` for shared-state types.
    fn fields(&mut self, mut i: usize, end: usize, struct_name: &str) {
        while i < end {
            // Attributes and visibility before the field name.
            if self.toks[i].text == "#" && i + 1 < end && self.toks[i + 1].text == "[" {
                i = scan_attribute(self.toks, i).0.min(end);
                continue;
            }
            if self.toks[i].text == "pub" {
                i += 1;
                if i < end && self.toks[i].text == "(" {
                    while i < end && self.toks[i].text != ")" {
                        i += 1;
                    }
                    i += 1;
                }
                continue;
            }
            if self.toks[i].kind != TokKind::Ident
                || self.toks.get(i + 1).map(|t| t.text) != Some(":")
            {
                i += 1;
                continue;
            }
            let field = self.toks[i].text.to_string();
            let line = self.toks[i].line;
            // Type tokens run to the `,` at depth zero (or the end).
            let mut j = i + 2;
            let (mut depth, mut angle) = (0usize, 0usize);
            let mut ty = Vec::new();
            while j < end {
                let txt = self.toks[j].text;
                match txt {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "<" => angle += 1,
                    ">" if self.toks[j - 1].text != "-" => angle = angle.saturating_sub(1),
                    "," if depth == 0 && angle == 0 => break,
                    _ => {}
                }
                ty.push(txt);
                j += 1;
            }
            let shared = ty.iter().any(|t| SHARED_MARKERS.contains(t) || t.starts_with("Atomic"));
            if shared {
                self.ws.shared_fields.push(SharedField {
                    struct_name: struct_name.to_string(),
                    field,
                    type_text: ty.join(" "),
                    file: self.file.to_string(),
                    line,
                });
            }
            i = j + 1;
        }
    }

    /// Parse one `fn` item starting at the `fn` keyword; returns the index
    /// after the item.
    fn function(&mut self, i: usize, end: usize, owner: Option<&str>) -> usize {
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            // `fn(…)` pointer type or malformed — not an item.
            return i + 1;
        };
        let simple = name_tok.text.to_string();
        // Scan the signature for the body `{` or a terminating `;`.
        let mut j = i + 2;
        let (mut paren, mut angle) = (0usize, 0usize);
        let mut body = None;
        while j < end {
            match self.toks[j].text {
                "(" | "[" => paren += 1,
                ")" | "]" => paren = paren.saturating_sub(1),
                "<" => angle += 1,
                ">" if self.toks[j - 1].text != "-" => angle = angle.saturating_sub(1),
                "{" if paren == 0 && angle == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if paren == 0 && angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let qual_name = match owner {
            Some(o) => format!("{o}::{simple}"),
            None => simple.clone(),
        };
        let mut f = Function {
            qual_name,
            simple_name: simple,
            owner: owner.map(str::to_string),
            trait_impl: owner.is_some() && self.trait_impl,
            file: self.file.to_string(),
            line: self.toks[i].line,
            calls: Vec::new(),
            sites: Vec::new(),
        };
        let after = match body {
            Some(b) => {
                let close = matching_brace(self.toks, b, end);
                self.body(b + 1, close, &mut f);
                close + 1
            }
            None => (j + 1).min(end), // trait method signature without body
        };
        self.ws.fns.push(f);
        after
    }

    /// Scan a function body in `[i, end)` for calls and sites. Nested `fn`
    /// items become their own functions; closures stay attributed here.
    fn body(&mut self, mut i: usize, end: usize, f: &mut Function) {
        while i < end {
            let t = &self.toks[i];
            // Inner attributes / attributes on statements.
            if t.text == "#" && i + 1 < end && self.toks[i + 1].text == "[" {
                i = scan_attribute(self.toks, i).0.min(end);
                continue;
            }
            if t.kind == TokKind::Ident {
                if t.text == "fn" {
                    if self.toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
                        i = self.function(i, end, None);
                        continue;
                    }
                    i += 1; // `fn(…)` pointer type
                    continue;
                }
                if t.text == "match" {
                    for line in wildcard_arms(self.toks, i, end) {
                        f.sites.push(Site {
                            kind: SiteKind::WildcardArm,
                            line,
                            what: "`_ =>`".to_string(),
                        });
                    }
                    i += 1;
                    continue;
                }
                let next = self.toks.get(i + 1).map(|t| t.text);
                // Panicking macros.
                if next == Some("!") && PANIC_MACROS.contains(&t.text) {
                    f.sites.push(Site {
                        kind: SiteKind::PanicMacro,
                        line: t.line,
                        what: format!("`{}!`", t.text),
                    });
                    i += 2;
                    continue;
                }
                // `.unwrap()` / `.expect(…)`.
                if (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && self.toks[i - 1].text == "."
                    && next == Some("(")
                {
                    let kind = if t.text == "unwrap" { SiteKind::Unwrap } else { SiteKind::Expect };
                    f.sites.push(Site { kind, line: t.line, what: format!("`.{}(…)`", t.text) });
                    i += 2;
                    continue;
                }
                // Narrow `as` casts.
                if t.text == "as" {
                    if let Some(ty) = self.toks.get(i + 1) {
                        if ty.kind == TokKind::Ident && NARROW_TYPES.contains(&ty.text) {
                            f.sites.push(Site {
                                kind: SiteKind::NarrowCast,
                                line: t.line,
                                what: format!("`as {}`", ty.text),
                            });
                        }
                    }
                    i += 2;
                    continue;
                }
                // Call expressions: `name(` with a lowercase-initial name.
                if next == Some("(") && !is_keyword(t.text) {
                    if let Some(target) = self.call_target(i) {
                        f.calls.push(Call { target, line: t.line });
                    }
                    i += 1;
                    continue;
                }
            }
            // `expr[…]` indexing: `[` after a value-producing token.
            if t.text == "[" && i > 0 {
                let prev = &self.toks[i - 1];
                let value_prev = (prev.kind == TokKind::Ident && !is_keyword(prev.text))
                    || prev.text == "]"
                    || prev.text == ")";
                if value_prev {
                    f.sites.push(Site {
                        kind: SiteKind::Index,
                        line: t.line,
                        what: format!("`{}[…]`", self.toks[i - 1].text),
                    });
                }
            }
            // Integer division/remainder; a nonzero literal divisor cannot
            // panic (only MIN/-1 overflow, which the lint ignores as the
            // workspace indexes with unsigned types).
            if (t.text == "/" || t.text == "%") && i > 0 {
                let safe = self
                    .toks
                    .get(i + 1)
                    .is_some_and(|d| d.kind == TokKind::Literal && nonzero_int(d.text));
                if !safe {
                    f.sites.push(Site {
                        kind: SiteKind::Div,
                        line: t.line,
                        what: format!("`{}` non-literal divisor", t.text),
                    });
                }
            }
            i += 1;
        }
    }

    /// Classify the call at ident `i` (known to be followed by `(`).
    /// Returns `None` for constructors (capitalized names).
    fn call_target(&self, i: usize) -> Option<CallTarget> {
        let name = self.toks[i].text;
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return None; // tuple struct / enum variant constructor
        }
        let prev = i.checked_sub(1).map(|p| self.toks[p].text);
        let prev2 = i.checked_sub(2).map(|p| &self.toks[p]);
        if prev == Some(":") && i >= 2 && self.toks[i - 2].text == ":" {
            // `…::name(` — qualified when the segment before `::` is a
            // capitalized ident (a type); module paths and turbofish fall
            // back to simple-name resolution.
            let seg = i.checked_sub(3).map(|p| &self.toks[p]);
            if let Some(seg) = seg {
                if seg.kind == TokKind::Ident
                    && seg.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    return Some(CallTarget::Qualified {
                        qual: seg.text.to_string(),
                        name: name.to_string(),
                    });
                }
            }
            return Some(CallTarget::Named { name: name.to_string() });
        }
        if prev == Some(".") {
            if prev2.is_some_and(|t| t.text == "self") && (i < 3 || self.toks[i - 3].text != ".") {
                return Some(CallTarget::SelfMethod { name: name.to_string() });
            }
            return Some(CallTarget::Named { name: name.to_string() });
        }
        Some(CallTarget::Named { name: name.to_string() })
    }
}

/// Index of the `}` matching the `{` at `open` (or `end` if unbalanced).
fn matching_brace(toks: &[Tok<'_>], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match toks[i].text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

/// Lines of the `_ =>` arms at the top level of the `match` at `i`, when
/// the match involves one of the [`GUARDED_ENUMS`] anywhere in its
/// scrutinee or body.
fn wildcard_arms(toks: &[Tok<'_>], i: usize, end: usize) -> Vec<u32> {
    // Header: up to the body `{` at bracket depth 0 (struct literals are
    // not allowed bare in a scrutinee).
    let mut open = i + 1;
    let mut depth = 0usize;
    while open < end {
        match toks[open].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => break,
            _ => {}
        }
        open += 1;
    }
    if open >= end {
        return Vec::new();
    }
    let close = matching_brace(toks, open, end);
    if !toks[i..close].iter().any(|t| t.kind == TokKind::Ident && GUARDED_ENUMS.contains(&t.text)) {
        return Vec::new();
    }
    // Arms live at brace depth 1 of the body, outside any parens (a `_`
    // inside `(…)` or `Foo { … }` is a sub-pattern).
    let (mut braces, mut parens) = (1usize, 0usize);
    let mut arms = Vec::new();
    for a in open + 1..close {
        match toks[a].text {
            "{" => braces += 1,
            "}" => braces -= 1,
            "(" | "[" => parens += 1,
            ")" | "]" => parens = parens.saturating_sub(1),
            "_" if braces == 1
                && parens == 0
                && toks.get(a + 1).map(|t| t.text) == Some("=")
                && toks.get(a + 2).map(|t| t.text) == Some(">") =>
            {
                arms.push(toks[a].line);
            }
            _ => {}
        }
    }
    arms
}

/// Extract the self type from an impl header's tokens (between `impl` and
/// the body `{`): the last path segment of the type after `for` when
/// present, of the whole header otherwise, at angle depth zero. The flag
/// says whether the header has that `for`, i.e. implements a trait.
fn impl_self_type(header: &[Tok<'_>]) -> (Option<String>, bool) {
    let mut angle = 0usize;
    let mut for_at = None;
    for (k, t) in header.iter().enumerate() {
        match t.text {
            "<" => angle += 1,
            ">" if k == 0 || header[k - 1].text != "-" => angle = angle.saturating_sub(1),
            "for" if angle == 0 => for_at = Some(k),
            "where" if angle == 0 => break,
            _ => {}
        }
    }
    let slice = match for_at {
        Some(k) => &header[k + 1..],
        None => header,
    };
    let mut angle = 0usize;
    let mut last = None;
    for (k, t) in slice.iter().enumerate() {
        match t.text {
            "<" => angle += 1,
            ">" if k == 0 || slice[k - 1].text != "-" => angle = angle.saturating_sub(1),
            "where" if angle == 0 => break,
            _ => {
                if angle == 0 && t.kind == TokKind::Ident && !is_keyword(t.text) {
                    last = Some(t.text.to_string());
                }
            }
        }
    }
    (last, for_at.is_some())
}

/// Whether a numeric literal is a nonzero integer (so division by it
/// cannot panic).
fn nonzero_int(text: &str) -> bool {
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    !digits.is_empty() && digits.chars().any(|c| c != '0') && !text.contains('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.parse_file("x.rs", src);
        ws
    }

    fn fn_named<'a>(ws: &'a Workspace, qual: &str) -> &'a Function {
        ws.fns
            .iter()
            .find(|f| f.qual_name == qual)
            .unwrap_or_else(|| panic!("no fn {qual} in {:?}", quals(ws)))
    }

    fn quals(ws: &Workspace) -> Vec<&str> {
        ws.fns.iter().map(|f| f.qual_name.as_str()).collect()
    }

    #[test]
    fn free_fn_and_calls() {
        let ws = parse("//! d\nfn a() { b(); c(1) + 2; }\nfn b() {}\nfn c(x: u64) -> u64 { x }\n");
        assert_eq!(quals(&ws), vec!["a", "b", "c"]);
        let a = fn_named(&ws, "a");
        let names: Vec<_> = a
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Named { name } => name.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn impl_methods_are_qualified_and_self_calls_resolve() {
        let src = "//! d\nstruct S;\nimpl S {\n  fn outer(&self) { self.inner(); }\n  fn inner(&self) {}\n}\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["S::outer", "S::inner"]);
        let adj = ws.resolve();
        let outer = ws.find("S::outer", None)[0];
        let inner = ws.find("S::inner", None)[0];
        assert_eq!(adj[outer], vec![inner]);
    }

    #[test]
    fn trait_impl_owner_is_the_self_type() {
        let src = "//! d\nimpl<'a> fmt::Display for Foo<'a> {\n  fn fmt(&self) {}\n}\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["Foo::fmt"]);
    }

    #[test]
    fn trait_default_methods_qualify_under_the_trait() {
        let src = "//! d\ntrait Sink {\n  fn push(&mut self);\n  fn push_all(&mut self) { self.push(); }\n}\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["Sink::push", "Sink::push_all"]);
        let adj = ws.resolve();
        let all = ws.find("Sink::push_all", None)[0];
        let one = ws.find("Sink::push", None)[0];
        assert_eq!(adj[all], vec![one]);
    }

    #[test]
    fn qualified_calls_do_not_leak_across_types() {
        let src = "//! d\nstruct A;\nstruct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn f() { A::go(); }\n";
        let ws = parse(src);
        let adj = ws.resolve();
        let f = ws.find("f", None)[0];
        assert_eq!(adj[f], ws.find("A::go", None));
    }

    #[test]
    fn raw_string_containing_fn_is_not_an_item() {
        let src = "//! d\nfn real() { let _ = r#\"fn fake() { panic!(\"x\") }\"#; }\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["real"]);
        assert!(fn_named(&ws, "real").sites.is_empty());
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src =
            "//! d\nmacro_rules! m {\n  () => { fn generated() { panic!() } };\n}\nfn real() {}\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["real"]);
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let src = "//! d\nfn outer(v: Vec<u64>) -> u64 { v.iter().map(|x| x / zero()).sum() }\nfn zero() -> u64 { 0 }\n";
        let ws = parse(src);
        let outer = fn_named(&ws, "outer");
        assert!(outer.sites.iter().any(|s| s.kind == SiteKind::Div), "{:?}", outer.sites);
        assert!(outer.calls.iter().any(|c| c.target == CallTarget::Named { name: "zero".into() }));
    }

    #[test]
    fn nested_fn_is_its_own_function() {
        let src = "//! d\nfn outer() { fn helper() { panic!() } helper(); }\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["helper", "outer"]);
        assert!(fn_named(&ws, "outer").sites.is_empty());
        assert_eq!(fn_named(&ws, "helper").sites.len(), 1);
    }

    #[test]
    fn test_items_are_excluded() {
        let src = "//! d\nfn real() {}\n#[cfg(test)]\nmod tests { fn t() { panic!() } }\n#[test]\nfn unit() { panic!() }\n";
        let ws = parse(src);
        assert_eq!(quals(&ws), vec!["real"]);
    }

    #[test]
    fn panic_sites_are_classified() {
        let src = "//! d\nfn f(v: &[u64], i: usize, d: u64) -> u64 {\n  let x = v[i];\n  let y = x / d;\n  let z = x / 2;\n  assert!(y > 0);\n  Some(z).unwrap()\n}\n";
        let ws = parse(src);
        let kinds: Vec<_> = fn_named(&ws, "f").sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SiteKind::Index, SiteKind::Div, SiteKind::PanicMacro, SiteKind::Unwrap]
        );
    }

    #[test]
    fn debug_assert_and_literal_divisors_are_not_sites() {
        let src = "//! d\nfn f(x: u64) -> u64 { debug_assert!(x > 0); x / 4096 + x % 2 }\n";
        let ws = parse(src);
        assert!(fn_named(&ws, "f").sites.is_empty(), "{:?}", fn_named(&ws, "f").sites);
    }

    #[test]
    fn attribute_and_array_type_brackets_are_not_indexing() {
        let src = "//! d\nfn f() -> [u64; 2] { #[allow(dead_code)] let x: [u64; 2] = [1, 2]; x }\n";
        let ws = parse(src);
        assert!(fn_named(&ws, "f").sites.is_empty(), "{:?}", fn_named(&ws, "f").sites);
    }

    #[test]
    fn narrow_cast_sites_recorded() {
        let src = "//! d\nfn f(n: usize) -> u32 { n as u32 }\n";
        let ws = parse(src);
        let sites = &fn_named(&ws, "f").sites;
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, SiteKind::NarrowCast);
        assert!(!sites[0].kind.is_panic());
    }

    #[test]
    fn constructors_are_not_calls() {
        let src = "//! d\nfn f() { let _ = Some(1); let _ = Variant::EdgeInduced; }\n";
        let ws = parse(src);
        assert!(fn_named(&ws, "f").calls.is_empty());
    }

    #[test]
    fn manifest_names_package_and_dependencies() {
        let manifest = "[package]\nname = \"csce-core\"\nversion.workspace = true\n\n\
                        [dependencies]\ncsce-graph.workspace = true\n# comment\n\
                        csce-obs = { path = \"../obs\" }\n\n[dev-dependencies]\nrand = \"1\"\n\n\
                        [dependencies.csce-ccsr]\npath = \"../ccsr\"\n";
        let k = Crate::from_manifest("crates/core", manifest);
        assert_eq!(k.name, "csce-core");
        assert_eq!(k.deps, vec!["csce-graph", "csce-obs", "csce-ccsr"]);
    }

    /// Crates `a` → `c` (a dependency) and `b` (not one), each defining a
    /// `row`; `b` also implements a trait.
    fn three_crates() -> Workspace {
        let mut ws = Workspace::default();
        for (dir, name, deps) in
            [("crates/a", "a", vec!["c"]), ("crates/b", "b", vec![]), ("crates/c", "c", vec![])]
        {
            ws.crates.push(Crate {
                dir: dir.to_string(),
                name: name.to_string(),
                deps: deps.into_iter().map(str::to_string).collect(),
            });
        }
        ws.parse_file("crates/a/src/lib.rs", "//! a\nfn caller(t: T) { t.row(); t.render(); }\n");
        ws.parse_file(
            "crates/b/src/lib.rs",
            "//! b\nimpl Table { fn row(&self) {} }\nimpl Show for Table { fn render(&self) {} }\n",
        );
        ws.parse_file("crates/c/src/lib.rs", "//! c\nimpl Csr { fn row(&self) {} }\n");
        ws.parse_file("src/lib.rs", "//! root\nfn root() { row(); }\n");
        ws
    }

    #[test]
    fn calls_resolve_only_into_dependencies() {
        let ws = three_crates();
        let adj = ws.resolve();
        let callees = |q: &str| -> Vec<&str> {
            adj[ws.find(q, None)[0]].iter().map(|&t| ws.fns[t].qual_name.as_str()).collect()
        };
        // `Table::row` lives in `b`, which `a` does not depend on; the trait
        // impl `Table::render` stays reachable through dispatch.
        assert_eq!(callees("caller"), vec!["Table::render", "Csr::row"]);
        // The root package sees every crate.
        assert_eq!(callees("root"), vec!["Table::row", "Csr::row"]);
        assert!(ws.fns[ws.find("Table::render", None)[0]].trait_impl);
        assert!(!ws.fns[ws.find("Table::row", None)[0]].trait_impl);
    }

    #[test]
    fn transitive_dependencies_are_visible() {
        let mut ws = three_crates();
        ws.crates[2].deps.push("b".to_string());
        let adj = ws.resolve();
        let caller = ws.find("caller", None)[0];
        assert_eq!(adj[caller].len(), 3, "a → c → b reaches Table::row too");
    }

    #[test]
    fn path_classification() {
        assert!(is_library_source("crates/graph/src/graph.rs"));
        assert!(is_library_source("src/lib.rs"));
        assert!(!is_library_source("crates/graph/tests/io.rs"));
        assert!(!is_library_source("src/bin/csce.rs"));
        assert!(!is_library_source("vendor/proptest/src/lib.rs"));
        assert!(!is_library_source("crates/bench/src/fixtures/x.rs"));
        assert!(!is_library_source("README.md"));
    }

    #[test]
    fn load_reads_manifests_and_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("csce-callgraph-load-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("crates/a/src/lib.rs", "//! a\nfn f() {}\n");
        write("bench/Cargo.toml", "[package]\nname = \"b\"\n\n[workspace]\n");
        write("bench/src/lib.rs", "//! b\nfn g() {}\n");
        let found = collect_sources(&root).unwrap();
        let ws = Workspace::load(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(found, vec!["crates/a/src/lib.rs".to_string()]);
        assert_eq!(ws.crates, vec![Crate::from_manifest("crates/a", "[package]\nname = \"a\"\n")]);
        assert_eq!(quals(&ws), vec!["f"]);
    }

    #[test]
    fn shared_fields_detected() {
        let src = "//! d\nuse std::sync::{Arc, Mutex};\npub struct S {\n  pub cursor: AtomicUsize,\n  stop: Arc<AtomicBool>,\n  data: Vec<u64>,\n  guard: Mutex<u64>,\n}\n";
        let ws = parse(src);
        let names: Vec<_> =
            ws.shared_fields.iter().map(|f| format!("{}.{}", f.struct_name, f.field)).collect();
        assert_eq!(names, vec!["S.cursor", "S.stop", "S.guard"]);
    }
}
