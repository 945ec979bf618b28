//! Workspace call-graph construction over the shared tokenizer.
//!
//! A lightweight item parser walks each library source's token stream and
//! extracts every function (free, inherent, trait default), the calls it
//! makes, the *panic sites* and *narrow-cast sites* it contains, and
//! every struct field whose type carries shared state (`Arc`, `Atomic*`,
//! `Mutex`, `RwLock`). The result feeds the reachability pass in
//! [`crate::reach`] and the rules in [`crate::rules`].
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
//! Over-approximation errs toward *more* edges, so panic-reachability
//! certification can report false positives but not false negatives
//! within the parsed-call model (dynamic dispatch through `dyn` objects
//! is covered by the simple-name fallback).

use std::path::Path;

use crate::lint::{collect_sources, is_library_source, NARROW_TYPES};
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

/// Method names that collide with ubiquitous `std` APIs (iterators,
/// collections, atomics, formatting). An unqualified `recv.load(…)` is
/// overwhelmingly an `AtomicUsize::load`, not `Workspace::load`; letting
/// the simple-name fallback fire on these names connects the whole
/// workspace to itself and drowns real findings. Calls to same-named
/// workspace functions still resolve when written `Type::name(…)` or
/// `self.name(…)` — this list only suppresses the ambient fallback, and
/// it is a documented hole in the over-approximation (see DESIGN.md).
const AMBIENT_METHODS: [&str; 37] = [
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "count",
    "drain",
    "enumerate",
    "extend",
    "find",
    "first",
    "flush",
    "fmt",
    "get",
    "insert",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "position",
    "push",
    "read",
    "sort",
    "split",
    "store",
    "sum",
    "swap",
    "take",
    "write",
];

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
}

impl SiteKind {
    /// Whether this site can abort the process (a narrow cast truncates
    /// silently instead).
    pub fn is_panic(self) -> bool {
        !matches!(self, SiteKind::NarrowCast)
    }

    pub fn label(self) -> &'static str {
        match self {
            SiteKind::PanicMacro => "panic-macro",
            SiteKind::Unwrap => "unwrap",
            SiteKind::Expect => "expect",
            SiteKind::Index => "index",
            SiteKind::Div => "div",
            SiteKind::NarrowCast => "narrow-cast",
        }
    }
}

/// One panic/cast site inside a function body.
#[derive(Clone, Debug)]
pub struct Site {
    pub kind: SiteKind,
    /// 1-based source line.
    pub line: u32,
    /// Short source excerpt, e.g. `` `panic!` `` or `` `as u32` ``.
    pub what: String,
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

/// Every function and shared-state field in the parsed sources.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub fns: Vec<Function>,
    pub shared_fields: Vec<SharedField>,
}

impl Workspace {
    /// Parse one source file into the workspace. `rel` labels locations.
    pub fn parse_file(&mut self, rel: &str, src: &str) {
        let lexed = lex(src);
        let toks = strip_test_items(lexed.toks);
        let mut p = Parser { toks: &toks, file: rel, ws: self };
        p.items(0, toks.len(), None);
    }

    /// Parse every library source under `root` (same file set as the lint
    /// pass), in sorted path order.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut ws = Workspace::default();
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
        let empty: Vec<usize> = Vec::new();
        let mut adj = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
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
                out.extend_from_slice(targets);
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

/// Re-export of the lint pass's path filter, so callers assembling custom
/// file sets apply the same test-code exclusion.
pub fn is_analyzable(rel: &str) -> bool {
    is_library_source(rel)
}

struct Parser<'w, 't> {
    toks: &'t [Tok<'t>],
    file: &'t str,
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
        let owner = if is_trait {
            self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.to_string())
        } else {
            impl_self_type(&self.toks[i + 1..body])
        };
        let close = matching_brace(self.toks, body, end);
        self.items(body + 1, close, owner.as_deref());
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

/// Extract the self type from an impl header's tokens (between `impl` and
/// the body `{`): the last path segment of the type after `for` when
/// present, of the whole header otherwise, at angle depth zero.
fn impl_self_type(header: &[Tok<'_>]) -> Option<String> {
    let mut angle = 0usize;
    let mut for_at = None;
    for (k, t) in header.iter().enumerate() {
        match t.text {
            "<" => angle += 1,
            ">" if k == 0 || header[k - 1].text != "-" => angle = angle.saturating_sub(1),
            "for" if angle == 0 => for_at = Some(k),
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
    last
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
    fn shared_fields_detected() {
        let src = "//! d\nuse std::sync::{Arc, Mutex};\npub struct S {\n  pub cursor: AtomicUsize,\n  stop: Arc<AtomicBool>,\n  data: Vec<u64>,\n  guard: Mutex<u64>,\n}\n";
        let ws = parse(src);
        let names: Vec<_> =
            ws.shared_fields.iter().map(|f| format!("{}.{}", f.struct_name, f.field)).collect();
        assert_eq!(names, vec!["S.cursor", "S.stop", "S.guard"]);
    }
}
