//! Rust tokenizer for the source-policy pass (see `callgraph`).
//!
//! Lexes a source file into idents, punctuation, literals and lifetimes
//! while skipping comments; handles raw/byte strings (`r#"…"#`, `b"…"`),
//! char-literal vs lifetime disambiguation, and nested block comments.
//! Also provides `#[cfg(test)]` item stripping so downstream passes only
//! see production code.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokKind {
    Ident,
    Punct,
    Literal,
    Lifetime,
}

#[derive(Clone, Debug)]
pub(crate) struct Tok<'a> {
    pub(crate) kind: TokKind,
    pub(crate) text: &'a str,
    pub(crate) line: u32,
}

/// Lexer output: the token stream plus whether the file opened with an
/// inner doc comment before any real token.
pub(crate) struct Lexed<'a> {
    pub(crate) toks: Vec<Tok<'a>>,
    pub(crate) has_module_doc: bool,
}

pub(crate) fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut has_module_doc = false;
    let mut i = 0usize;
    let mut line = 1u32;
    let count_lines =
        |s: &str| u32::try_from(s.bytes().filter(|&c| c == b'\n').count()).unwrap_or(u32::MAX);
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if src[i..].starts_with("//") {
            if src[i..].starts_with("//!") && toks.is_empty() {
                has_module_doc = true;
            }
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if src[i..].starts_with("/*") {
            if src[i..].starts_with("/*!") && toks.is_empty() {
                has_module_doc = true;
            }
            let mut depth = 1usize;
            let start = i;
            i += 2;
            while i < b.len() && depth > 0 {
                if src[i..].starts_with("/*") {
                    depth += 1;
                    i += 2;
                } else if src[i..].starts_with("*/") {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += count_lines(&src[start..i]);
        } else if c == b'"' {
            let (end, nl) = scan_string(src, i);
            toks.push(Tok { kind: TokKind::Literal, text: &src[i..end], line });
            line += nl;
            i = end;
        } else if (c == b'r' || c == b'b') && is_raw_or_byte_string(src, i) {
            let (end, nl) = scan_prefixed_string(src, i);
            toks.push(Tok { kind: TokKind::Literal, text: &src[i..end], line });
            line += nl;
            i = end;
        } else if c == b'\'' {
            let (end, kind) = scan_quote(src, i);
            toks.push(Tok { kind, text: &src[i..end], line });
            i = end;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, text: &src[start..i], line });
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() {
                // A `.` continues the number only when followed by a digit
                // and not already present (so `0..n` stays a range).
                let fraction_dot = b[i] == b'.'
                    && i + 1 < b.len()
                    && b[i + 1].is_ascii_digit()
                    && !src[start..i].contains('.');
                if b[i].is_ascii_alphanumeric() || b[i] == b'_' || fraction_dot {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok { kind: TokKind::Literal, text: &src[start..i], line });
        } else {
            let w = src[i..].chars().next().map_or(1, |c| c.len_utf8());
            toks.push(Tok { kind: TokKind::Punct, text: &src[i..i + w], line });
            i += w;
        }
    }
    Lexed { toks, has_module_doc }
}

/// Whether position `i` (at `r` or `b`) starts a raw / byte string rather
/// than an identifier.
fn is_raw_or_byte_string(src: &str, i: usize) -> bool {
    let rest = &src.as_bytes()[i..];
    let mut j = 1;
    if rest[0] == b'b' && j < rest.len() && rest[j] == b'r' {
        j += 1;
    }
    while j < rest.len() && rest[j] == b'#' {
        j += 1;
    }
    j < rest.len() && rest[j] == b'"' && (rest[0] != b'b' || j > 1 || rest[1] == b'"')
}

/// Scan a plain `"…"` string from `i`; returns (end index, newlines).
fn scan_string(src: &str, i: usize) -> (usize, u32) {
    let b = src.as_bytes();
    let mut j = i + 1;
    let mut nl = 0u32;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                if j + 1 < b.len() && b[j + 1] == b'\n' {
                    nl += 1; // line-continuation escape
                }
                j += 2;
            }
            b'"' => return (j + 1, nl),
            b'\n' => {
                nl += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, nl)
}

/// Scan a raw/byte string (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`).
fn scan_prefixed_string(src: &str, i: usize) -> (usize, u32) {
    let b = src.as_bytes();
    let mut j = i;
    let mut raw = false;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return (i + 1, 0); // not actually a string; treat prefix as a char
    }
    j += 1;
    let mut nl = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            nl += 1;
            j += 1;
        } else if !raw && b[j] == b'\\' {
            j += 2;
        } else if b[j] == b'"' {
            let close = &src.as_bytes()[j + 1..];
            if close.len() >= hashes && close[..hashes].iter().all(|&c| c == b'#') {
                return (j + 1 + hashes, nl);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, nl)
}

/// Disambiguate `'a'` / `'('` / `'…'` (char literals) from `'a` (lifetime)
/// at `i`.
fn scan_quote(src: &str, i: usize) -> (usize, TokKind) {
    let b = src.as_bytes();
    if i + 1 >= b.len() {
        return (i + 1, TokKind::Punct);
    }
    if b[i + 1] == b'\\' {
        // Escaped char literal: skip to the closing quote.
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return ((j + 1).min(b.len()), TokKind::Literal);
    }
    // A quote exactly one character later closes a char literal — any
    // character, including punctuation (`b'"'`) and multi-byte ones.
    let ch = src[i + 1..].chars().next().unwrap_or('\0');
    let after = i + 1 + ch.len_utf8();
    if ch != '\'' && after < b.len() && b[after] == b'\'' {
        return (after + 1, TokKind::Literal);
    }
    // Otherwise it is a lifetime or loop label.
    let mut j = i + 1;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    if j == i + 1 {
        (i + 1, TokKind::Punct) // stray quote
    } else {
        (j, TokKind::Lifetime)
    }
}

/// Remove every item annotated `#[cfg(test)]` (typically `mod tests { … }`)
/// from the token stream, so downstream passes only see production code.
pub(crate) fn strip_test_items(toks: Vec<Tok<'_>>) -> Vec<Tok<'_>> {
    let mut kept = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let (attr_end, is_test) = scan_attribute(&toks, i);
            if is_test {
                i = skip_item(&toks, attr_end);
                continue;
            }
        }
        kept.push(toks[i].clone());
        i += 1;
    }
    kept
}

/// From `#` at `i`, find the end of the attribute and whether it is
/// exactly `#[cfg(test)]` (the token run `cfg ( test )` — deliberately
/// not matching `cfg(not(test))` or other combinators).
pub(crate) fn scan_attribute(toks: &[Tok<'_>], i: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut is_cfg_test = false;
    while j < toks.len() {
        match toks[j].text {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, is_cfg_test);
                }
            }
            "cfg"
                if toks.get(j + 1).map(|t| t.text) == Some("(")
                    && toks.get(j + 2).map(|t| t.text) == Some("test")
                    && toks.get(j + 3).map(|t| t.text) == Some(")") =>
            {
                is_cfg_test = true;
            }
            _ => {}
        }
        j += 1;
    }
    (j, false)
}

/// Skip one item starting at `i` (past its attributes): consume any
/// further attributes, then tokens up to a `;` or through a balanced
/// `{ … }` block at nesting depth zero.
pub(crate) fn skip_item(toks: &[Tok<'_>], mut i: usize) -> usize {
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        i = scan_attribute(toks, i).0;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" => {
                let mut braces = 1usize;
                i += 1;
                while i < toks.len() && braces > 0 {
                    match toks[i].text {
                        "{" => braces += 1,
                        "}" => braces -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}
