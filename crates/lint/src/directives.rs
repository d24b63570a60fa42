//! Parsing of `mirage-lint:` control comments.
//!
//! Directives live in ordinary comments and are the only way source code
//! talks back to the linter:
//!
//! ```text
//! // mirage-lint: region(int_kernel)          — open a named region
//! // mirage-lint: end_region(int_kernel)      — close it
//! // mirage-lint: no_alloc                    — mark the next `fn`
//! // mirage-lint: allow(float_ok) -- reason   — waive one line's findings
//! ```
//!
//! `allow(...)` waivers **must** carry a `-- reason`; a reason-less
//! waiver still suppresses nothing new — it is itself reported as an
//! active `directive` finding so the tree cannot lint clean with
//! undocumented escapes.

use crate::lexer::Comment;

/// The waiver keys accepted by `allow(...)`, one per enforceable rule.
pub const WAIVER_KEYS: [&str; 5] = [
    "float_ok",
    "alloc_ok",
    "panic_ok",
    "hygiene_ok",
    "unsafe_ok",
];

/// One parsed directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `region(NAME)`: opens a named region.
    Region(String),
    /// `end_region(NAME)`: closes the innermost open region of `NAME`.
    EndRegion(String),
    /// `no_alloc`: the next `fn` must not allocate.
    NoAlloc,
    /// `allow(KEY) -- reason`: waives matching findings nearby.
    Allow {
        /// Waiver key (one of [`WAIVER_KEYS`]).
        key: String,
        /// The mandatory justification; `None` when omitted (an error).
        reason: Option<String>,
    },
    /// A `mirage-lint:` comment the parser could not understand.
    Malformed(String),
}

/// A directive plus where it came from.
#[derive(Debug, Clone)]
pub struct Directive {
    /// What the directive says.
    pub kind: DirectiveKind,
    /// 1-based line of the comment carrying it.
    pub line: u32,
    /// Whether the carrying comment stood on its own line.
    pub own_line: bool,
}

/// Extracts all directives from a file's comments.
pub fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    comments
        .iter()
        .filter_map(|c| {
            let body = comment_body(&c.text);
            let rest = body.trim_start().strip_prefix("mirage-lint:")?;
            Some(Directive {
                kind: parse_one(rest.trim()),
                line: c.line,
                own_line: c.own_line,
            })
        })
        .collect()
}

/// Strips the comment introducer (`//`, `///`, `//!`, `/*`, `/**`) and,
/// for block comments, the trailing `*/`.
fn comment_body(text: &str) -> &str {
    if let Some(rest) = text.strip_prefix("//") {
        rest.trim_start_matches(['/', '!'])
    } else if let Some(rest) = text.strip_prefix("/*") {
        rest.trim_start_matches(['*', '!'])
            .trim_end_matches('/')
            .trim_end_matches('*')
    } else {
        text
    }
}

fn parse_one(spec: &str) -> DirectiveKind {
    if spec == "no_alloc" {
        return DirectiveKind::NoAlloc;
    }
    if let Some(name) = argument(spec, "region") {
        return DirectiveKind::Region(name);
    }
    if let Some(name) = argument(spec, "end_region") {
        return DirectiveKind::EndRegion(name);
    }
    if let Some(inner) = spec.strip_prefix("allow") {
        // `allow(KEY)` optionally followed by ` -- reason`.
        let inner = inner.trim_start();
        if let Some(after_paren) = inner.strip_prefix('(') {
            if let Some(close) = after_paren.find(')') {
                let key = after_paren[..close].trim().to_string();
                let tail = after_paren[close + 1..].trim();
                if !WAIVER_KEYS.contains(&key.as_str()) {
                    return DirectiveKind::Malformed(format!(
                        "unknown waiver key {key:?} (expected one of {WAIVER_KEYS:?})"
                    ));
                }
                let reason = tail
                    .strip_prefix("--")
                    .map(str::trim)
                    .filter(|r| !r.is_empty())
                    .map(str::to_string);
                return DirectiveKind::Allow { key, reason };
            }
        }
        return DirectiveKind::Malformed(format!("malformed allow directive: {spec:?}"));
    }
    DirectiveKind::Malformed(format!("unrecognized directive: {spec:?}"))
}

/// Parses `head(ARG)` and returns `ARG`.
fn argument(spec: &str, head: &str) -> Option<String> {
    let rest = spec.strip_prefix(head)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    // `region(x) trailing garbage` is still a region — trailing prose is
    // tolerated so markers can carry a short note.
    Some(rest[..close].trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<DirectiveKind> {
        parse_directives(&lex(src).comments)
            .into_iter()
            .map(|d| d.kind)
            .collect()
    }

    #[test]
    fn parses_all_forms() {
        let kinds = parse(
            "// mirage-lint: region(int_kernel)\n\
             // mirage-lint: end_region(int_kernel)\n\
             // mirage-lint: no_alloc\n\
             // mirage-lint: allow(float_ok) -- scales are exact powers of two\n",
        );
        assert_eq!(kinds[0], DirectiveKind::Region("int_kernel".into()));
        assert_eq!(kinds[1], DirectiveKind::EndRegion("int_kernel".into()));
        assert_eq!(kinds[2], DirectiveKind::NoAlloc);
        assert_eq!(
            kinds[3],
            DirectiveKind::Allow {
                key: "float_ok".into(),
                reason: Some("scales are exact powers of two".into())
            }
        );
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let kinds = parse("// mirage-lint: allow(panic_ok)\n");
        assert_eq!(
            kinds[0],
            DirectiveKind::Allow {
                key: "panic_ok".into(),
                reason: None
            }
        );
    }

    #[test]
    fn unknown_key_is_malformed() {
        let kinds = parse("// mirage-lint: allow(everything_ok) -- trust me\n");
        assert!(matches!(kinds[0], DirectiveKind::Malformed(_)));
    }

    #[test]
    fn directives_in_strings_are_ignored() {
        let kinds = parse(r#"let s = "mirage-lint: region(int_kernel)";"#);
        assert!(kinds.is_empty());
    }

    #[test]
    fn non_directive_comments_are_ignored() {
        assert!(parse("// just a comment\n/* block */").is_empty());
    }
}
