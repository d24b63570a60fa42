//! A lightweight item/attribute scanner over the token stream.
//!
//! This is not a parser — it recovers just enough structure for the
//! rules: which token ranges are test-only code (`#[cfg(test)]` /
//! `#[test]` items), where each `fn`'s body starts and ends, and which
//! inner attributes (`#![…]`) the file opens with.

use crate::lexer::{Token, TokenKind};

/// One function item: its name and the extent of its body.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_token: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the body, braces included.
    /// Empty for bodyless declarations (trait method signatures).
    pub body: (usize, usize),
}

/// Structural facts recovered from one file.
#[derive(Debug, Default)]
pub struct ScanInfo {
    /// Token ranges `[start, end)` covering test-only items.
    pub test_spans: Vec<(usize, usize)>,
    /// Every `fn` item in the file (test code included; rules filter).
    pub fns: Vec<FnInfo>,
    /// Inner attributes at the top of the file, normalized to a
    /// whitespace-free string such as `#![forbid(unsafe_code)]`.
    pub inner_attrs: Vec<String>,
}

impl ScanInfo {
    /// Whether token index `i` falls inside test-only code.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// Scans a token stream for the structure the rules need.
pub fn scan(tokens: &[Token]) -> ScanInfo {
    let mut info = ScanInfo::default();
    collect_inner_attrs(tokens, &mut info);
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "#" if is_outer_attr(tokens, i) => {
                let attr_end = attr_end(tokens, i);
                if attr_is_test(&tokens[i..attr_end]) {
                    let item_end = item_end(tokens, attr_end);
                    info.test_spans.push((i, item_end));
                    i = item_end;
                    continue;
                }
                i = attr_end;
            }
            "fn" if tokens[i].kind == TokenKind::Ident => {
                if let Some(f) = scan_fn(tokens, i) {
                    i = f.body.1.max(i + 1);
                    info.fns.push(f);
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    info
}

/// Collects leading `#![…]` inner attributes.
fn collect_inner_attrs(tokens: &[Token], info: &mut ScanInfo) {
    let mut i = 0;
    while i + 1 < tokens.len() && tokens[i].text == "#" && tokens[i + 1].text == "!" {
        let end = attr_end(tokens, i);
        let rendered: String = tokens[i..end].iter().map(|t| t.text.as_str()).collect();
        info.inner_attrs.push(rendered);
        i = end;
    }
}

/// Whether `#` at `i` opens an outer attribute `#[…]`.
fn is_outer_attr(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.text == "[")
}

/// Token index one past the attribute starting at `i` (`#` or `#!`).
fn attr_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    // j at `[`: match brackets.
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Whether an attribute's tokens mark test-only code: `#[test]`, or a
/// `#[cfg(…)]` whose arguments mention the bare ident `test`.
fn attr_is_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents[1..].contains(&"test"),
        _ => false,
    }
}

/// Token index one past the item following an attribute: skips further
/// attributes, then scans to the first `;` at depth 0 or past the
/// matching `}` of the first `{`.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len() && tokens[i].text == "#" && is_outer_attr(tokens, i) {
        i = attr_end(tokens, i);
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            ";" if depth == 0 => return i + 1,
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Scans one `fn` item starting at the `fn` keyword.
fn scan_fn(tokens: &[Token], i: usize) -> Option<FnInfo> {
    let name_tok = tokens.get(i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Find the body `{` at paren/bracket depth 0, or a `;` (no body).
    let mut j = i + 2;
    let mut paren = 0isize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => {
                return Some(FnInfo {
                    name,
                    fn_token: i,
                    line: tokens[i].line,
                    body: (j, j),
                })
            }
            "{" if paren == 0 => {
                let end = match_braces(tokens, j);
                return Some(FnInfo {
                    name,
                    fn_token: i,
                    line: tokens[i].line,
                    body: (j, end),
                });
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Token index one past the `}` matching the `{` at `open`.
fn match_braces(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_items_become_test_spans() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn also_live() {}";
        let lexed = lex(src);
        let info = scan(&lexed.tokens);
        assert_eq!(info.test_spans.len(), 1);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .unwrap();
        assert!(info.in_test_code(unwrap_idx));
        let live_idx = lexed.tokens.iter().position(|t| t.text == "live").unwrap();
        assert!(!info.in_test_code(live_idx));
    }

    #[test]
    fn test_attr_functions_are_test_spans() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn live() {}";
        let lexed = lex(src);
        let info = scan(&lexed.tokens);
        assert_eq!(info.test_spans.len(), 1);
        let assert_idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "assert")
            .unwrap();
        assert!(info.in_test_code(assert_idx));
    }

    #[test]
    fn fn_bodies_are_delimited() {
        let src = "fn a(x: [u8; 4]) -> usize { x.len() }\nfn b();";
        let lexed = lex(src);
        let info = scan(&lexed.tokens);
        assert_eq!(info.fns.len(), 2);
        assert_eq!(info.fns[0].name, "a");
        assert!(info.fns[0].body.1 > info.fns[0].body.0);
        assert_eq!(info.fns[1].body.0, info.fns[1].body.1);
    }

    #[test]
    fn fns_inside_impl_blocks_are_seen() {
        let src = "impl Foo {\nfn helper() {}\n}\n\
                   impl<E: Engine + ?Sized> Engine for std::sync::Arc<E> {\n\
                   fn prepare(&self) {}\n}";
        let info = scan(&lex(src).tokens);
        let names: Vec<&str> = info.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["helper", "prepare"]);
    }

    #[test]
    fn inner_attrs_are_collected() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\nfn x() {}";
        let info = scan(&lex(src).tokens);
        assert_eq!(
            info.inner_attrs,
            vec!["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"]
        );
    }
}
