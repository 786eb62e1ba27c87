//! The rules engine: applies the configured rules to lexed source files.
//!
//! Three exemption layers, checked in order:
//!
//! 1. **Built-in allow zones** — paths under `tests/`, `benches/`,
//!    `examples/`, `vendor/` and `target/` are never checked by pattern
//!    rules: test scaffolding legitimately unwraps, sleeps and hashes.
//! 2. **In-file test code** — `#[cfg(test)] mod … { … }` bodies are masked
//!    out, so unit tests co-located with hot-path code stay exempt.
//! 3. **Line annotations** — `// lint: allow(<rule>[, <rule>…])` suppresses
//!    the named rules on the comment's line *and* the line after it, so both
//!    trailing and preceding comment styles work.  Every annotation should
//!    carry a justification after the closing parenthesis.

use crate::config::{Config, RuleConfig};
use crate::lexer::{self, Comment, Token, TokenKind};
use std::fmt;

/// One diagnostic: `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id.
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A compiled deny pattern: a contiguous token sequence.
#[derive(Debug, Clone)]
struct Pattern {
    source: String,
    tokens: Vec<TokenKind>,
}

impl Pattern {
    /// Compile `"std :: fs"` → `[Ident(std), Punct(:), Punct(:), Ident(fs)]`.
    /// A whitespace-separated word of identifier characters matches one
    /// identifier exactly; any other word matches its characters as
    /// consecutive punctuation.
    fn compile(source: &str) -> Pattern {
        let mut tokens = Vec::new();
        for word in source.split_whitespace() {
            let is_ident = word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && word
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_alphabetic() || c == '_')
                    .unwrap_or(false);
            if is_ident {
                tokens.push(TokenKind::Ident(word.to_string()));
            } else {
                for c in word.chars() {
                    tokens.push(TokenKind::Punct(c));
                }
            }
        }
        Pattern {
            source: source.to_string(),
            tokens,
        }
    }

    fn matches_at(&self, tokens: &[Token], at: usize) -> bool {
        if at + self.tokens.len() > tokens.len() {
            return false;
        }
        self.tokens
            .iter()
            .zip(&tokens[at..])
            .all(|(want, got)| *want == got.kind)
    }
}

/// A compiled rule.
struct CompiledRule {
    config: RuleConfig,
    patterns: Vec<Pattern>,
}

/// The engine: compiled rules plus global skip list.
pub struct Engine {
    skip: Vec<String>,
    rules: Vec<CompiledRule>,
}

/// Directory components that make a path test scaffolding (built-in allow
/// zone for pattern rules).
const SCAFFOLD_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Paths never linted at all.
const HARD_SKIP: [&str; 3] = ["target", "vendor", ".git"];

impl Engine {
    /// Compile a parsed config.
    pub fn new(config: &Config) -> Engine {
        Engine {
            skip: config.skip.clone(),
            rules: config
                .rules
                .values()
                .map(|rule| CompiledRule {
                    config: rule.clone(),
                    patterns: rule.deny.iter().map(|p| Pattern::compile(p)).collect(),
                })
                .collect(),
        }
    }

    /// True if `path` (repo-relative, `/`-separated) is excluded from all
    /// linting.
    pub fn skips(&self, path: &str) -> bool {
        HARD_SKIP.iter().any(|dir| first_component_is(path, dir))
            || self.skip.iter().any(|z| zone_matches(z, path))
    }

    /// Lint one file's source text.  `path` must be repo-relative with `/`
    /// separators.
    pub fn check_file(&self, path: &str, source: &str) -> Vec<Finding> {
        if self.skips(path) {
            return Vec::new();
        }
        let lexed = lexer::lex(source);
        let scaffold = is_scaffold(path);
        let test_mask = test_code_mask(&lexed.tokens);
        let suppressions = Suppressions::collect(&lexed.comments);
        let mut findings = Vec::new();

        for rule in &self.rules {
            let in_zone = rule.config.zones.iter().any(|z| zone_matches(z, path));
            if !in_zone {
                continue;
            }
            if rule.config.allow.iter().any(|z| zone_matches(z, path)) {
                continue;
            }
            if rule.config.id == "unsafe-hygiene" {
                // Structural: applies to scaffolding too — an unsafe block in
                // a test still needs its SAFETY comment.
                findings.extend(check_unsafe_hygiene(
                    rule,
                    path,
                    &lexed.tokens,
                    &lexed.comments,
                    &suppressions,
                ));
                continue;
            }
            if scaffold {
                continue;
            }
            for (i, token) in lexed.tokens.iter().enumerate() {
                if test_mask[i] {
                    continue;
                }
                for pattern in &rule.patterns {
                    if pattern.matches_at(&lexed.tokens, i)
                        && !suppressions.allows(&rule.config.id, token.line)
                    {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: token.line,
                            rule: rule.config.id.clone(),
                            message: format!(
                                "denied pattern `{}`{}{}",
                                pattern.source,
                                if rule.config.message.is_empty() {
                                    ""
                                } else {
                                    "; "
                                },
                                rule.config.message
                            ),
                        });
                    }
                }
            }
        }
        findings.sort();
        findings.dedup();
        findings
    }

    /// Rule ids and descriptions, for `qem-lint rules`.
    pub fn catalogue(&self) -> Vec<(String, String)> {
        self.rules
            .iter()
            .map(|r| (r.config.id.clone(), r.config.description.clone()))
            .collect()
    }

    /// True if some configured rule's zones cover `path` — used by the
    /// crate-root `#![forbid(unsafe_code)]` audit to know which crates are
    /// in scope.
    pub fn unsafe_hygiene_covers(&self, path: &str) -> bool {
        self.rules
            .iter()
            .filter(|r| r.config.id == "unsafe-hygiene")
            .any(|r| r.config.zones.iter().any(|z| zone_matches(z, path)))
    }
}

/// `unsafe` tokens need an adjacent `// SAFETY:` comment (same line or one
/// of the three lines above).
fn check_unsafe_hygiene(
    rule: &CompiledRule,
    path: &str,
    tokens: &[Token],
    comments: &[Comment],
    suppressions: &Suppressions,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in tokens {
        if token.kind != TokenKind::Ident("unsafe".to_string()) {
            continue;
        }
        if suppressions.allows(&rule.config.id, token.line) {
            continue;
        }
        let justified = comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.line <= token.line
                && token.line.saturating_sub(c.line) <= 3
        });
        if !justified {
            findings.push(Finding {
                file: path.to_string(),
                line: token.line,
                rule: rule.config.id.clone(),
                message: "`unsafe` without an adjacent `// SAFETY:` justification".to_string(),
            });
        }
    }
    findings
}

/// Check a crate root for `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(source: &str) -> bool {
    let lexed = lexer::lex(source);
    let want = [
        TokenKind::Punct('#'),
        TokenKind::Punct('!'),
        TokenKind::Punct('['),
        TokenKind::Ident("forbid".to_string()),
        TokenKind::Punct('('),
        TokenKind::Ident("unsafe_code".to_string()),
        TokenKind::Punct(')'),
        TokenKind::Punct(']'),
    ];
    lexed
        .tokens
        .windows(want.len())
        .any(|w| w.iter().zip(&want).all(|(got, wanted)| got.kind == *wanted))
}

/// True if the file holds any `unsafe` token at all.
pub fn has_unsafe_token(source: &str) -> bool {
    lexer::lex(source)
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident("unsafe".to_string()))
}

/// Per-line rule suppressions from `// lint: allow(a, b)` comments.
struct Suppressions {
    /// (rule id, line) pairs; an entry on line L covers L and L+1.
    entries: Vec<(String, u32)>,
}

impl Suppressions {
    fn collect(comments: &[Comment]) -> Suppressions {
        let mut entries = Vec::new();
        for comment in comments {
            let Some(idx) = comment.text.find("lint: allow(") else {
                continue;
            };
            let rest = &comment.text[idx + "lint: allow(".len()..];
            let Some(end) = rest.find(')') else { continue };
            for rule in rest[..end].split(',') {
                entries.push((rule.trim().to_string(), comment.line));
            }
        }
        Suppressions { entries }
    }

    fn allows(&self, rule: &str, line: u32) -> bool {
        self.entries
            .iter()
            .any(|(r, l)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Mask of tokens inside `#[cfg(test)] mod … { … }` bodies.
fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(body_open) = cfg_test_mod_at(tokens, i) {
            // Mask from the attribute through the matching close brace.
            let mut depth = 0i64;
            let mut j = body_open;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let end = j.min(tokens.len().saturating_sub(1));
            for cell in mask.iter_mut().take(end + 1).skip(i) {
                *cell = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` start `#[cfg(test)] … mod <name> {`, return the index of
/// the opening brace.  Tolerates further attributes between the cfg and the
/// `mod` keyword.
fn cfg_test_mod_at(tokens: &[Token], i: usize) -> Option<usize> {
    let kind = |offset: usize| tokens.get(i + offset).map(|t| &t.kind);
    let attr = [
        TokenKind::Punct('#'),
        TokenKind::Punct('['),
        TokenKind::Ident("cfg".to_string()),
        TokenKind::Punct('('),
        TokenKind::Ident("test".to_string()),
        TokenKind::Punct(')'),
        TokenKind::Punct(']'),
    ];
    for (offset, want) in attr.iter().enumerate() {
        if kind(offset) != Some(want) {
            return None;
        }
    }
    // Skip any further `#[…]` attributes.
    let mut j = i + attr.len();
    while tokens.get(j).map(|t| &t.kind) == Some(&TokenKind::Punct('#'))
        && tokens.get(j + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('['))
    {
        let mut depth = 0i64;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    if tokens.get(j).map(|t| &t.kind) != Some(&TokenKind::Ident("mod".to_string())) {
        return None;
    }
    // mod <name> {  — a `mod name;` declaration has no body to mask.
    let open = j + 2;
    match tokens.get(open).map(|t| &t.kind) {
        Some(TokenKind::Punct('{')) => Some(open),
        _ => None,
    }
}

/// True if the path sits in a built-in scaffold directory.
fn is_scaffold(path: &str) -> bool {
    path.split('/')
        .any(|component| SCAFFOLD_DIRS.contains(&component))
}

fn first_component_is(path: &str, dir: &str) -> bool {
    path.split('/').next() == Some(dir)
}

/// Zone / allow matching: a pattern without glob characters matches the path
/// itself and anything under it (component-boundary prefix); `*` matches
/// within one component, `**` across components.
pub fn zone_matches(pattern: &str, path: &str) -> bool {
    if !pattern.contains('*') {
        return path == pattern
            || path
                .strip_prefix(pattern)
                .map(|rest| rest.starts_with('/'))
                .unwrap_or(false);
    }
    glob_match(
        &pattern.split('/').collect::<Vec<_>>(),
        &path.split('/').collect::<Vec<_>>(),
    )
}

fn glob_match(pattern: &[&str], path: &[&str]) -> bool {
    match (pattern.first(), path.first()) {
        // An exhausted pattern matched a prefix of the path: zones cover
        // everything under them, so that is a match.
        (None, _) => true,
        (Some(&"**"), _) => {
            glob_match(&pattern[1..], path) || (!path.is_empty() && glob_match(pattern, &path[1..]))
        }
        (Some(p), Some(c)) => component_match(p, c) && glob_match(&pattern[1..], &path[1..]),
        _ => false,
    }
}

fn component_match(pattern: &str, component: &str) -> bool {
    // `*`-only wildcard matching within one path component.
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == component;
    }
    let mut rest = component;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            let Some(r) = rest.strip_prefix(part) else {
                return false;
            };
            rest = r;
        } else if i == parts.len() - 1 {
            return part.is_empty() || rest.ends_with(part);
        } else if let Some(found) = rest.find(part) {
            rest = &rest[found + part.len()..];
        } else {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn engine(toml: &str) -> Engine {
        Engine::new(&config::parse(toml).expect("config parses"))
    }

    const DETERMINISM: &str = r#"
[rule.no-unordered-collections]
zones = ["crates/demo/src"]
deny = ["HashMap", "HashSet"]
message = "use BTreeMap/BTreeSet"
"#;

    #[test]
    fn fires_on_code_not_on_strings_or_comments() {
        let e = engine(DETERMINISM);
        let source = r#"
// HashMap in a comment
let s = "HashMap in a string";
let m: HashMap<u32, u32> = HashMap::new();
"#;
        let findings = e.check_file("crates/demo/src/lib.rs", source);
        // Two mentions on one line dedup to a single diagnostic.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[0].rule, "no-unordered-collections");
    }

    #[test]
    fn zones_limit_where_rules_fire() {
        let e = engine(DETERMINISM);
        assert!(e
            .check_file("crates/other/src/lib.rs", "let m = HashMap::new();")
            .is_empty());
    }

    #[test]
    fn scaffold_paths_are_exempt() {
        let e = engine(DETERMINISM);
        assert!(e
            .check_file("crates/demo/src/tests/helper.rs", "HashMap::new();")
            .is_empty());
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let e = engine(DETERMINISM);
        let source = r#"
pub fn hot() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u8, u8>::new(); }
}
"#;
        assert!(e.check_file("crates/demo/src/lib.rs", source).is_empty());
    }

    #[test]
    fn annotations_suppress_same_and_next_line() {
        let e = engine(DETERMINISM);
        let trailing =
            "let m = HashMap::new(); // lint: allow(no-unordered-collections) lookup-only";
        assert!(e.check_file("crates/demo/src/lib.rs", trailing).is_empty());
        let preceding =
            "// lint: allow(no-unordered-collections) lookup-only\nlet m = HashMap::new();";
        assert!(e.check_file("crates/demo/src/lib.rs", preceding).is_empty());
        let wrong_rule = "let m = HashMap::new(); // lint: allow(panic-policy)";
        assert_eq!(e.check_file("crates/demo/src/lib.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn multi_token_patterns() {
        let e = engine(
            r#"
[rule.panic-policy]
zones = ["crates/demo/src"]
deny = [". unwrap", "panic !"]
"#,
        );
        let source = "fn f(x: Option<u8>) -> u8 { let y = x.unwrap(); panic!(\"boom\"); }";
        let findings = e.check_file("crates/demo/src/hot.rs", source);
        assert_eq!(findings.len(), 2);
        // `unwrap_or` must not match `. unwrap`.
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(e.check_file("crates/demo/src/hot.rs", ok).is_empty());
    }

    #[test]
    fn unsafe_hygiene_wants_safety_comments() {
        let e = engine(
            r#"
[rule.unsafe-hygiene]
zones = ["crates"]
"#,
        );
        let bad = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(e.check_file("crates/demo/src/lib.rs", bad).len(), 1);
        let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(e.check_file("crates/demo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn forbid_attribute_detection() {
        assert!(has_forbid_unsafe("#![forbid(unsafe_code)]\npub fn f() {}"));
        assert!(!has_forbid_unsafe(
            "//! #![forbid(unsafe_code)] in a doc\npub fn f() {}"
        ));
        assert!(!has_forbid_unsafe("#![deny(unsafe_code)]"));
    }

    #[test]
    fn zone_glob_matching() {
        assert!(zone_matches(
            "crates/netsim/src",
            "crates/netsim/src/engine.rs"
        ));
        assert!(!zone_matches(
            "crates/netsim/src",
            "crates/netsim/srcx/e.rs"
        ));
        assert!(zone_matches("crates/*/src", "crates/quic/src/lib.rs"));
        assert!(zone_matches("**/fixtures", "crates/lint/tests/fixtures"));
        assert!(zone_matches("crates/**", "crates/a/b/c.rs"));
        assert!(!zone_matches("crates/*/src", "crates/quic/benches/b.rs"));
    }
}
