//! Item extraction: functions, their signatures and body spans.
//!
//! This is the first layer of the semantic model the inter-procedural
//! passes (a7–a10) run on. It walks a file's token stream once,
//! tracking brace nesting, inline `mod` scopes and `impl` blocks, and
//! records every `fn` item: its (raw-identifier-normalized) name,
//! parameter names, the token span of its body, and whether it sits in
//! test-masked code. The extractor is purely lexical — generics,
//! where-clauses and return types are skipped by delimiter counting,
//! which is exact for this macro-light, `unsafe`-free workspace.

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One `fn` item in one file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the file in the workspace file list.
    pub file: usize,
    /// Function name, raw-identifier prefix stripped (`fn r#type` → `type`).
    pub name: String,
    /// Inline module path within the file (`mod a { mod b { fn f } }` →
    /// `["a", "b"]`). The file's own module identity lives in its path.
    pub modules: Vec<String>,
    /// The `Self` type name when the fn sits in an `impl` block
    /// (`impl Wal { fn append }` → `Some("Wal")`; trait impls record
    /// the implementing type, not the trait).
    pub impl_type: Option<String>,
    /// Parameter names in order, normalized; `self` is recorded as "self".
    pub params: Vec<String>,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token span of the body: indices of the opening `{` and its
    /// matching `}`, inclusive. `None` for bodyless declarations
    /// (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the `fn` keyword is inside `#[test]`/`#[cfg(test)]` code.
    pub is_test: bool,
}

impl FnItem {
    /// The crate-level grouping key derived from the file path:
    /// `crates/server/src/lib.rs` → `server`, `examples/foo.rs` →
    /// `examples`. Used by call-graph resolution to prefer same-crate
    /// candidates.
    pub fn crate_of(path: &str) -> &str {
        let mut parts = path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            Some(first) => first,
            None => "",
        }
    }
}

/// A scope opened by `{`, tracked so `mod`/`impl` membership is known
/// for each fn.
#[derive(Debug)]
enum Scope {
    /// `mod name { … }`.
    Module(String),
    /// `impl [Trait for] Type { … }`.
    Impl(Option<String>),
    /// Any other brace (fn body, block, struct literal, match, …).
    Other,
}

/// Extracts every `fn` item from `file` (index `file_idx` in the
/// workspace list). Nested fns are extracted as their own items; their
/// token spans lie inside the enclosing fn's body span.
pub fn extract_fns(file: &SourceFile, file_idx: usize) -> Vec<FnItem> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Pending scope kind decided at keyword time, applied at the next `{`.
    let mut pending: Option<Scope> = None;
    let mut module_stack: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "mod") => {
                // `mod name {` opens a module scope; `mod name;` does not.
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(Scope::Module(name.ident_name().to_string()));
                }
            }
            (TokKind::Ident, "impl") => {
                pending = Some(Scope::Impl(impl_self_type(file, i)));
            }
            (TokKind::Ident, "fn") => {
                // A `fn` keyword directly after `impl`-header tokens is
                // impossible here: `Fn`-trait bounds are `Fn`/`FnMut`
                // (uppercase) and `fn` pointer types appear in type
                // position where we still extract nothing (no name
                // ident follows — `fn(` fails the name check below).
                if let Some(item) = extract_one(file, file_idx, i, &module_stack, impl_ctx(&scopes))
                {
                    out.push(item);
                }
                // The signature-to-body scan happens again naturally via
                // the outer loop's brace tracking; no skip needed.
            }
            (TokKind::Punct, "{") => {
                let scope = pending.take().unwrap_or(Scope::Other);
                if let Scope::Module(name) = &scope {
                    module_stack.push(name.clone());
                }
                scopes.push(scope);
            }
            (TokKind::Punct, "}") => {
                if let Some(Scope::Module(_)) = scopes.last() {
                    module_stack.pop();
                }
                scopes.pop();
            }
            (TokKind::Punct, ";") => {
                // `mod name;` / `impl` can't end in `;`, but a pending
                // scope that never saw `{` is stale either way.
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The innermost `impl` self type among open scopes, unless a fn-body
/// or other brace intervenes (a closure inside a method is still in the
/// impl; a nested `mod` resets it — handled by walking from the top).
fn impl_ctx(scopes: &[Scope]) -> Option<String> {
    let mut ctx = None;
    for s in scopes {
        match s {
            Scope::Impl(t) => ctx = t.clone(),
            Scope::Module(_) => ctx = None,
            Scope::Other => {}
        }
    }
    ctx
}

/// Parses the `Self` type name of an `impl` header starting at token
/// `i` (the `impl` keyword): the last plain identifier of the type path
/// before the body `{` (or before `<` generic arguments), after `for`
/// when the header is a trait impl.
fn impl_self_type(file: &SourceFile, i: usize) -> Option<String> {
    let toks = &file.toks;
    let mut j = i + 1;
    // Skip `impl<…>` generics: balance `<`/`>` counting from an
    // immediate `<`. `->` cannot appear before the body brace here.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut depth = 1i32;
        j += 1;
        while depth > 0 {
            match toks.get(j)?.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Walk to `{`, remembering the last ident seen at angle-depth 0;
    // restart the memory after `for` (trait impls name the type there).
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(j) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") if angle <= 0 => return last,
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "for") => last = None,
            (TokKind::Ident, "where") => return last,
            (TokKind::Ident, _) if angle == 0 => {
                last = Some(t.ident_name().to_string());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Extracts the single fn whose `fn` keyword is at token `i`.
fn extract_one(
    file: &SourceFile,
    file_idx: usize,
    i: usize,
    modules: &[String],
    impl_type: Option<String>,
) -> Option<FnItem> {
    let toks = &file.toks;
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(` pointer type or malformed — not an item.
    }
    let name = name_tok.ident_name().to_string();
    // Find the parameter list `(` then scan the signature for the body
    // `{` or a terminating `;` at bracket depth 0. Only `(`/`)` and
    // `[`/`]` are balanced: `{` cannot occur in this workspace's
    // signatures (no const-generic block expressions).
    let mut j = i + 2;
    let mut params = Vec::new();
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut seen_params = false;
    let (body_open, body) = loop {
        let t = toks.get(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => {
                paren += 1;
                if paren == 1 && !seen_params {
                    seen_params = true;
                }
            }
            (TokKind::Punct, ")") => paren -= 1,
            (TokKind::Punct, "[") => bracket += 1,
            (TokKind::Punct, "]") => bracket -= 1,
            (TokKind::Punct, "{") if paren == 0 && bracket == 0 => break (j, true),
            (TokKind::Punct, ";") if paren == 0 && bracket == 0 => break (j, false),
            (TokKind::Ident, "self") if paren == 1 && seen_params && params.is_empty() => {
                params.push("self".to_string());
            }
            // A parameter name is an ident directly followed by `:`
            // (the fused `::` token cannot be confused with it).
            (TokKind::Ident, _)
                if paren == 1
                    && seen_params
                    && toks.get(j + 1).map(|n| n.text.as_str()) == Some(":") =>
            {
                params.push(t.ident_name().to_string());
            }
            _ => {}
        }
        j += 1;
    };
    let body_span = if body {
        let close = matching_brace(file, body_open)?;
        Some((body_open, close))
    } else {
        None
    };
    Some(FnItem {
        file: file_idx,
        name,
        modules: modules.to_vec(),
        impl_type,
        params,
        sig_start: i,
        body: body_span,
        line: toks[i].line,
        is_test: file.mask.get(i).copied().unwrap_or(false),
    })
}

/// Index of the `}` matching the `{` at token `open`.
pub fn matching_brace(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in file.toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn fns(src: &str) -> Vec<FnItem> {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        extract_fns(&f, 0)
    }

    #[test]
    fn plain_fn_with_params_and_body() {
        let items = fns("fn add(a: u32, b: u32) -> u32 { a + b }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "add");
        assert_eq!(items[0].params, ["a", "b"]);
        assert!(items[0].body.is_some());
        assert!(!items[0].is_test);
    }

    #[test]
    fn impl_methods_record_self_type() {
        let src = "impl Wal { fn append(&mut self, buf: &[u8]) {} }\n\
                   impl fmt::Display for Frame { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }";
        let items = fns(src);
        assert_eq!(items[0].impl_type.as_deref(), Some("Wal"));
        assert_eq!(items[0].params, ["self", "buf"]);
        assert_eq!(items[1].impl_type.as_deref(), Some("Frame"));
        assert_eq!(items[1].name, "fmt");
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let items = fns("impl<T: Clone> Ring<T> { fn push(&mut self, v: T) {} }");
        assert_eq!(items[0].impl_type.as_deref(), Some("Ring"));
    }

    #[test]
    fn inline_modules_scope_fns() {
        let items = fns("mod outer { mod inner { fn deep() {} } fn mid() {} } fn top() {}");
        assert_eq!(items[0].name, "deep");
        assert_eq!(items[0].modules, ["outer", "inner"]);
        assert_eq!(items[1].name, "mid");
        assert_eq!(items[1].modules, ["outer"]);
        assert_eq!(items[2].name, "top");
        assert!(items[2].modules.is_empty());
    }

    #[test]
    fn raw_identifier_fn_names_normalize() {
        let items = fns("fn r#type(r#else: u32) {}");
        assert_eq!(items[0].name, "type");
        assert_eq!(items[0].params, ["else"]);
    }

    #[test]
    fn let_else_does_not_end_the_body_early() {
        let src = "fn f() { let Some(x) = y else { return }; tail() } fn g() {}";
        let items = fns(src);
        assert_eq!(items.len(), 2);
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let (open, close) = items[0].body.unwrap();
        // `tail` must be inside f's body span.
        let tail = f.toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(open < tail && tail < close);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let items = fns("trait T { fn must(&self) -> u32; fn with(&self) {} }");
        assert_eq!(items[0].name, "must");
        assert!(items[0].body.is_none());
        assert_eq!(items[1].name, "with");
        assert!(items[1].body.is_some());
    }

    #[test]
    fn test_mask_flags_test_fns() {
        let items = fns("#[cfg(test)] mod tests { fn helper() {} } fn live() {}");
        assert!(items[0].is_test);
        assert!(!items[1].is_test);
    }

    #[test]
    fn where_clauses_and_array_types_are_skipped() {
        let items = fns("fn f<T>(xs: [T; 4]) -> [u8; 2] where T: Copy { loop {} }");
        assert_eq!(items[0].name, "f");
        assert_eq!(items[0].params, ["xs"]);
        assert!(items[0].body.is_some());
    }

    #[test]
    fn crate_grouping_from_paths() {
        assert_eq!(FnItem::crate_of("crates/server/src/lib.rs"), "server");
        assert_eq!(FnItem::crate_of("examples/join_demo.rs"), "examples");
    }
}
