//! A recursive-descent item parser over the lexer's token stream.
//!
//! The contract mirrors the lexer's: arbitrary input must never panic
//! or hang (every loop provably makes progress, nesting depth is
//! bounded), spans always point back into the real source, and parsing
//! is deterministic. Fidelity is bounded by what the interprocedural
//! rules consume — items, function facts, call sites, `use` leaves —
//! so expression structure beyond calls is deliberately skipped
//! token-wise. Two Rust-grammar subtleties the rules depend on are
//! handled properly: `->` inside generics must not close an
//! angle-bracket balance, and turbofish (`::<T>`) must not hide a call
//! site.

use crate::ast::{Ast, CallSite, FnDef, ImplDef, Item, ItemKind, Span, UseDef};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Rust keywords: excluded as call names and item names.
const KEYWORDS: [&str; 40] = [
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Item nesting deeper than this is skipped as [`ItemKind::Other`]
/// (arbitrary fuzz input can nest `mod a { mod a { ...` without bound;
/// real code never approaches this).
const MAX_ITEM_DEPTH: usize = 64;

/// Parses one analyzed file into its item tree.
#[must_use]
pub fn parse(file: &SourceFile) -> Ast {
    // The parser sees code tokens with attribute bodies removed: `#`,
    // `[`, `]` and everything between never reach item dispatch, so
    // `#[derive(Debug)]` cannot masquerade as an item or a call.
    let toks: Vec<&Token> = file
        .code
        .iter()
        .map(|&i| &file.tokens[i])
        .filter(|t| !file.in_attr(t.start))
        .collect();
    let mut p = Parser {
        text: &file.text,
        toks,
        pos: 0,
    };
    Ast {
        items: p.items(0, false),
    }
}

struct Parser<'a> {
    text: &'a str,
    toks: Vec<&'a Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn tok(&self, at: usize) -> Option<&'a Token> {
        self.toks.get(at).copied()
    }

    fn txt(&self, at: usize) -> &'a str {
        self.tok(at).map_or("", |t| t.text(self.text))
    }

    fn kind(&self, at: usize) -> Option<TokenKind> {
        self.tok(at).map(|t| t.kind)
    }

    fn span_from(&self, start: usize) -> Span {
        let first = self.tok(start).or_else(|| self.toks.last().copied());
        let last = self
            .tok(self.pos.saturating_sub(1))
            .or_else(|| self.toks.last().copied());
        match (first, last) {
            (Some(f), Some(l)) => Span {
                start: f.start,
                end: l.end.max(f.start),
                line: f.line,
                col: f.col,
            },
            _ => Span::default(),
        }
    }

    /// Two tokens form a composite operator only when adjacent in the
    /// source (`=` `>` is `=>` only without intervening space/comment).
    fn adjacent(&self, at: usize) -> bool {
        match (self.tok(at), self.tok(at + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    /// Parses items until end of input (or, inside a block, the closing
    /// `}`, which is consumed). Progress is guaranteed: an iteration
    /// that recognizes nothing advances one token.
    fn items(&mut self, depth: usize, in_block: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while self.pos < self.toks.len() {
            if in_block && self.txt(self.pos) == "}" {
                self.pos += 1;
                return out;
            }
            let before = self.pos;
            if let Some(item) = self.item(depth) {
                out.push(item);
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        out
    }

    /// Tries to parse one item at the cursor. Returns `None` (without
    /// necessarily consuming anything) when the cursor is not at a
    /// recognizable item head.
    fn item(&mut self, depth: usize) -> Option<Item> {
        let start = self.pos;
        self.skip_qualifiers();
        let kw = self.txt(self.pos);
        if self.kind(self.pos) != Some(TokenKind::Ident) {
            self.pos = start;
            return None;
        }
        let item = match kw {
            "fn" => self.fn_item(start),
            "impl" => self.impl_item(start, depth),
            "mod" => self.mod_item(start, depth),
            "trait" => self.trait_item(start, depth),
            "use" => self.use_item(start),
            "struct" | "enum" | "union" => self.type_item(start),
            "const" | "static" => self.const_item(start, kw == "static"),
            "type" => self.alias_item(start),
            "macro_rules" => self.macro_def_item(start),
            "extern" => {
                // `extern crate x;` or a foreign block `extern "C" { .. }`
                // (qualifier skipping already ate `extern "C"` when a
                // real item follows, so reaching here means the block
                // form or `extern crate`).
                self.pos += 1;
                self.skip_to_semi_or_block();
                Some(Item {
                    name: String::new(),
                    span: self.span_from(start),
                    kind: ItemKind::Other,
                })
            }
            _ => {
                // Item-position macro invocation: `name!` + delimiter.
                if self.txt(self.pos + 1) == "!"
                    && !KEYWORDS.contains(&kw)
                    && matches!(self.txt(self.pos + 2), "(" | "[" | "{")
                {
                    let name = kw.to_owned();
                    self.pos += 2;
                    self.skip_balanced();
                    if self.txt(self.pos) == ";" {
                        self.pos += 1;
                    }
                    Some(Item {
                        name,
                        span: self.span_from(start),
                        kind: ItemKind::MacroCall,
                    })
                } else {
                    self.pos = start;
                    None
                }
            }
        };
        item
    }

    /// Skips visibility and function/impl qualifiers: `pub`,
    /// `pub(crate)`, `default`, `const`, `async`, `unsafe`, and
    /// `extern "C"` *when an item keyword follows* (so a bare foreign
    /// block still dispatches as `extern`).
    fn skip_qualifiers(&mut self) {
        loop {
            match self.txt(self.pos) {
                "pub" => {
                    self.pos += 1;
                    if self.txt(self.pos) == "(" {
                        self.skip_balanced();
                    }
                }
                "default" | "async" | "unsafe" => self.pos += 1,
                "const" if self.txt(self.pos + 1) == "fn" => self.pos += 1,
                "extern"
                    if self.kind(self.pos + 1) == Some(TokenKind::Str)
                        && self.txt(self.pos + 2) == "fn" =>
                {
                    self.pos += 2;
                }
                _ => return,
            }
        }
    }

    fn fn_item(&mut self, start: usize) -> Option<Item> {
        self.pos += 1; // `fn`
        if self.kind(self.pos) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.txt(self.pos).to_owned();
        self.pos += 1;
        if self.txt(self.pos) == "<" {
            self.skip_angles();
        }
        let mut def = FnDef::default();
        if self.txt(self.pos) == "(" {
            let (params, has_self) = self.fn_params();
            def.params = params;
            def.has_self = has_self;
        }
        // Return type and where clause: skip to the body `{` or a `;`.
        loop {
            match self.txt(self.pos) {
                "" | ";" => {
                    if self.txt(self.pos) == ";" {
                        self.pos += 1;
                    }
                    break;
                }
                "{" => {
                    let body_start = self.pos;
                    self.skip_balanced();
                    let body = self.body_span(body_start);
                    self.scan_body(body_start, &mut def);
                    def.body = Some(body);
                    break;
                }
                "<" => self.skip_angles(),
                "(" | "[" => self.skip_balanced(),
                _ => self.pos += 1,
            }
        }
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::Fn(def),
        })
    }

    /// At `(`: counts parameters and detects `self`. Commas inside
    /// nested delimiters or generics do not count.
    fn fn_params(&mut self) -> (usize, bool) {
        let close = self.matching_close(self.pos);
        let mut i = self.pos + 1;
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut commas = 0usize;
        let mut any = false;
        let mut has_self = false;
        while i < close {
            let t = self.txt(i);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" => {
                    let arrow = i > 0 && self.txt(i - 1) == "-" && self.adjacent(i - 1);
                    if !arrow && angle > 0 {
                        angle -= 1;
                    }
                }
                "," if depth == 0 && angle == 0 => {
                    commas += 1;
                    i += 1;
                    continue;
                }
                "self" if depth == 0 && angle == 0 && commas == 0 => has_self = true,
                _ => {}
            }
            if t != "," {
                any = true;
            }
            i += 1;
        }
        self.pos = close.saturating_add(1).min(self.toks.len());
        if !any {
            return (0, false);
        }
        // A trailing comma leaves an empty final segment.
        let trailing_comma = close > 0 && self.txt(close - 1) == ",";
        let segments = commas + 1 - usize::from(trailing_comma && commas > 0);
        (segments.saturating_sub(usize::from(has_self)), has_self)
    }

    fn impl_item(&mut self, start: usize, depth: usize) -> Option<Item> {
        self.pos += 1; // `impl`
        if self.txt(self.pos) == "<" {
            self.skip_angles();
        }
        // First path: the trait (if `for` follows) or the self type.
        let first = self.type_path_head();
        let (trait_name, self_ty) = if self.txt(self.pos) == "for" {
            self.pos += 1;
            let second = self.type_path_head();
            (Some(first), second)
        } else {
            (None, first)
        };
        // Where clause.
        while !matches!(self.txt(self.pos), "" | "{" | ";") {
            match self.txt(self.pos) {
                "<" => self.skip_angles(),
                "(" | "[" => self.skip_balanced(),
                _ => self.pos += 1,
            }
        }
        let items = if self.txt(self.pos) == "{" {
            self.pos += 1;
            if depth >= MAX_ITEM_DEPTH {
                self.pos -= 1;
                self.skip_balanced();
                Vec::new()
            } else {
                self.items(depth + 1, true)
            }
        } else {
            if self.txt(self.pos) == ";" {
                self.pos += 1;
            }
            Vec::new()
        };
        Some(Item {
            name: self_ty.clone(),
            span: self.span_from(start),
            kind: ItemKind::Impl(ImplDef {
                self_ty,
                trait_name: trait_name.filter(|t| !t.is_empty()),
                items,
            }),
        })
    }

    /// Reads a type path up to `for` / `where` / `{` / `;` / end,
    /// returning its last identifier (generic arguments skipped, so
    /// `foo::Bar<Baz>` yields `Bar`, and `&'a mut T` yields `T`).
    fn type_path_head(&mut self) -> String {
        let mut last = String::new();
        while self.pos < self.toks.len() {
            match self.txt(self.pos) {
                "for" | "where" | "{" | ";" | "" => break,
                "<" => self.skip_angles(),
                "(" | "[" => self.skip_balanced(),
                t => {
                    if self.kind(self.pos) == Some(TokenKind::Ident) && !KEYWORDS.contains(&t) {
                        last = t.to_owned();
                    }
                    self.pos += 1;
                }
            }
        }
        last
    }

    fn mod_item(&mut self, start: usize, depth: usize) -> Option<Item> {
        self.pos += 1; // `mod`
        if self.kind(self.pos) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.txt(self.pos).to_owned();
        self.pos += 1;
        let items = match self.txt(self.pos) {
            "{" => {
                self.pos += 1;
                if depth >= MAX_ITEM_DEPTH {
                    self.pos -= 1;
                    self.skip_balanced();
                    Vec::new()
                } else {
                    self.items(depth + 1, true)
                }
            }
            ";" => {
                self.pos += 1;
                Vec::new()
            }
            _ => Vec::new(),
        };
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::Mod(items),
        })
    }

    fn trait_item(&mut self, start: usize, depth: usize) -> Option<Item> {
        self.pos += 1; // `trait`
        if self.kind(self.pos) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.txt(self.pos).to_owned();
        self.pos += 1;
        // Generics, supertrait bounds, where clause.
        while !matches!(self.txt(self.pos), "" | "{" | ";") {
            match self.txt(self.pos) {
                "<" => self.skip_angles(),
                "(" | "[" => self.skip_balanced(),
                _ => self.pos += 1,
            }
        }
        let items = if self.txt(self.pos) == "{" {
            self.pos += 1;
            if depth >= MAX_ITEM_DEPTH {
                self.pos -= 1;
                self.skip_balanced();
                Vec::new()
            } else {
                self.items(depth + 1, true)
            }
        } else {
            if self.txt(self.pos) == ";" {
                self.pos += 1;
            }
            Vec::new()
        };
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::Trait(items),
        })
    }

    fn use_item(&mut self, start: usize) -> Option<Item> {
        self.pos += 1; // `use`
        let mut def = UseDef::default();
        let mut prefix = Vec::new();
        self.use_tree(&mut prefix, &mut def, 0);
        if self.txt(self.pos) == ";" {
            self.pos += 1;
        }
        Some(Item {
            name: def
                .leaves
                .first()
                .map(|(n, _)| n.clone())
                .unwrap_or_default(),
            span: self.span_from(start),
            kind: ItemKind::Use(def),
        })
    }

    /// Parses one `use`-tree level: `a::b::{c, d as e, *}`. Stops at
    /// `;`, `,` (at this level), `}` or end of input.
    fn use_tree(&mut self, prefix: &mut Vec<String>, def: &mut UseDef, depth: usize) {
        let base_len = prefix.len();
        loop {
            let t = self.txt(self.pos);
            match t {
                "" | ";" | "," | "}" => break,
                "{" => {
                    self.pos += 1;
                    if depth >= MAX_ITEM_DEPTH {
                        self.pos -= 1;
                        self.skip_balanced();
                        break;
                    }
                    loop {
                        self.use_tree(prefix, def, depth + 1);
                        match self.txt(self.pos) {
                            "," => {
                                self.pos += 1;
                                prefix.truncate(base_len);
                            }
                            "}" => {
                                self.pos += 1;
                                break;
                            }
                            _ => break,
                        }
                    }
                    prefix.truncate(base_len);
                    return;
                }
                "*" => {
                    self.pos += 1;
                    def.leaves.push(("*".to_owned(), prefix.clone()));
                    prefix.truncate(base_len);
                    return;
                }
                "as" => {
                    self.pos += 1;
                    let alias = if self.kind(self.pos) == Some(TokenKind::Ident) {
                        let a = self.txt(self.pos).to_owned();
                        self.pos += 1;
                        a
                    } else {
                        String::new()
                    };
                    if !alias.is_empty() {
                        def.leaves.push((alias, prefix.clone()));
                    }
                    prefix.truncate(base_len);
                    return;
                }
                ":" => self.pos += 1,
                _ if self.kind(self.pos) == Some(TokenKind::Ident) => {
                    prefix.push(t.to_owned());
                    self.pos += 1;
                    // A leaf ends when no `::` or `as` follows.
                    if self.txt(self.pos) != ":" && self.txt(self.pos) != "as" {
                        def.leaves.push((t.to_owned(), prefix.clone()));
                        prefix.truncate(base_len);
                        return;
                    }
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        prefix.truncate(base_len);
    }

    fn type_item(&mut self, start: usize) -> Option<Item> {
        self.pos += 1; // `struct` / `enum` / `union`
        let name = if self.kind(self.pos) == Some(TokenKind::Ident) {
            let n = self.txt(self.pos).to_owned();
            self.pos += 1;
            n
        } else {
            String::new()
        };
        self.skip_to_semi_or_block();
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::Type,
        })
    }

    fn const_item(&mut self, start: usize, is_static: bool) -> Option<Item> {
        self.pos += 1; // `const` / `static`
        if self.txt(self.pos) == "mut" {
            self.pos += 1;
        }
        let name = if self.kind(self.pos) == Some(TokenKind::Ident) {
            let n = self.txt(self.pos).to_owned();
            self.pos += 1;
            n
        } else {
            String::new()
        };
        self.skip_to_semi();
        Some(Item {
            name,
            span: self.span_from(start),
            kind: if is_static {
                ItemKind::Static
            } else {
                ItemKind::Const
            },
        })
    }

    fn alias_item(&mut self, start: usize) -> Option<Item> {
        self.pos += 1; // `type`
        let name = if self.kind(self.pos) == Some(TokenKind::Ident) {
            let n = self.txt(self.pos).to_owned();
            self.pos += 1;
            n
        } else {
            String::new()
        };
        self.skip_to_semi();
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::TypeAlias,
        })
    }

    fn macro_def_item(&mut self, start: usize) -> Option<Item> {
        self.pos += 1; // `macro_rules`
        if self.txt(self.pos) == "!" {
            self.pos += 1;
        }
        let name = if self.kind(self.pos) == Some(TokenKind::Ident) {
            let n = self.txt(self.pos).to_owned();
            self.pos += 1;
            n
        } else {
            String::new()
        };
        if matches!(self.txt(self.pos), "(" | "[" | "{") {
            self.skip_balanced();
        }
        if self.txt(self.pos) == ";" {
            self.pos += 1;
        }
        Some(Item {
            name,
            span: self.span_from(start),
            kind: ItemKind::MacroDef,
        })
    }

    // ---- low-level skipping -------------------------------------------------

    /// At any token: advances past a balanced `(...)`/`[...]`/`{...}`
    /// group (or one token if not at an opener). Never recurses.
    fn skip_balanced(&mut self) {
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            match self.txt(self.pos) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
            }
            self.pos += 1;
        }
    }

    /// Token index of the `)`/`]`/`}` matching the opener at `open`
    /// (or the last token if unbalanced).
    fn matching_close(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.txt(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// At `<`: advances past the balanced generic-argument list. `->`
    /// does not close a level (`fn(T) -> U` bounds), shifts (`>>`) are
    /// two closes, and any bracketed group inside is skipped whole. A
    /// `;` or end of input bails out (malformed input must not absorb
    /// the rest of the file).
    fn skip_angles(&mut self) {
        let mut angle = 0i32;
        while self.pos < self.toks.len() {
            match self.txt(self.pos) {
                "<" => angle += 1,
                ">" => {
                    let arrow = self.pos > 0
                        && self.txt(self.pos - 1) == "-"
                        && self.adjacent(self.pos - 1);
                    if !arrow {
                        angle -= 1;
                        if angle <= 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                }
                "(" | "[" | "{" => {
                    self.skip_balanced();
                    continue;
                }
                ";" | "" => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Advances past the item tail: to just after a `;`, or past the
    /// first balanced `{...}` (struct/enum bodies), whichever first.
    fn skip_to_semi_or_block(&mut self) {
        while self.pos < self.toks.len() {
            match self.txt(self.pos) {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                "<" => self.skip_angles(),
                _ => self.pos += 1,
            }
        }
    }

    /// Advances past the next `;` at delimiter depth 0.
    fn skip_to_semi(&mut self) {
        while self.pos < self.toks.len() {
            match self.txt(self.pos) {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "(" | "[" | "{" => self.skip_balanced(),
                "<" => self.skip_angles(),
                _ => self.pos += 1,
            }
        }
    }

    /// The span of the balanced block opening at token `open` given the
    /// cursor has already been advanced past it.
    fn body_span(&self, open: usize) -> Span {
        let first = self.tok(open);
        let last = self.tok(self.pos.saturating_sub(1));
        match (first, last) {
            (Some(f), Some(l)) => Span {
                start: f.start,
                end: l.end.max(f.start),
                line: f.line,
                col: f.col,
            },
            _ => Span::default(),
        }
    }

    // ---- body facts ---------------------------------------------------------

    /// Linear scan of a function body (tokens `open ..= close`) for
    /// call sites and macro invocations. The scan is flat: nested items, closures, and macro arguments are all
    /// visited, which over-approximates reachability — exactly the
    /// conservative direction the analyses need.
    fn scan_body(&self, open: usize, def: &mut FnDef) {
        let close = self.matching_close(open);
        let mut i = open + 1;
        while i < close {
            let t = self.txt(i);
            let kind = self.kind(i);
            if kind == Some(TokenKind::Ident) {
                // Macro invocation: `name!` + delimiter.
                if self.txt(i + 1) == "!"
                    && !KEYWORDS.contains(&t)
                    && matches!(self.txt(i + 2), "(" | "[" | "{")
                {
                    def.macros.push((t.to_owned(), self.tok_span(i)));
                    i += 1; // args still scanned: calls inside count
                    continue;
                }
                // Path call: `seg::seg::name(...)`, possibly turbofish.
                if !KEYWORDS.contains(&t) && self.txt(i - 1) != "." && self.txt(i - 1) != "fn" {
                    let after = self.after_turbofish(i + 1);
                    if self.txt(after) == "(" && after < close {
                        let path = self.path_back(i);
                        let (args, opaque) = self.count_args(after, close);
                        def.calls.push(CallSite {
                            path,
                            method: false,
                            args,
                            opaque_args: opaque,
                            span: self.tok_span(i),
                        });
                    }
                }
            } else if t == "." && self.kind(i + 1) == Some(TokenKind::Ident) {
                // Method call: `.name(...)`, possibly turbofish.
                let name_at = i + 1;
                let name = self.txt(name_at);
                if !KEYWORDS.contains(&name) {
                    let after = self.after_turbofish(name_at + 1);
                    if self.txt(after) == "(" && after < close {
                        let (args, opaque) = self.count_args(after, close);
                        def.calls.push(CallSite {
                            path: vec![name.to_owned()],
                            method: true,
                            args,
                            opaque_args: opaque,
                            span: self.tok_span(name_at),
                        });
                    }
                }
                i += 2;
                continue;
            }
            i += 1;
        }
    }

    fn tok_span(&self, at: usize) -> Span {
        self.tok(at).map_or_else(Span::default, |t| Span {
            start: t.start,
            end: t.end,
            line: t.line,
            col: t.col,
        })
    }

    /// If tokens at `at` start a turbofish (`::` `<` ... `>`), the
    /// index just past it; otherwise `at` unchanged.
    fn after_turbofish(&self, at: usize) -> usize {
        if self.txt(at) == ":" && self.txt(at + 1) == ":" && self.txt(at + 2) == "<" {
            let mut angle = 0i32;
            let mut i = at + 2;
            while i < self.toks.len() {
                match self.txt(i) {
                    "<" => angle += 1,
                    ">" => {
                        let arrow = self.txt(i - 1) == "-" && self.adjacent(i - 1);
                        if !arrow {
                            angle -= 1;
                            if angle <= 0 {
                                return i + 1;
                            }
                        }
                    }
                    ";" | "" => return at,
                    _ => {}
                }
                i += 1;
            }
            at
        } else {
            at
        }
    }

    /// Walks backwards from the callee name over `seg::` pairs to build
    /// the full written path (e.g. `wire::encode_into`).
    fn path_back(&self, name_at: usize) -> Vec<String> {
        let mut rev = vec![self.txt(name_at).to_owned()];
        let mut i = name_at;
        while i >= 2
            && self.txt(i - 1) == ":"
            && self.txt(i - 2) == ":"
            && i >= 3
            && self.kind(i - 3) == Some(TokenKind::Ident)
        {
            let seg = self.txt(i - 3);
            rev.push(seg.to_owned());
            i -= 3;
        }
        rev.reverse();
        rev
    }

    /// At `(`: counts call arguments (commas at depth 1, generics and
    /// nested groups skipped) and whether a `|` makes the count opaque.
    fn count_args(&self, open: usize, limit: usize) -> (usize, bool) {
        let close = self.matching_close(open).min(limit);
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut commas = 0usize;
        let mut any = false;
        let mut opaque = false;
        let mut i = open;
        while i <= close {
            match self.txt(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                // Generics open only in a turbofish (`::<`) or nested in
                // one; any other `<` at depth 1 is a comparison.
                "<" if depth == 1 && (angle > 0 || self.txt(i - 1) == ":") => angle += 1,
                ">" if depth == 1 => {
                    let arrow = self.txt(i - 1) == "-" && self.adjacent(i - 1);
                    if !arrow && angle > 0 {
                        angle -= 1;
                    }
                }
                "|" => opaque = true,
                "," if depth == 1 && angle == 0 => commas += 1,
                "" => {}
                _ if depth >= 1 => any = true,
                _ => {}
            }
            i += 1;
        }
        if !any {
            return (0, opaque);
        }
        // A trailing comma (rustfmt's wrapped calls) leaves an empty
        // final segment, as in `fn_params`.
        let trailing_comma = close > 0 && self.txt(close - 1) == ",";
        let segments = commas + 1 - usize::from(trailing_comma && commas > 0);
        (segments, opaque)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ItemKind;

    fn ast_of(src: &str) -> Ast {
        let f = SourceFile::analyze("test.rs", "core", src.to_owned());
        parse(&f)
    }

    fn only_fn(ast: &Ast) -> FnDef {
        let mut found = None;
        ast.walk(|item| {
            if let ItemKind::Fn(f) = &item.kind {
                if found.is_none() {
                    found = Some(f.clone());
                }
            }
        });
        found.expect("fixture has a fn")
    }

    #[test]
    fn parses_fn_arity_and_self() {
        let ast = ast_of("impl S { pub fn m(&mut self, a: u32, b: Vec<(u8, u8)>) -> u32 { a } }");
        let f = only_fn(&ast);
        assert_eq!((f.params, f.has_self), (2, true));
        let ast = ast_of("fn free() {}");
        let f = only_fn(&ast);
        assert_eq!((f.params, f.has_self), (0, false));
        let ast = ast_of("fn one(map: HashMap<K, V>) {}");
        let f = only_fn(&ast);
        assert_eq!((f.params, f.has_self), (1, false));
        let ast = ast_of("fn wrapped(\n    a: u8,\n    b: u8,\n) {}");
        let f = only_fn(&ast);
        assert_eq!((f.params, f.has_self), (2, false));
    }

    #[test]
    fn generics_with_arrows_do_not_derail() {
        let ast = ast_of("fn apply<F: Fn(u32) -> u32>(f: F, x: u32) -> u32 { f(x) }");
        let f = only_fn(&ast);
        assert_eq!(f.params, 2);
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].path, vec!["f"]);
    }

    #[test]
    fn collects_path_method_and_turbofish_calls() {
        let ast = ast_of(
            "fn go() { let v = xs.iter().collect::<Vec<_>>(); wire::encode_into(&mut v, 3); helper(1, 2); }",
        );
        let f = only_fn(&ast);
        let shown: Vec<String> = f.calls.iter().map(CallSite::display).collect();
        assert_eq!(
            shown,
            vec![".iter", ".collect", "wire::encode_into", "helper"]
        );
        assert_eq!(f.calls[2].args, 2);
        assert_eq!(f.calls[3].args, 2);
    }

    #[test]
    fn trailing_comma_is_not_an_argument() {
        let ast = ast_of("fn go() { x.m(\n    a,\n    b,\n); f(a, b,); g(a); }");
        let f = only_fn(&ast);
        let args: Vec<usize> = f.calls.iter().map(|c| c.args).collect();
        assert_eq!(args, vec![2, 2, 1]);
    }

    #[test]
    fn comparisons_do_not_hide_commas() {
        let ast = ast_of("fn go() { f(a < b, c); g(Vec::<(u8, u8)>::new(), d > e, h); }");
        let f = only_fn(&ast);
        let args: Vec<(String, usize)> = f
            .calls
            .iter()
            .map(|c| (c.display(), c.args))
            .filter(|(n, _)| n.len() == 1)
            .collect();
        assert_eq!(args, vec![("f".to_owned(), 2), ("g".to_owned(), 3)]);
    }

    #[test]
    fn macro_invocations_are_recorded_and_their_args_scanned() {
        let ast = ast_of("fn go() { assert_eq!(compute(1), 2); }");
        let f = only_fn(&ast);
        assert_eq!(f.macros.len(), 1);
        assert_eq!(f.macros[0].0, "assert_eq");
        assert!(f.calls.iter().any(|c| c.path == ["compute"]));
    }

    #[test]
    fn impl_blocks_carry_trait_and_self_type() {
        let ast = ast_of("impl<'a> fmt::Display for Frame<'a> { fn fmt(&self) {} }");
        let imp = match &ast.items[0].kind {
            ItemKind::Impl(i) => i,
            other => panic!("expected impl, got {other:?}"),
        };
        assert_eq!(imp.self_ty, "Frame");
        assert_eq!(imp.trait_name.as_deref(), Some("Display"));
        assert_eq!(imp.items.len(), 1);
    }

    #[test]
    fn use_trees_expand_to_leaves() {
        let ast = ast_of("use crate::wire::{self, Frame as F, decode};\nuse std::io::*;");
        let mut leaves = Vec::new();
        ast.walk(|item| {
            if let ItemKind::Use(u) = &item.kind {
                leaves.extend(u.leaves.clone());
            }
        });
        assert!(leaves
            .iter()
            .any(|(n, p)| n == "F" && p.ends_with(&["Frame".to_owned()])));
        assert!(leaves.iter().any(|(n, _)| n == "decode"));
        assert!(leaves
            .iter()
            .any(|(n, p)| n == "*" && p == &["std".to_owned(), "io".to_owned()]));
    }

    #[test]
    fn items_inside_test_regions_still_parse() {
        // The parser sees the whole file; test filtering happens in the
        // call graph, keyed on byte spans.
        let ast = ast_of("#[cfg(test)]\nmod tests { fn check() {} }\nfn live() {}");
        assert_eq!(ast.items.len(), 2);
    }

    #[test]
    fn attributes_are_invisible_to_item_dispatch() {
        let ast = ast_of("#[derive(Debug, Clone)]\npub struct S { a: u32 }\nfn f() {}");
        assert_eq!(ast.items.len(), 2);
        assert!(matches!(ast.items[0].kind, ItemKind::Type));
    }

    #[test]
    fn arbitrary_garbage_terminates() {
        for src in [
            "}}}}",
            "fn",
            "impl impl impl",
            "use ::::{{{,,,}",
            "match { =>",
            "< < < >",
        ] {
            let _ = ast_of(src);
        }
    }

    #[test]
    fn item_count_is_stable_under_reparse() {
        let src = "mod a { fn x() {} fn y() {} } impl T { fn z(&self) {} }";
        assert_eq!(ast_of(src).item_count(), ast_of(src).item_count());
        assert_eq!(ast_of(src).item_count(), 5);
    }
}
