//! The item-level AST the parser produces and the rules consume.
//!
//! This is deliberately *not* a full Rust AST: the interprocedural
//! analyses need item boundaries, function facts (name, arity, body
//! extent), the call sites inside each body, and `use` declarations
//! for path resolution — nothing below expression granularity.
//! Everything carries a [`Span`] back into the source so findings stay
//! clickable, and every node is a plain value (`PartialEq`, no
//! interning) so golden dumps and property tests can compare whole
//! trees.

/// A source extent: byte offsets plus the 1-based line/column of its
/// first token, as produced by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset one past the last byte (exclusive).
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based byte column of `start` within its line.
    pub col: u32,
}

/// One parsed file: a tree of items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (possibly nested inside a `mod`, `impl`, or `trait`).
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// The item's name (`""` for anonymous items such as foreign
    /// blocks or trait impls of unnamed kinds).
    pub name: String,
    /// Extent of the whole item, attributes excluded.
    pub span: Span,
    /// What the item is, with kind-specific facts.
    pub kind: ItemKind,
}

/// Item classification at the granularity the rules need.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    /// `fn name(...) { ... }` (or a bodyless trait method).
    Fn(FnDef),
    /// `impl Type { ... }` / `impl Trait for Type { ... }`.
    Impl(ImplDef),
    /// `mod name { ... }` (items) or `mod name;` (empty).
    Mod(Vec<Item>),
    /// `trait Name { ... }` with its default methods.
    Trait(Vec<Item>),
    /// `use path::{...};` with the names it brings into scope.
    Use(UseDef),
    /// An item-position macro invocation, `name! { ... }`.
    MacroCall,
    /// `macro_rules! name { ... }`.
    MacroDef,
    /// `const NAME: T = ...;`
    Const,
    /// `static NAME: T = ...;`
    Static,
    /// `struct` / `enum` / `union` definition.
    Type,
    /// `type Alias = ...;`
    TypeAlias,
    /// Anything else the parser recognized enough to skip soundly
    /// (`extern` blocks, `extern crate`, stray tokens).
    Other,
}

/// Facts about one `fn`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnDef {
    /// Parameter count, `self` excluded.
    pub params: usize,
    /// Whether the first parameter is (any flavor of) `self`.
    pub has_self: bool,
    /// Extent of the `{ ... }` body; `None` for bodyless trait methods.
    pub body: Option<Span>,
    /// Call sites inside the body, in source order (macro arguments
    /// included — conservative for reachability).
    pub calls: Vec<CallSite>,
    /// Macro invocations inside the body, `(name, span)`.
    pub macros: Vec<(String, Span)>,
}

/// Facts about one `impl` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplDef {
    /// Last path segment of the implemented-on type (`DecisionEngine`
    /// for `impl<'a> foo::DecisionEngine<'a>`).
    pub self_ty: String,
    /// Last path segment of the trait, for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// The associated items.
    pub items: Vec<Item>,
}

/// Facts about one `use` declaration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UseDef {
    /// `(name-in-scope, full path segments)` per leaf; a glob import
    /// records the name `*`.
    pub leaves: Vec<(String, Vec<String>)>,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Path segments of the callee: `["f"]` for `f(x)`,
    /// `["wire", "encode_into"]` for `wire::encode_into(x)`, and the
    /// bare method name for `.m(x)`.
    pub path: Vec<String>,
    /// Whether this is a `.method(...)` call.
    pub method: bool,
    /// Argument count (commas at depth 0 of the argument list;
    /// receiver excluded for method calls).
    pub args: usize,
    /// Whether the argument list contains a `|` (a closure or
    /// or-pattern makes the `args` count unreliable).
    pub opaque_args: bool,
    /// Location of the callee name.
    pub span: Span,
}

impl CallSite {
    /// The callee as written, `a::b` or `.m`.
    #[must_use]
    pub fn display(&self) -> String {
        if self.method {
            format!(".{}", self.path.join("::"))
        } else {
            self.path.join("::")
        }
    }
}

impl Ast {
    /// Depth-first walk over every item, parents before children.
    pub fn walk(&self, mut visit: impl FnMut(&Item)) {
        fn go(items: &[Item], visit: &mut impl FnMut(&Item)) {
            for item in items {
                visit(item);
                match &item.kind {
                    ItemKind::Impl(i) => go(&i.items, visit),
                    ItemKind::Mod(items) | ItemKind::Trait(items) => go(items, visit),
                    _ => {}
                }
            }
        }
        go(&self.items, &mut visit);
    }

    /// Total item count, nested items included. Deterministic for a
    /// given input (pinned by the parser property tests).
    #[must_use]
    pub fn item_count(&self) -> usize {
        let mut n = 0usize;
        self.walk(|_| n += 1);
        n
    }

    /// A stable, human-diffable dump of the tree — the golden-test
    /// format. One line per item; function lines carry arity, body
    /// presence, and the resolved call list so a parser regression
    /// shows up as a one-line diff.
    #[must_use]
    pub fn render(&self) -> String {
        fn go(items: &[Item], depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let pad = "  ".repeat(depth);
            for item in items {
                match &item.kind {
                    ItemKind::Fn(f) => {
                        let _ = write!(
                            out,
                            "{pad}fn {}/{}{} [L{}]",
                            item.name,
                            f.params,
                            if f.has_self { " self" } else { "" },
                            item.span.line
                        );
                        if f.body.is_none() {
                            out.push_str(" no-body");
                        }
                        if !f.calls.is_empty() {
                            let calls: Vec<String> =
                                f.calls.iter().map(CallSite::display).collect();
                            let _ = write!(out, " calls=[{}]", calls.join(", "));
                        }
                        if !f.macros.is_empty() {
                            let macros: Vec<&str> =
                                f.macros.iter().map(|(n, _)| n.as_str()).collect();
                            let _ = write!(out, " macros=[{}]", macros.join(", "));
                        }
                        out.push('\n');
                    }
                    ItemKind::Impl(i) => {
                        let _ = match &i.trait_name {
                            Some(t) => {
                                writeln!(
                                    out,
                                    "{pad}impl {} for {} [L{}]",
                                    t, i.self_ty, item.span.line
                                )
                            }
                            None => writeln!(out, "{pad}impl {} [L{}]", i.self_ty, item.span.line),
                        };
                        go(&i.items, depth + 1, out);
                    }
                    ItemKind::Mod(items) => {
                        let _ = writeln!(out, "{pad}mod {} [L{}]", item.name, item.span.line);
                        go(items, depth + 1, out);
                    }
                    ItemKind::Trait(items) => {
                        let _ = writeln!(out, "{pad}trait {} [L{}]", item.name, item.span.line);
                        go(items, depth + 1, out);
                    }
                    ItemKind::Use(u) => {
                        let leaves: Vec<String> = u
                            .leaves
                            .iter()
                            .map(|(name, path)| {
                                let joined = path.join("::");
                                if *name == path.last().cloned().unwrap_or_default() {
                                    joined
                                } else {
                                    format!("{joined} as {name}")
                                }
                            })
                            .collect();
                        let _ = writeln!(
                            out,
                            "{pad}use [{}] [L{}]",
                            leaves.join(", "),
                            item.span.line
                        );
                    }
                    ItemKind::MacroCall => {
                        let _ =
                            writeln!(out, "{pad}macro-call {}! [L{}]", item.name, item.span.line);
                    }
                    ItemKind::MacroDef => {
                        let _ =
                            writeln!(out, "{pad}macro-def {}! [L{}]", item.name, item.span.line);
                    }
                    ItemKind::Const => {
                        let _ = writeln!(out, "{pad}const {} [L{}]", item.name, item.span.line);
                    }
                    ItemKind::Static => {
                        let _ = writeln!(out, "{pad}static {} [L{}]", item.name, item.span.line);
                    }
                    ItemKind::Type => {
                        let _ = writeln!(out, "{pad}type {} [L{}]", item.name, item.span.line);
                    }
                    ItemKind::TypeAlias => {
                        let _ =
                            writeln!(out, "{pad}type-alias {} [L{}]", item.name, item.span.line);
                    }
                    ItemKind::Other => {
                        let _ = writeln!(out, "{pad}other {} [L{}]", item.name, item.span.line);
                    }
                }
            }
        }
        let mut out = String::new();
        go(&self.items, 0, &mut out);
        out
    }
}
