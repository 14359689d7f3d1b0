//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! in-repo serde shim.
//!
//! The build container has no crates.io access, so `syn`/`quote` are not
//! available; this macro walks `proc_macro::TokenStream` directly. It
//! supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields (encoded as maps, in declaration order);
//! * enums whose variants are all unit variants (encoded as the variant
//!   name).
//!
//! Generics, tuple structs, data-carrying enum variants and every
//! `#[serde(...)]` attribute are intentionally unsupported and fail with a
//! clear panic at expansion time.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

enum Item {
    /// A struct and the names of its fields.
    NamedStruct { name: String, fields: Vec<String> },
    /// An enum and the names of its (unit) variants.
    Enum { name: String, variants: Vec<String> },
}

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Skips attributes (doc comments, other derives' helpers).
    fn skip_attributes(&mut self) {
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            let Some(TokenTree::Group(g)) = self.next() else {
                panic!("serde shim derive: malformed attribute");
            };
            if let Some(TokenTree::Ident(name)) = g.stream().into_iter().next() {
                if name.to_string() == "serde" {
                    panic!(
                        "serde shim derive: #[serde(...)] attributes are not supported, got #[{}]",
                        g.stream()
                    );
                }
            }
        }
    }

    /// Skips `pub`, `pub(crate)`, `pub(in ...)`.
    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde shim derive: expected identifier, got {other:?}"),
        }
    }
}

/// Splits a token stream on top-level commas.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            // The '>' of `->` / `=>` is an arrow, not a closing angle
            // bracket (its lead punct is spacing-joint).
            let arrow_tail = p.as_char() == '>'
                && matches!(
                    current.last(),
                    Some(TokenTree::Punct(prev))
                        if matches!(prev.as_char(), '-' | '=')
                            && prev.spacing() == Spacing::Joint
                );
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' if !arrow_tail => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(tok);
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parses one named field — `attrs vis name: Type` — to its name.
fn parse_named_field(tokens: Vec<TokenTree>) -> Option<String> {
    let mut c = Cursor { tokens, pos: 0 };
    c.skip_attributes();
    if c.at_end() {
        return None;
    }
    c.skip_visibility();
    let name = c.expect_ident();
    match c.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
        other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
    }
    Some(name)
}

/// Parses one variant — `attrs Name` — to its name.
fn parse_unit_variant(enum_name: &str, tokens: Vec<TokenTree>) -> Option<String> {
    let mut c = Cursor { tokens, pos: 0 };
    c.skip_attributes();
    if c.at_end() {
        return None;
    }
    let name = c.expect_ident();
    if !c.at_end() {
        panic!(
            "serde shim derive: only unit variants are supported (`{enum_name}::{name}` carries data or a discriminant)"
        );
    }
    Some(name)
}

fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.skip_attributes();
    c.skip_visibility();
    let kw = c.expect_ident();
    let name = c.expect_ident();
    if let Some(TokenTree::Punct(p)) = c.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (`{name}`)");
        }
    }
    match kw.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                fields: split_commas(g.stream())
                    .into_iter()
                    .filter_map(parse_named_field)
                    .collect(),
                name,
            },
            _ => {
                panic!("serde shim derive: only structs with named fields are supported (`{name}`)")
            }
        },
        "enum" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                variants: split_commas(g.stream())
                    .into_iter()
                    .filter_map(|tokens| parse_unit_variant(&name, tokens))
                    .collect(),
                name,
            },
            other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let mut body = format!(
                "let mut __st = ::serde::Serializer::serialize_struct(__s, \"{name}\", {}usize)?;\n",
                fields.len()
            );
            for fname in fields {
                body.push_str(&format!(
                    "::serde::ser::SerializeStruct::serialize_field(&mut __st, \"{fname}\", &self.{fname})?;\n"
                ));
            }
            body.push_str("::serde::ser::SerializeStruct::end(__st)\n");
            impl_serialize(name, &body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (idx, vname) in variants.iter().enumerate() {
                arms.push_str(&format!(
                    "{name}::{vname} => ::serde::Serializer::serialize_unit_variant(__s, \"{name}\", {idx}u32, \"{vname}\"),\n"
                ));
            }
            impl_serialize(name, &format!("match *self {{\n{arms}}}\n"))
        }
    }
}

fn impl_serialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         {body}\
         }}\n\
         }}\n"
    )
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) -> ::core::result::Result<Self, __D::Error> {{\n\
         let __c = ::serde::Deserializer::content(__d)?;\n\
         {body}\
         }}\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let mut inits = String::new();
            for fname in fields {
                inits.push_str(&format!(
                    "{fname}: {{\n\
                     let __f = ::serde::__private::find(__m, \"{fname}\")\
                     .ok_or_else(|| <__D::Error as ::serde::de::Error>::custom(\
                     \"missing field `{fname}` in {name}\"))?;\n\
                     ::serde::Deserialize::deserialize(::serde::__private::cd::<__D::Error>(__f))?\n\
                     }},\n"
                ));
            }
            let body = format!(
                "let __m = match __c {{\n\
                 ::serde::Content::Map(m) => m.as_slice(),\n\
                 _ => return Err(<__D::Error as ::serde::de::Error>::custom(\
                 format!(\"expected map for struct {name}, got {{}}\", __c.kind()))),\n\
                 }};\n\
                 Ok({name} {{\n{inits}}})\n"
            );
            impl_deserialize(name, &body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for vname in variants {
                arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
            }
            let body = format!(
                "match __c {{\n\
                 ::serde::Content::Str(__s) => match __s.as_str() {{\n\
                 {arms}\
                 __other => Err(<__D::Error as ::serde::de::Error>::custom(\
                 format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }},\n\
                 _ => Err(<__D::Error as ::serde::de::Error>::custom(\
                 format!(\"expected variant of {name}, got {{}}\", __c.kind()))),\n\
                 }}\n"
            );
            impl_deserialize(name, &body)
        }
    }
}

/// Derives `serde::Serialize` for the supported item shapes.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` for the supported item shapes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive: generated invalid Deserialize impl")
}
