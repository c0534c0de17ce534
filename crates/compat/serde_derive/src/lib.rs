//! Derive macros for the offline `serde` stand-in.
//!
//! Hand-rolled over `proc_macro::TokenStream` (no `syn`/`quote` available
//! offline). Supports the shapes this workspace actually derives:
//!
//! * named-field structs (any field visibility, `#[serde(skip)]` honored);
//! * enums with unit variants (serialized as the variant-name string);
//! * enums with struct or tuple variants (serialized as
//!   `{"Variant": {...}}` / `{"Variant": [...]}`).
//!
//! Generics are not supported — none of the workspace types need them.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field of a struct or struct-variant.
struct Field {
    name: String,
    skip: bool,
}

/// One parsed enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

/// Parsed item: its name and shape.
enum Item {
    Struct(String, Vec<Field>),
    Enum(String, Vec<Variant>),
}

/// Returns true if this attribute group body marks `#[serde(skip)]`.
fn is_serde_skip(tokens: &[TokenTree]) -> bool {
    // Attribute body is e.g. `serde ( skip )`.
    match tokens {
        [TokenTree::Ident(name), TokenTree::Group(args)] if name.to_string() == "serde" => args
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "skip")),
        _ => false,
    }
}

/// Consumes a leading attribute sequence, returning whether any was
/// `#[serde(skip)]`.
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> bool {
    let mut skip = false;
    while *pos + 1 < tokens.len() {
        let is_pound = matches!(&tokens[*pos], TokenTree::Punct(p) if p.as_char() == '#');
        if !is_pound {
            break;
        }
        if let TokenTree::Group(g) = &tokens[*pos + 1] {
            if g.delimiter() == Delimiter::Bracket {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                skip |= is_serde_skip(&body);
                *pos += 2;
                continue;
            }
        }
        break;
    }
    skip
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn take_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(&tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(&tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Parses the comma-separated named fields inside a brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let skip = take_attrs(&tokens, &mut pos);
        take_visibility(&tokens, &mut pos);
        let name = match &tokens[pos] {
            TokenTree::Ident(i) => i.to_string(),
            other => panic!("serde derive: expected field name, found {other}"),
        };
        pos += 1;
        // Skip `: Type` up to the next top-level comma. Generic angle
        // brackets contain no commas at token-tree depth 0 issues because
        // `<` `>` are puncts; track their nesting explicitly.
        let mut angle_depth = 0i32;
        while pos < tokens.len() {
            match &tokens[pos] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        fields.push(Field { name, skip });
    }
    fields
}

/// Counts the fields of a tuple-variant parenthesis group.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let mut count = 0;
    let mut saw_any = false;
    let mut angle_depth = 0i32;
    for t in group.stream() {
        saw_any = true;
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => count += 1,
            _ => {}
        }
    }
    if saw_any {
        count + 1
    } else {
        0
    }
}

/// Parses the enum body (brace group of variants).
fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        take_attrs(&tokens, &mut pos);
        let name = match &tokens[pos] {
            TokenTree::Ident(i) => i.to_string(),
            other => panic!("serde derive: expected variant name, found {other}"),
        };
        pos += 1;
        let kind = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantKind::Struct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantKind::Tuple(count_tuple_fields(g))
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant and the trailing comma.
        while pos < tokens.len() {
            if matches!(&tokens[pos], TokenTree::Punct(p) if p.as_char() == ',') {
                pos += 1;
                break;
            }
            pos += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    take_attrs(&tokens, &mut pos);
    take_visibility(&tokens, &mut pos);
    let keyword = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("serde derive: expected `struct` or `enum`, found {other}"),
    };
    pos += 1;
    let name = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("serde derive: expected item name, found {other}"),
    };
    pos += 1;
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde derive: generic types are not supported by the offline shim");
    }
    let body = match &tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        _ => panic!("serde derive: only brace-bodied structs and enums are supported"),
    };
    match keyword.as_str() {
        "struct" => Item::Struct(name, parse_named_fields(body)),
        "enum" => Item::Enum(name, parse_variants(body)),
        other => panic!("serde derive: cannot derive for `{other}` items"),
    }
}

fn tuple_binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("__f{i}")).collect()
}

/// Statements streaming each non-skipped field, bound to `access(name)`,
/// as one map entry.
fn ser_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| {
            format!(
                "__s.key(\"{n}\");\nserde::Serialize::serialize({v}, __s);\n",
                n = f.name,
                v = access(&f.name)
            )
        })
        .collect()
}

/// `#[derive(Serialize)]` — implements `serde::Serialize` by streaming
/// the fields, in declaration order, into the `serde::Serializer` sink.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct(name, fields) => {
            let entries = ser_fields(&fields, |n| format!("&self.{n}"));
            (name, format!("__s.begin_map();\n{entries}__s.end_map();"))
        }
        Item::Enum(name, variants) => {
            let mut arms = String::new();
            for v in &variants {
                match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!("{name}::{v} => __s.str(\"{v}\"),\n", v = v.name))
                    }
                    VariantKind::Tuple(n) => {
                        let binders = tuple_binders(*n);
                        let items: String = binders
                            .iter()
                            .map(|b| format!("serde::Serialize::serialize({b}, __s);\n"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v}({pat}) => {{\n\
                                 __s.begin_map();\n__s.key(\"{v}\");\n__s.begin_seq();\n\
                                 {items}__s.end_seq();\n__s.end_map();\n\
                             }}\n",
                            v = v.name,
                            pat = binders.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let pat = fields
                            .iter()
                            .map(|f| f.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let entries = ser_fields(fields, str::to_string);
                        arms.push_str(&format!(
                            "{name}::{v} {{ {pat} }} => {{\n\
                                 __s.begin_map();\n__s.key(\"{v}\");\n__s.begin_map();\n\
                                 {entries}__s.end_map();\n__s.end_map();\n\
                             }}\n",
                            v = v.name
                        ));
                    }
                }
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "#[allow(unused_variables)]\n\
         impl serde::Serialize for {name} {{\n\
             fn serialize<__S: serde::Serializer>(&self, __s: &mut __S) {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde derive: generated code must parse")
}

/// `#[derive(Deserialize)]` — implements `serde::Deserialize` by reading a
/// `serde::Value` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let out = match parse_item(input) {
        Item::Struct(name, fields) => {
            let inits = fields
                .iter()
                .map(|f| {
                    if f.skip {
                        format!("{}: ::core::default::Default::default()", f.name)
                    } else {
                        format!("{n}: serde::de_field(__fields, \"{n}\")?", n = f.name)
                    }
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "#[allow(unused_mut, unused_variables)]\n\
                 impl serde::Deserialize for {name} {{\n\
                     fn from_value(__value: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         let __fields = __value.as_object().ok_or_else(|| \
                             serde::DeError::expected(\"object\", __value))?;\n\
                         Ok({name} {{\n{inits}\n}})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum(name, variants) => {
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in &variants {
                match &v.kind {
                    VariantKind::Unit => unit_arms
                        .push_str(&format!("\"{v}\" => return Ok({name}::{v}),\n", v = v.name)),
                    VariantKind::Tuple(n) => {
                        let gets = (0..*n)
                            .map(|i| {
                                format!(
                                    "serde::Deserialize::from_value(__items.get({i}).ok_or_else(|| \
                                         serde::DeError::new(\"missing tuple element\"))?)?"
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        keyed_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                                 let __items = __inner.as_array().ok_or_else(|| \
                                     serde::DeError::expected(\"array\", __inner))?;\n\
                                 return Ok({name}::{v}({gets}));\n\
                             }}\n",
                            v = v.name
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let inits = fields
                            .iter()
                            .map(|f| {
                                if f.skip {
                                    format!("{}: ::core::default::Default::default()", f.name)
                                } else {
                                    format!("{n}: serde::de_field(__vfields, \"{n}\")?", n = f.name)
                                }
                            })
                            .collect::<Vec<_>>()
                            .join(",\n");
                        keyed_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                                 let __vfields = __inner.as_object().ok_or_else(|| \
                                     serde::DeError::expected(\"object\", __inner))?;\n\
                                 return Ok({name}::{v} {{\n{inits}\n}});\n\
                             }}\n",
                            v = v.name
                        ));
                    }
                }
            }
            format!(
                "#[allow(unused_mut, unused_variables)]\n\
                 impl serde::Deserialize for {name} {{\n\
                     fn from_value(__value: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         if let serde::Value::Str(__s) = __value {{\n\
                             match __s.as_str() {{\n{unit_arms}\n_ => {{}}\n}}\n\
                         }}\n\
                         if let Some(__fields) = __value.as_object() {{\n\
                             if let Some((__key, __inner)) = __fields.first() {{\n\
                                 match __key.as_str() {{\n{keyed_arms}\n_ => {{}}\n}}\n\
                             }}\n\
                         }}\n\
                         Err(serde::DeError::new(format!(\n\
                             \"no variant of {name} matches {{:?}}\", __value)))\n\
                     }}\n\
                 }}"
            )
        }
    };
    out.parse()
        .expect("serde derive: generated code must parse")
}
