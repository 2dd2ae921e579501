//! Offline shim for `serde_derive`.
//!
//! Hand-rolled proc macros (no syn/quote — the registry is unreachable)
//! covering exactly the shapes this repo derives on: structs with named
//! fields and enums with unit variants. Anything else gets a
//! `compile_error!` naming the limitation instead of a silent
//! mis-serialization.
//!
//! Generated impls target the shim `serde` crate's value-model traits
//! (`Serialize::to_value` / `Deserialize::from_value`). `#[serde(...)]`
//! attributes are accepted and ignored: a missing field reads as `Null`,
//! so the one this repo uses, `#[serde(default)]` on an `Option`, holds
//! by construction.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    /// Named-field struct: (type name, field names).
    Struct(String, Vec<String>),
    /// Unit-variant enum: (type name, variant names).
    Enum(String, Vec<String>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("shim serde_derive generated invalid Rust")
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skip any run of outer attributes (`#[...]`, including doc comments and
/// `#[default]`) and a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_attrs_and_vis(toks: &mut Tokens) -> Result<(), String> {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    _ => return Err("malformed attribute".into()),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            _ => return Ok(()),
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks)?;

    let kind = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    let body = match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("shim serde_derive: generic type `{name}` unsupported"));
        }
        _ => {
            return Err(format!("shim serde_derive: `{name}` must have a braced body (tuple/unit items unsupported)"));
        }
    };

    match kind.as_str() {
        "struct" => Ok(Item::Struct(name, parse_named_fields(body)?)),
        "enum" => Ok(Item::Enum(name, parse_unit_variants(body)?)),
        other => Err(format!("expected `struct` or `enum`, got `{other}`")),
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks)?;
        let field = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("expected `:` after field `{field}`")),
        }
        // Consume the type: everything up to the next comma at
        // angle-bracket depth 0. `>>` arrives as two separate puncts.
        let mut depth = 0i32;
        for t in toks.by_ref() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
        fields.push(field);
    }
    Ok(fields)
}

fn parse_unit_variants(body: TokenStream) -> Result<Vec<String>, String> {
    let mut toks = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks)?;
        let variant = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        match toks.next() {
            None => {
                variants.push(variant);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Explicit discriminant: skip to next comma.
                for t in toks.by_ref() {
                    if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                }
            }
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "shim serde_derive: variant `{variant}` carries data; only unit variants are supported"
                ));
            }
            other => return Err(format!("unexpected token after variant `{variant}`: {other:?}")),
        }
        variants.push(variant);
    }
    Ok(variants)
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct(name, fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), serde::Serialize::to_value(&self.{f})),"))
                .collect();
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> serde::Value {{\n\
                         serde::Value::Object(vec![{pushes}])\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum(name, variants) => {
            let arms: String = variants.iter().map(|v| format!("{name}::{v} => \"{v}\",")).collect();
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> serde::Value {{\n\
                         serde::Value::Str(match self {{ {arms} }}.to_string())\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct(name, fields) => {
            // Missing fields read as Null so `Option` fields tolerate
            // absence while everything else reports a type mismatch.
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: serde::Deserialize::from_value(\
                             v.get_field(\"{f}\").unwrap_or(&serde::Value::Null))?,"
                    )
                })
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                         if !v.is_object() {{\n\
                             return Err(serde::Error::type_mismatch(\"object\", v));\n\
                         }}\n\
                         Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum(name, variants) => {
            let arms: String = variants.iter().map(|v| format!("\"{v}\" => Ok({name}::{v}),")).collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                         match v {{\n\
                             serde::Value::Str(s) => match s.as_str() {{\n\
                                 {arms}\n\
                                 other => Err(serde::Error::custom(\
                                     format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                             }},\n\
                             _ => Err(serde::Error::type_mismatch(\"string\", v)),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
