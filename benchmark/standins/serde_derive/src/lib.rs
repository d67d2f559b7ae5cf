//! Local stand-in for `serde_derive`, written against `proc_macro`
//! alone (no `syn`, no `quote`: neither resolves offline).
//!
//! Supports what the repository derives on: non-generic structs with
//! named fields, and enums whose variants are unit, one-field tuple or
//! struct-like. Honours `#[serde(rename_all = "snake_case")]` on the
//! type and `#[serde(default)]` on a field. Anything else is a compile
//! error naming the unsupported shape, never a silent difference.
//! Enums use serde's default externally tagged form.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    ty: String,
    default: bool,
}

enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    rename_all: Option<String>,
    body: Body,
}

/// The `key` / `key = "value"` items of every `#[serde(...)]` in a run
/// of attributes, which is consumed from `tokens[*pos..]`.
fn take_attrs(
    tokens: &[TokenTree],
    pos: &mut usize,
) -> Result<Vec<(String, Option<String>)>, String> {
    let mut items = Vec::new();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        *pos += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let is_serde =
            matches!(inner.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde");
        if !is_serde {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            return Err("malformed #[serde] attribute".into());
        };
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        for item in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match item {
                [] => {}
                [TokenTree::Ident(k)] => items.push((k.to_string(), None)),
                [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(v)]
                    if eq.as_char() == '=' =>
                {
                    let v = v.to_string();
                    items.push((k.to_string(), Some(v.trim_matches('"').to_string())));
                }
                _ => return Err("unsupported #[serde] attribute syntax".into()),
            }
        }
    }
    Ok(items)
}

/// Skips `pub`, `pub(crate)` and the like.
fn skip_vis(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let attrs = take_attrs(&tokens, &mut pos)?;
        let mut default = false;
        for (key, value) in attrs {
            match (key.as_str(), value) {
                ("default", None) => default = true,
                (other, _) => return Err(format!("unsupported field attribute serde({other})")),
            }
        }
        skip_vis(&tokens, &mut pos);
        let Some(TokenTree::Ident(name)) = tokens.get(pos) else {
            return Err("expected a field name".into());
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            _ => return Err("expected `:` after a field name".into()),
        }
        // The type runs to the next comma outside angle brackets;
        // parentheses and square brackets arrive as single groups.
        let start = pos;
        let mut angle = 0i32;
        while let Some(t) = tokens.get(pos) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                }
            }
            pos += 1;
        }
        let ty: TokenStream = tokens[start..pos].iter().cloned().collect();
        fields.push(Field {
            name: name.to_string(),
            ty: ty.to_string(),
            default,
        });
        pos += 1; // the comma, if any
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        if let Some((key, _)) = take_attrs(&tokens, &mut pos)?.first() {
            return Err(format!("unsupported variant attribute serde({key})"));
        }
        let Some(TokenTree::Ident(name)) = tokens.get(pos) else {
            return Err("expected a variant name".into());
        };
        pos += 1;
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let commas = inner
                    .iter()
                    .filter(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                    .count();
                let trailing =
                    matches!(inner.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',');
                if inner.is_empty() || commas > usize::from(trailing) {
                    return Err(format!(
                        "variant {name}: only one-field tuple variants are supported"
                    ));
                }
                Shape::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Shape::Struct(parse_fields(g.stream())?)
            }
            _ => Shape::Unit,
        };
        match tokens.get(pos) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            _ => {
                return Err(format!(
                    "variant {name}: explicit discriminants are not supported"
                ))
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    Ok(variants)
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let mut rename_all = None;
    for (key, value) in take_attrs(&tokens, &mut pos)? {
        match (key.as_str(), value) {
            ("rename_all", Some(rule)) => rename_all = Some(rule),
            (other, _) => return Err(format!("unsupported container attribute serde({other})")),
        }
    }
    skip_vis(&tokens, &mut pos);
    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    pos += 1;
    let Some(TokenTree::Ident(name)) = tokens.get(pos) else {
        return Err("expected a type name".into());
    };
    let name = name.to_string();
    pos += 1;
    let body = match tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("{name}: generic types are not supported"))
        }
        _ => {
            return Err(format!(
                "{name}: only brace-bodied structs and enums are supported"
            ))
        }
    };
    let body = match kind.as_str() {
        "struct" if rename_all.is_some() => {
            return Err(format!("{name}: rename_all on a struct is not supported"))
        }
        "struct" => Body::Struct(parse_fields(body)?),
        "enum" => Body::Enum(parse_variants(body)?),
        other => return Err(format!("cannot derive on `{other}`")),
    };
    Ok(Input {
        name,
        rename_all,
        body,
    })
}

fn rename(name: &str, rule: Option<&str>) -> Result<String, String> {
    match rule {
        None => Ok(name.to_string()),
        Some("lowercase") => Ok(name.to_lowercase()),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in name.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            Ok(out)
        }
        Some(other) => Err(format!("unsupported rename_all rule {other:?}")),
    }
}

fn finish(result: Result<String, String>) -> TokenStream {
    match result {
        Ok(code) => code.parse().expect("generated code parses"),
        Err(msg) => format!(
            "compile_error!({:?});",
            format!("serde stand-in derive: {msg}")
        )
        .parse()
        .expect("compile_error parses"),
    }
}

/// `map.serialize_entry("f", <prefix>f)?;` for each field.
fn ser_entries(fields: &[Field], prefix: &str) -> String {
    fields
        .iter()
        .map(|f| format!("__m.serialize_entry({:?}, {prefix}{})?;", f.name, f.name))
        .collect()
}

fn gen_serialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let body = match &input.body {
        Body::Struct(fields) => format!(
            "let mut __m = __s.serialize_map(::core::option::Option::Some({}))?; {} __m.end()",
            fields.len(),
            ser_entries(fields, "&self.")
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let tag = rename(&v.name, input.rename_all.as_deref())?;
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        arms += &format!("{name}::{vn} => __s.serialize_str({tag:?}),");
                    }
                    Shape::Newtype => {
                        arms += &format!(
                            "{name}::{vn}(__v) => {{ \
                               let mut __m = __s.serialize_map(::core::option::Option::Some(1))?; \
                               __m.serialize_entry({tag:?}, __v)?; __m.end() }}"
                        );
                    }
                    Shape::Struct(fields) => {
                        let decl: String = fields
                            .iter()
                            .map(|f| format!("{}: &'__a {},", f.name, f.ty))
                            .collect();
                        let names: String = fields.iter().map(|f| format!("{},", f.name)).collect();
                        arms += &format!(
                            "{name}::{vn} {{ {names} }} => {{ \
                               struct __Body<'__a> {{ {decl} }} \
                               impl<'__a> ::serde::Serialize for __Body<'__a> {{ \
                                 fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
                                   -> ::core::result::Result<__S::Ok, __S::Error> {{ \
                                   let mut __m = __s.serialize_map(::core::option::Option::Some({n}))?; \
                                   {entries} __m.end() }} }} \
                               let mut __m = __s.serialize_map(::core::option::Option::Some(1))?; \
                               __m.serialize_entry({tag:?}, &__Body {{ {names} }})?; __m.end() }}",
                            n = fields.len(),
                            entries = ser_entries(fields, "self."),
                        );
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    Ok(format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
           fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
             -> ::core::result::Result<__S::Ok, __S::Error> {{ \
             #[allow(unused_imports)] use ::serde::ser::SerializeMap as _; \
             {body} }} }}"
    ))
}

/// `Path { f: <take "f" from __m>, ... }`.
fn de_fields(path: &str, fields: &[Field]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| {
            let absent = if f.default {
                "::core::default::Default::default()".to_string()
            } else {
                format!("::serde::Deserialize::missing_field({:?})?", f.name)
            };
            format!(
                "{}: match __m.remove({:?}) {{ \
                   ::core::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?, \
                   ::core::option::Option::None => {absent} }},",
                f.name, f.name
            )
        })
        .collect();
    format!("{path} {{ {inits} }}")
}

/// Binds `__m` to the object inside `$from`, or returns a type error.
fn de_object(from: &str, what: &str) -> String {
    format!(
        "#[allow(unused_mut)] let mut __m = match {from} {{ \
           ::serde::value::Value::Object(__o) => __o, \
           __other => return ::core::result::Result::Err(\
             ::serde::de::Error::invalid_type(&__other, {what:?})) }};"
    )
}

fn gen_deserialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let body = match &input.body {
        Body::Struct(fields) => format!(
            "{} ::core::result::Result::Ok({})",
            de_object("__v", &format!("struct {name}")),
            de_fields(name, fields)
        ),
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let tag = rename(&v.name, input.rename_all.as_deref())?;
                let path = format!("{name}::{}", v.name);
                match &v.shape {
                    Shape::Unit => {
                        unit_arms += &format!("{tag:?} => ::core::result::Result::Ok({path}),");
                        tagged_arms += &format!("{tag:?} => ::core::result::Result::Ok({path}),");
                    }
                    Shape::Newtype => {
                        tagged_arms += &format!(
                            "{tag:?} => ::core::result::Result::Ok(\
                               {path}(::serde::Deserialize::from_value(__inner)?)),"
                        );
                    }
                    Shape::Struct(fields) => {
                        tagged_arms += &format!(
                            "{tag:?} => {{ {} ::core::result::Result::Ok({}) }}",
                            de_object("__inner", &format!("struct variant {path}")),
                            de_fields(&path, fields)
                        );
                    }
                }
            }
            let unknown = format!(
                "__other => ::core::result::Result::Err(::serde::de::Error::custom(\
                   ::std::format!(\"unknown variant `{{}}` of enum {name}\", __other))),"
            );
            format!(
                "match __v {{ \
                   ::serde::value::Value::String(__s) => match __s.as_str() {{ {unit_arms} {unknown} }}, \
                   ::serde::value::Value::Object(__o) if __o.len() == 1 => {{ \
                     let (__k, __inner) = __o.into_iter().next().expect(\"length checked\"); \
                     #[allow(unused_variables)] let __inner = __inner; \
                     match __k.as_str() {{ {tagged_arms} {unknown} }} }} \
                   __other => ::core::result::Result::Err(\
                     ::serde::de::Error::invalid_type(&__other, \"enum {name}\")), }}"
            )
        }
    };
    Ok(format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: ::serde::value::Value) \
             -> ::core::result::Result<Self, ::serde::de::Error> {{ {body} }} }}"
    ))
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    finish(parse_input(input).and_then(|i| gen_serialize(&i)))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    finish(parse_input(input).and_then(|i| gen_deserialize(&i)))
}
