//! Offline compat shim for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` with no
//! `syn`/`quote` dependency: the input item is parsed directly from the
//! `proc_macro::TokenStream` token tree and the impl is emitted as source
//! text. Supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields, tuple structs, unit structs;
//! * enums with unit, tuple, and struct variants (externally tagged, like
//!   upstream serde's default representation);
//! * arbitrary non-macro attributes on items/fields/variants (skipped);
//! * `#[serde(default)]` and `#[serde(default = "path")]` on named fields:
//!   a missing field deserializes to `Default::default()` / `path()` instead
//!   of erroring, so configs and reports stay readable across added fields.
//!   All other `#[serde(...)]` attributes are rejected at compile time;
//! * NO generics — unused in-repo.
//!
//! The generated impls target the streaming model of the in-tree `serde`
//! shim: `Serialize::serialize` writes tokens into a `serde::Writer`,
//! `Deserialize::deserialize` pulls them from a `serde::Reader` (fields in
//! any order, one `Option` slot each, so the first of a duplicate wins and
//! unknown fields are skipped after a syntax check).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

struct Field {
    name: String,
    default: FieldDefault,
}

/// How a missing field deserializes, per `#[serde(default...)]`.
enum FieldDefault {
    /// No attribute: a missing field is an error.
    Required,
    /// `#[serde(default)]`: `Default::default()`.
    DefaultTrait,
    /// `#[serde(default = "path")]`: call `path()`.
    Path(String),
}

enum Body {
    /// `struct S;`
    UnitStruct,
    /// `struct S { a: T, .. }`
    NamedStruct(Vec<Field>),
    /// `struct S(T, ..);`
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Ok(parsed) => parsed,
        Err(msg) => {
            return format!("compile_error!({:?});", msg).parse().unwrap();
        }
    };
    let code = match mode {
        Mode::Serialize => gen_serialize(&name, &body),
        Mode::Deserialize => gen_deserialize(&name, &body),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<(String, Body), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected struct/enum, got {other:?}"
            ))
        }
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected item name, got {other:?}"
            ))
        }
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive shim: generic type `{name}` is not supported (no generic derives in this workspace)"
        ));
    }

    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            None => Ok((name, Body::UnitStruct)),
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok((name, Body::UnitStruct)),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Body::NamedStruct(parse_named_fields(g.stream())?)))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok((name, Body::TupleStruct(count_tuple_fields(g.stream()))))
            }
            other => Err(format!(
                "serde_derive shim: unexpected struct body {other:?}"
            )),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Body::Enum(parse_variants(g.stream())?)))
            }
            other => Err(format!("serde_derive shim: unexpected enum body {other:?}")),
        },
        other => Err(format!(
            "serde_derive shim: unsupported item kind `{other}`"
        )),
    }
}

/// Skips any number of outer attributes (`#[...]`, including doc comments)
/// and a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` field lists (types are skipped at `<`-depth 0;
/// parenthesised types arrive as single `Group` tokens, so tuple commas
/// never leak into the split).
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let default = take_field_attrs(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive shim: expected field name, got {other:?}"
                ))
            }
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "serde_derive shim: expected `:` after field `{name}`, got {other:?}"
                ))
            }
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { name, default });
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    Ok(fields)
}

/// Like [`skip_attrs_and_vis`], but inspects `#[serde(...)]` attributes:
/// `default` / `default = "path"` are honored, anything else is rejected
/// (silently ignoring `rename`/`skip`/... would change wire format).
fn take_field_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<FieldDefault, String> {
    let mut default = FieldDefault::Required;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Bracket {
                        if let Some(d) = parse_serde_attr(g.stream())? {
                            default = d;
                        }
                        *i += 1;
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return Ok(default),
        }
    }
}

/// Parses the inside of one `#[...]`: returns `Some` for a recognized
/// `serde(default...)`, `None` for any non-serde attribute (doc, allow, ...).
fn parse_serde_attr(stream: TokenStream) -> Result<Option<FieldDefault>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis =>
        {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            match (inner.first(), inner.get(1), inner.get(2)) {
                (Some(TokenTree::Ident(kw)), None, None) if kw.to_string() == "default" => {
                    Ok(Some(FieldDefault::DefaultTrait))
                }
                (
                    Some(TokenTree::Ident(kw)),
                    Some(TokenTree::Punct(eq)),
                    Some(TokenTree::Literal(lit)),
                ) if kw.to_string() == "default" && eq.as_char() == '=' => {
                    let raw = lit.to_string();
                    let path = raw.trim_matches('"').to_string();
                    if path.is_empty() || path == raw {
                        return Err(format!(
                            "serde_derive shim: expected `default = \"path\"`, got {raw}"
                        ));
                    }
                    Ok(Some(FieldDefault::Path(path)))
                }
                _ => Err(format!(
                    "serde_derive shim: unsupported #[serde(...)] attribute `{}` (only `default` and `default = \"path\"` are implemented)",
                    g.stream()
                )),
            }
        }
        _ => Ok(None),
    }
}

/// Advances past one type, stopping at a `,` outside angle brackets.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    for tok in &tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => count += 1,
                _ => {}
            }
        }
    }
    // Tolerate a trailing comma: `struct S(T,);`
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive shim: expected variant name, got {other:?}"
                ))
            }
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the next comma.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            while i < tokens.len() {
                if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                i += 1;
            }
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ------------------------------------------------------------- generation

/// Statements writing `{"a": .., "b": ..}`; `access` turns a field name into
/// the expression that borrows it.
fn ser_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__w.begin(b'{');\n");
    for f in fields {
        code.push_str(&format!("__w.field({:?}, {});\n", f.name, access(&f.name)));
    }
    code + "__w.end(b'}');\n"
}

/// Statements writing `[.., ..]` — or the bare value for a newtype.
fn ser_items(items: &[String]) -> String {
    if let [only] = items {
        return format!("::serde::Serialize::serialize({only}, __w);\n");
    }
    let mut code = String::from("__w.begin(b'[');\n");
    for item in items {
        code.push_str(&format!("__w.item({item});\n"));
    }
    code + "__w.end(b']');\n"
}

fn gen_serialize(name: &str, body: &Body) -> String {
    let body_code = match body {
        Body::UnitStruct => "__w.literal(\"null\");".to_string(),
        Body::NamedStruct(fields) => ser_fields(fields, |n| format!("&self.{n}")),
        Body::TupleStruct(n) => {
            ser_items(&(0..*n).map(|k| format!("&self.{k}")).collect::<Vec<_>>())
        }
        Body::Enum(variants) => {
            let mut code = String::from("match self {\n");
            for v in variants {
                let vn = &v.name;
                let (pattern, payload) = match &v.kind {
                    VariantKind::Unit => {
                        code.push_str(&format!("{name}::{vn} => __w.str({vn:?}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        (format!("({})", binds.join(", ")), ser_items(&binds))
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let pattern = format!("{{ {} }}", binds.join(", "));
                        (pattern, ser_fields(fields, str::to_string))
                    }
                };
                code.push_str(&format!(
                    "{name}::{vn}{pattern} => {{ __w.begin(b'{{'); __w.key({vn:?});\n{payload}__w.end(b'}}'); }}\n"
                ));
            }
            code + "}"
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n    fn serialize(&self, __w: &mut ::serde::Writer) {{\n        {body_code}\n    }}\n}}\n"
    )
}

/// A block expression reading `{"a": .., "b": ..}` into `path { a, b }`.
fn de_fields(path: &str, fields: &[Field]) -> String {
    let mut code = String::from("{\n");
    for f in fields {
        code.push_str(&format!(
            "let mut __f_{} = ::std::option::Option::None;\n",
            f.name
        ));
    }
    code.push_str(&format!(
        "__r.begin(b'{{', \"object for struct {path}\")?;\nwhile let ::std::option::Option::Some(__key) = __r.next_key()? {{\nmatch &*__key {{\n"
    ));
    for f in fields {
        code.push_str(&format!(
            "{n:?} if __f_{n}.is_none() => __f_{n} = ::std::option::Option::Some(::serde::de::field(__r, {n:?}, {path:?})?),\n",
            n = f.name
        ));
    }
    code.push_str(&format!("_ => __r.skip_value()?,\n}}\n}}\n{path} {{\n"));
    for f in fields {
        let n = &f.name;
        code.push_str(&match &f.default {
            FieldDefault::Required => format!(
                "{n}: match __f_{n} {{ ::std::option::Option::Some(__v) => __v, ::std::option::Option::None => return ::std::result::Result::Err(::serde::de::missing({n:?}, {path:?})) }},\n"
            ),
            FieldDefault::DefaultTrait => format!("{n}: __f_{n}.unwrap_or_default(),\n"),
            FieldDefault::Path(default) => format!("{n}: __f_{n}.unwrap_or_else({default}),\n"),
        });
    }
    code + "}\n}"
}

/// A block expression reading `[.., ..]` into `path(.., ..)` — or the bare
/// value into a newtype.
fn de_items(path: &str, n: usize) -> String {
    if n == 1 {
        return format!("{path}(::serde::Deserialize::deserialize(__r)?)");
    }
    let items = format!("::serde::de::element(__r, {path:?})?, ").repeat(n);
    format!(
        "{{ __r.begin(b'[', \"array for {path}\")?;\nlet __v = {path}({items});\n::serde::de::end_elements(__r, {path:?})?;\n__v }}"
    )
}

fn gen_deserialize(name: &str, body: &Body) -> String {
    let body_code = match body {
        Body::UnitStruct => format!(
            "if __r.literal(\"null\") {{ {name} }} else {{ return ::std::result::Result::Err(__r.unexpected(\"null for unit struct {name}\")) }}"
        ),
        Body::NamedStruct(fields) => de_fields(name, fields),
        Body::TupleStruct(n) => de_items(name, *n),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let path = format!("{name}::{}", v.name);
                let (payload, value) = match &v.kind {
                    VariantKind::Unit => (false, path.clone()),
                    VariantKind::Tuple(n) => (true, de_items(&path, *n)),
                    VariantKind::Struct(fields) => (true, de_fields(&path, fields)),
                };
                arms.push_str(&format!("({:?}, {payload}) => {value},\n", v.name));
            }
            format!(
                "{{ let (__tag, __payload) = ::serde::de::variant(__r, {name:?})?;\nlet __v = match (&*__tag, __payload) {{\n{arms}(__other, _) => return ::std::result::Result::Err(::serde::de::unknown_variant(__other, __payload, {name:?})),\n}};\nif __payload {{ ::serde::de::end_variant(__r, {name:?})?; }}\n__v }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n    fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::de::Error> {{\n        ::std::result::Result::Ok({body_code})\n    }}\n}}\n"
    )
}
