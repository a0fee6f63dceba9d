//! Offline stand-in for `serde_derive`: generates `Serialize`/`Deserialize`
//! impls against the in-tree `serde` shim's `Content` model.
//!
//! No `syn`/`quote` — the type definition is parsed directly from the
//! `proc_macro::TokenStream`. Supported shapes are exactly the ones used in
//! this workspace: non-generic structs (named, tuple, unit) and enums with
//! unit / tuple / struct variants, externally tagged. Generics are rejected
//! with a clear panic at expansion time.
//!
//! Supported `#[serde(...)]` attributes, with real serde's meaning:
//!
//! - container `default` (the type implements `Default`): a missing field
//!   takes its value from `Default::default()`;
//! - field `default` / `default = "path"`: a missing field takes
//!   `Default::default()` / `path()`;
//! - container `deny_unknown_fields`: a key that names no field fails with
//!   "unknown field `k` in `Ty`" (a non-string key with "non-string key in
//!   `Ty`");
//! - enum `tag = "..."`: internally tagged — `{"<tag>": "<variant>", ...
//!   fields}`; unit and struct variants only;
//! - enum `rename_all = "lowercase"`: variant names are lowercased;
//! - `transparent` on a one-field struct: the struct is its field.
//!
//! Two rules differ from real serde. A defaulted field also takes its
//! default when its key is present with `null`, and an `Option` field with
//! no attribute is `None` when its key is absent. Fields serialize in
//! declaration order.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct TypeDef {
    name: String,
    attrs: Attrs,
    kind: Kind,
}

/// The `#[serde(...)]` items of one container or field.
#[derive(Debug, Default)]
struct Attrs {
    /// `Some(None)` for `default`, `Some(Some(path))` for `default = "path"`.
    default: Option<Option<String>>,
    deny_unknown_fields: bool,
    tag: Option<String>,
    /// `rename_all = "lowercase"`, the one renaming rule supported.
    lowercase: bool,
    transparent: bool,
}

#[derive(Debug)]
struct Field {
    name: String,
    default: Option<Option<String>>,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Split a token list on commas at angle-bracket depth zero. (Commas inside
/// `(..)`/`[..]`/`{..}` are already hidden inside `Group` tokens; only
/// generic argument lists like `HashMap<K, V>` need the depth counter.)
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for t in tokens {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parse the items of one `#[serde(...)]` list into `attrs`.
fn parse_serde_items(list: TokenStream, attrs: &mut Attrs) {
    for item in split_commas(list.into_iter().collect()) {
        let key = match item.first() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: malformed #[serde] item {other:?}"),
        };
        let value = match item.as_slice() {
            [_] => None,
            [_, TokenTree::Punct(eq), TokenTree::Literal(lit)] if eq.as_char() == '=' => {
                Some(lit.to_string().trim_matches('"').to_string())
            }
            _ => panic!("serde_derive shim: malformed #[serde({key} ...)]"),
        };
        match (key.as_str(), value) {
            ("default", path) => attrs.default = Some(path),
            ("deny_unknown_fields", None) => attrs.deny_unknown_fields = true,
            ("transparent", None) => attrs.transparent = true,
            ("tag", Some(tag)) => attrs.tag = Some(tag),
            ("rename_all", Some(rule)) if rule == "lowercase" => attrs.lowercase = true,
            (key, _) => panic!("serde_derive shim: unsupported attribute #[serde({key} ...)]"),
        }
    }
}

/// Collect the leading `#[serde(...)]` attributes, skip every other `#[...]`
/// attribute and `pub` / `pub(...)` visibility, and return the rest.
fn take_attrs(tokens: &[TokenTree]) -> (Attrs, &[TokenTree]) {
    let mut attrs = Attrs::default();
    let mut i = 0;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then the bracketed attribute group.
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let [TokenTree::Ident(id), TokenTree::Group(list)] = inner.as_slice() {
                        if id.to_string() == "serde" {
                            parse_serde_items(list.stream(), &mut attrs);
                        }
                    }
                }
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return (attrs, &tokens[i..]),
        }
    }
}

fn named_fields(group_tokens: Vec<TokenTree>) -> Vec<Field> {
    split_commas(group_tokens)
        .into_iter()
        .filter_map(|chunk| {
            let (attrs, chunk) = take_attrs(&chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return None,
            };
            if attrs.deny_unknown_fields || attrs.transparent || attrs.tag.is_some() {
                panic!("serde_derive shim: field `{name}` takes only #[serde(default)]");
            }
            Some(Field {
                name,
                default: attrs.default,
            })
        })
        .collect()
}

fn tuple_arity(group_tokens: Vec<TokenTree>) -> usize {
    split_commas(group_tokens)
        .into_iter()
        .filter(|c| !take_attrs(c).1.is_empty())
        .count()
}

fn parse_def(input: TokenStream) -> TypeDef {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (attrs, tokens) = take_attrs(&tokens);
    let mut it = tokens.iter();
    let keyword = loop {
        match it.next() {
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
            }
            Some(_) => {}
            None => panic!("serde_derive shim: no struct/enum keyword found"),
        }
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    let next = it.next();
    if let Some(TokenTree::Punct(p)) = next {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }
    let kind = if keyword == "enum" {
        let body = match next {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        };
        let variants = split_commas(body.into_iter().collect())
            .into_iter()
            .filter_map(|chunk| {
                let (_, chunk) = take_attrs(&chunk);
                let vname = match chunk.first() {
                    Some(TokenTree::Ident(id)) => id.to_string(),
                    _ => return None,
                };
                let shape = match chunk.get(1) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Shape::Tuple(tuple_arity(g.stream().into_iter().collect()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Shape::Named(named_fields(g.stream().into_iter().collect()))
                    }
                    _ => Shape::Unit,
                };
                Some(Variant { name: vname, shape })
            })
            .collect();
        Kind::Enum(variants)
    } else {
        match next {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(named_fields(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(tuple_arity(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            other => panic!("serde_derive shim: unsupported struct body {other:?}"),
        }
    };
    let def = TypeDef { name, attrs, kind };
    def.check_attrs();
    def
}

impl TypeDef {
    /// Reject container attributes on shapes they do not apply to.
    fn check_attrs(&self) {
        let a = &self.attrs;
        let ok = match &self.kind {
            Kind::NamedStruct(fields) => {
                a.tag.is_none()
                    && !a.lowercase
                    && !matches!(a.default, Some(Some(_)))
                    && (!a.transparent || fields.len() == 1)
            }
            Kind::TupleStruct(n) => {
                a.default.is_none()
                    && !a.deny_unknown_fields
                    && a.tag.is_none()
                    && !a.lowercase
                    && (!a.transparent || *n == 1)
            }
            Kind::UnitStruct => a.default.is_none() && !a.deny_unknown_fields && !a.transparent,
            Kind::Enum(variants) => {
                a.default.is_none()
                    && !a.transparent
                    && match a.tag {
                        Some(_) => variants.iter().all(|v| !matches!(v.shape, Shape::Tuple(_))),
                        None => !a.deny_unknown_fields,
                    }
            }
        };
        if !ok {
            panic!(
                "serde_derive shim: the #[serde(...)] attributes of `{}` do not fit its shape",
                self.name
            );
        }
    }

    /// The JSON name of variant `vn`.
    fn variant_name(&self, vn: &str) -> String {
        if self.attrs.lowercase {
            vn.to_lowercase()
        } else {
            vn.to_string()
        }
    }
}

/// `(Content::Str("key"), value)` — one serialized map entry.
fn entry(key: &str, value: &str) -> String {
    format!("(::serde::Content::Str(String::from(\"{key}\")), {value})")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::UnitStruct => "::serde::Content::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::to_content(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", items.join(", "))
        }
        Kind::NamedStruct(fields) if def.attrs.transparent => {
            format!("::serde::Serialize::to_content(&self.{})", fields[0].name)
        }
        Kind::NamedStruct(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    entry(f, &format!("::serde::Serialize::to_content(&self.{f})"))
                })
                .collect();
            format!("::serde::Content::Map(vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let (vn, json) = (&v.name, def.variant_name(&v.name));
                    let json_str = format!("::serde::Content::Str(String::from(\"{json}\"))");
                    let (pattern, fields) = match &v.shape {
                        Shape::Unit => (String::new(), Vec::new()),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            (format!("({})", binds.join(", ")), binds)
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            (format!(" {{ {} }}", binds.join(", ")), binds)
                        }
                    };
                    let value = |f: &String| format!("::serde::Serialize::to_content({f})");
                    let entries =
                        || -> Vec<String> { fields.iter().map(|f| entry(f, &value(f))).collect() };
                    let content = match (&def.attrs.tag, &v.shape) {
                        (Some(tag), _) => {
                            let mut items = vec![entry(tag, &json_str)];
                            items.extend(entries());
                            format!("::serde::Content::Map(vec![{}])", items.join(", "))
                        }
                        (None, Shape::Unit) => json_str,
                        (None, Shape::Tuple(1)) => {
                            format!(
                                "::serde::Content::Map(vec![{}])",
                                entry(&json, &value(&fields[0]))
                            )
                        }
                        (None, Shape::Tuple(_)) => {
                            let items: Vec<String> = fields.iter().map(value).collect();
                            let seq = format!("::serde::Content::Seq(vec![{}])", items.join(", "));
                            format!("::serde::Content::Map(vec![{}])", entry(&json, &seq))
                        }
                        (None, Shape::Named(_)) => {
                            let map =
                                format!("::serde::Content::Map(vec![{}])", entries().join(", "));
                            format!("::serde::Content::Map(vec![{}])", entry(&json, &map))
                        }
                    };
                    format!("{name}::{vn}{pattern} => {content},")
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim: generated Serialize impl must parse")
}

/// The body that decodes map `__c` into `ctor { fields }` under the
/// container's `attrs`: with `deny_unknown_fields`, keys other than the
/// fields (and an enum's tag) are rejected; a missing field is filled from
/// its own attribute or, under a container `default`, from `__d`.
fn named_from_map(ctor: &str, ty: &str, fields: &[Field], attrs: &Attrs) -> String {
    let container_default = attrs.default.is_some();
    let mut out = String::from("{ ");
    if attrs.deny_unknown_fields {
        let known: Vec<String> = (attrs.tag.iter().map(String::as_str))
            .chain(fields.iter().map(|f| f.name.as_str()))
            .map(|k| format!("\"{k}\""))
            .collect();
        out += &format!(
            "::serde::__deny_unknown_fields(__c, &[{}], \"{ty}\")?; ",
            known.join(", ")
        );
    }
    if container_default && fields.iter().any(|f| f.default.is_none()) {
        out += &format!("let __d = <{ctor} as ::std::default::Default>::default(); ");
    }
    let items: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            let present = format!("::serde::__default_field(__c, \"{n}\", \"{ty}\")?");
            match &f.default {
                Some(None) => format!("{n}: {present}.unwrap_or_default(),"),
                Some(Some(path)) => format!("{n}: {present}.unwrap_or_else({path}),"),
                None if container_default => format!("{n}: {present}.unwrap_or(__d.{n}),"),
                None => format!("{n}: ::serde::__field(__c, \"{n}\", \"{ty}\")?,"),
            }
        })
        .collect();
    if items.is_empty() {
        out += &format!("Ok({ctor}) }}");
    } else {
        out += &format!("Ok({ctor} {{ {} }}) }}", items.join("\n"));
    }
    out
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::UnitStruct => format!("{{ let _ = __c; Ok({name}) }}"),
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_content(__c)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&__seq[{i}])?"))
                .collect();
            format!(
                "{{ let __seq = __c.as_seq().ok_or_else(|| \
                 ::serde::DeError::expected(\"sequence\", \"{name}\", __c))?;\n\
                 if __seq.len() != {n} {{ return Err(::serde::DeError::custom(\
                 format!(\"expected {n} elements for {name}, got {{}}\", __seq.len()))); }}\n\
                 Ok({name}({})) }}",
                items.join(", ")
            )
        }
        Kind::NamedStruct(fields) if def.attrs.transparent => format!(
            "Ok({name} {{ {}: ::serde::Deserialize::from_content(__c)? }})",
            fields[0].name
        ),
        Kind::NamedStruct(fields) => named_from_map(name, name, fields, &def.attrs),
        Kind::Enum(variants) if def.attrs.tag.is_some() => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let fields: &[Field] = match &v.shape {
                        Shape::Named(fields) => fields,
                        _ => &[],
                    };
                    let ctor = format!("{name}::{}", v.name);
                    let decode = named_from_map(&ctor, name, fields, &def.attrs);
                    format!("\"{}\" => {decode},", def.variant_name(&v.name))
                })
                .collect();
            format!(
                "{{ let __tag: String = ::serde::__field(__c, \"{}\", \"{name}\")?;\n\
                 match __tag.as_str() {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }} }}",
                def.attrs.tag.as_deref().unwrap_or_default(),
                arms.join("\n")
            )
        }
        Kind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| {
                    format!(
                        "\"{}\" => Ok({name}::{}),",
                        def.variant_name(&v.name),
                        v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    let json = def.variant_name(vn);
                    match &v.shape {
                        Shape::Unit => None,
                        Shape::Tuple(1) => Some(format!(
                            "\"{json}\" => Ok({name}::{vn}(\
                             ::serde::Deserialize::from_content(__payload)?)),"
                        )),
                        Shape::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_content(&__seq[{i}])?")
                                })
                                .collect();
                            Some(format!(
                                "\"{json}\" => {{ let __seq = __payload.as_seq().ok_or_else(|| \
                                 ::serde::DeError::expected(\"sequence\", \"{name}::{vn}\", __payload))?;\n\
                                 if __seq.len() != {n} {{ return Err(::serde::DeError::custom(\
                                 format!(\"expected {n} elements for {name}::{vn}, got {{}}\", __seq.len()))); }}\n\
                                 Ok({name}::{vn}({})) }}",
                                items.join(", ")
                            ))
                        }
                        Shape::Named(fields) => Some(format!(
                            "\"{json}\" => {{ let __c = __payload; {} }},",
                            {
                                let ctor = format!("{name}::{vn}");
                                named_from_map(&ctor, &ctor, fields, &def.attrs)
                            }
                        )),
                    }
                })
                .collect();
            format!(
                "match __c {{\n\
                 ::serde::Content::Str(__s) => match __s.as_str() {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }},\n\
                 ::serde::Content::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __payload) = &__entries[0];\n\
                 let __tag = __tag.as_str().ok_or_else(|| \
                 ::serde::DeError::expected(\"string tag\", \"{name}\", __tag))?;\n\
                 match __tag {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }}\n\
                 }},\n\
                 __other => Err(::serde::DeError::expected(\"enum\", \"{name}\", __other)),\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_content(__c: &::serde::Content) -> \
         ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim: generated Deserialize impl must parse")
}
