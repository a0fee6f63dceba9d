//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! Instead of serde's visitor architecture, values serialize into a small
//! [`Content`] tree that `serde_json` (the sibling shim) renders to and
//! parses from JSON text. The derive macros (`serde_derive` shim) generate
//! `Serialize::to_content` / `Deserialize::from_content` impls against this
//! model. All producers and consumers are in-tree, so the reduced data model
//! is sufficient — and serialization of unordered containers is explicitly
//! canonicalized (sorted) so that serialized output is byte-stable, which
//! the workspace's determinism tests rely on.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serializable value lowers into.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Key-value pairs in serialization order. String-keyed maps render as
    /// JSON objects; anything else renders as an array of `[key, value]`.
    Map(Vec<(Content, Content)>),
}

impl Content {
    pub fn as_map(&self) -> Option<&[(Content, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) | Content::I64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }

    /// Total order used to canonicalize unordered containers before
    /// serialization (so HashMap/HashSet output is byte-stable).
    pub fn canonical_cmp(&self, other: &Content) -> Ordering {
        fn rank(c: &Content) -> u8 {
            match c {
                Content::Null => 0,
                Content::Bool(_) => 1,
                Content::U64(_) => 2,
                Content::I64(_) => 3,
                Content::F64(_) => 4,
                Content::Str(_) => 5,
                Content::Seq(_) => 6,
                Content::Map(_) => 7,
            }
        }
        match (self, other) {
            (Content::Bool(a), Content::Bool(b)) => a.cmp(b),
            (Content::U64(a), Content::U64(b)) => a.cmp(b),
            (Content::I64(a), Content::I64(b)) => a.cmp(b),
            (Content::F64(a), Content::F64(b)) => a.total_cmp(b),
            (Content::Str(a), Content::Str(b)) => a.cmp(b),
            (Content::Seq(a), Content::Seq(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.canonical_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Content::Map(a), Content::Map(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let o = ka.canonical_cmp(kb);
                    if o != Ordering::Equal {
                        return o;
                    }
                    let o = va.canonical_cmp(vb);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// Deserialization error: what was expected, what arrived, for which type.
#[derive(Debug, Clone)]
pub struct DeError {
    message: String,
}

impl DeError {
    pub fn custom(message: impl Into<String>) -> DeError {
        DeError {
            message: message.into(),
        }
    }

    pub fn expected(what: &str, ty: &str, got: &Content) -> DeError {
        DeError {
            message: format!("expected {what} for `{ty}`, got {}", got.kind()),
        }
    }

    pub fn missing_field(field: &str, ty: &str) -> DeError {
        DeError {
            message: format!("missing field `{field}` in `{ty}`"),
        }
    }

    pub fn unknown_variant(variant: &str, ty: &str) -> DeError {
        DeError {
            message: format!("unknown variant `{variant}` of `{ty}`"),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

pub trait Serialize {
    fn to_content(&self) -> Content;
}

pub trait Deserialize: Sized {
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

/// Derive-macro helper: fetch and decode a named struct field from a map,
/// treating an absent key as `null` (so `Option` fields tolerate omission).
pub fn __field<T: Deserialize>(content: &Content, name: &str, ty: &str) -> Result<T, DeError> {
    let map = content
        .as_map()
        .ok_or_else(|| DeError::expected("map", ty, content))?;
    for (k, v) in map {
        if k.as_str() == Some(name) {
            return T::from_content(v);
        }
    }
    T::from_content(&Content::Null).map_err(|_| DeError::missing_field(name, ty))
}

/// Derive-macro helper for a defaulted field: `None` when the key is absent
/// or `null`, so the caller fills in the default.
pub fn __default_field<T: Deserialize>(
    content: &Content,
    name: &str,
    ty: &str,
) -> Result<Option<T>, DeError> {
    let map = content
        .as_map()
        .ok_or_else(|| DeError::expected("map", ty, content))?;
    match map.iter().find(|(k, _)| k.as_str() == Some(name)) {
        None | Some((_, Content::Null)) => Ok(None),
        Some((_, v)) => T::from_content(v).map(Some),
    }
}

/// Derive-macro helper for `deny_unknown_fields`: every key of the map must
/// be one of `known`, so a typo fails loudly instead of running the default.
pub fn __deny_unknown_fields(content: &Content, known: &[&str], ty: &str) -> Result<(), DeError> {
    let map = content
        .as_map()
        .ok_or_else(|| DeError::expected("map", ty, content))?;
    for (k, _) in map {
        let Some(k) = k.as_str() else {
            return Err(DeError::custom(format!("non-string key in `{ty}`")));
        };
        if !known.contains(&k) {
            return Err(DeError::custom(format!("unknown field `{k}` in `{ty}`")));
        }
    }
    Ok(())
}

/// Any value decodes as its own content tree (the shim's `serde_json::Value`).
impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }
}

// ---------------------------------------------------------------------------
// Primitive and std-container impls.

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v: u64 = match *c {
                    Content::U64(v) => v,
                    Content::I64(v) if v >= 0 => v as u64,
                    Content::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => v as u64,
                    ref other => return Err(DeError::expected("unsigned integer", stringify!($t), other)),
                };
                <$t>::try_from(v).map_err(|_| DeError::custom(
                    format!("{v} out of range for {}", stringify!($t)),
                ))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v: i64 = match *c {
                    Content::I64(v) => v,
                    Content::U64(v) if v <= i64::MAX as u64 => v as i64,
                    Content::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => v as i64,
                    ref other => return Err(DeError::expected("integer", stringify!($t), other)),
                };
                <$t>::try_from(v).map_err(|_| DeError::custom(
                    format!("{v} out of range for {}", stringify!($t)),
                ))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match *c {
                    Content::F64(v) => Ok(v as $t),
                    Content::U64(v) => Ok(v as $t),
                    Content::I64(v) => Ok(v as $t),
                    ref other => Err(DeError::expected("number", stringify!($t), other)),
                }
            }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", "bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", "String", other)),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("one-char string", "char", other)),
        }
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(()),
            other => Err(DeError::expected("null", "()", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Vec::<T>::from_content(c).map(Into::into)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::expected("sequence", "Vec", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c.as_seq() {
            Some([a, b]) => Ok((A::from_content(a)?, B::from_content(b)?)),
            _ => Err(DeError::expected("2-element sequence", "tuple", c)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![
            self.0.to_content(),
            self.1.to_content(),
            self.2.to_content(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c.as_seq() {
            Some([a, b, cc]) => Ok((
                A::from_content(a)?,
                B::from_content(b)?,
                C::from_content(cc)?,
            )),
            _ => Err(DeError::expected("3-element sequence", "tuple", c)),
        }
    }
}

/// Maps serialize with entries sorted by canonical key order so HashMap
/// iteration order never leaks into serialized bytes.
impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        let mut entries: Vec<(Content, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_content(), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.canonical_cmp(&b.0));
        Content::Map(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_content(c: &Content) -> Result<Self, DeError> {
        map_entries(c, "HashMap")
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        map_entries(c, "BTreeMap")
    }
}

/// Accept either map content or a sequence of `[key, value]` pairs.
fn map_entries<K: Deserialize, V: Deserialize, M: FromIterator<(K, V)>>(
    c: &Content,
    ty: &str,
) -> Result<M, DeError> {
    match c {
        Content::Map(entries) => entries
            .iter()
            .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
            .collect(),
        Content::Seq(items) => items
            .iter()
            .map(|pair| match pair.as_seq() {
                Some([k, v]) => Ok((K::from_content(k)?, V::from_content(v)?)),
                _ => Err(DeError::expected("[key, value] pair", ty, pair)),
            })
            .collect(),
        other => Err(DeError::expected("map", ty, other)),
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn to_content(&self) -> Content {
        let mut items: Vec<Content> = self.iter().map(Serialize::to_content).collect();
        items.sort_by(|a, b| a.canonical_cmp(b));
        Content::Seq(items)
    }
}

impl<T, S> Deserialize for HashSet<T, S>
where
    T: Deserialize + Eq + Hash,
    S: std::hash::BuildHasher + Default,
{
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::expected("sequence", "HashSet", other)),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (Content::Str("secs".into()), Content::U64(self.as_secs())),
            (
                Content::Str("nanos".into()),
                Content::U64(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let secs: u64 = __field(c, "secs", "Duration")?;
        let nanos: u32 = __field(c, "nanos", "Duration")?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_serialization_is_canonical() {
        let mut m = HashMap::new();
        for i in 0..50u64 {
            m.insert(i, i * 2);
        }
        let a = m.to_content();
        let b = m.clone().to_content();
        assert_eq!(a, b);
        if let Content::Map(entries) = &a {
            let keys: Vec<u64> = entries
                .iter()
                .map(|(k, _)| match k {
                    Content::U64(v) => *v,
                    _ => unreachable!(),
                })
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted);
        } else {
            panic!("map expected");
        }
    }

    #[test]
    fn option_roundtrip() {
        let some = Some(3u32).to_content();
        let none: Content = Option::<u32>::None.to_content();
        assert_eq!(Option::<u32>::from_content(&some).unwrap(), Some(3));
        assert_eq!(Option::<u32>::from_content(&none).unwrap(), None);
    }
}
