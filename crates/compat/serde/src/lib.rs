//! Offline stand-in for `serde`, providing the subset this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, API-compatible serialization framework, with
//! derive macros (see `serde_derive`) for named-field structs and enums.
//!
//! Serialization streams: [`Serialize::serialize`] walks a value and
//! calls a [`Serializer`] sink once per scalar and once at each start and
//! end of a sequence or map, in field declaration order, so the bytes are
//! fully deterministic. `serde_json`'s writer is such a sink and encodes
//! in place without building anything in between; so is any
//! `fmt::Write` it wraps, a hasher included. [`Serialize::to_value`]
//! runs the same walk into a sink that builds a self-describing [`Value`]
//! tree, which is also what parsing produces and what [`Deserialize`]
//! reads from.
//!
//! Supported derive attributes: `#[serde(skip)]` on a named struct field
//! (omitted when serializing, `Default::default()` when deserializing).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A self-describing JSON-like value tree.
///
/// Objects preserve insertion order (fields serialize in declaration
/// order), which keeps report bytes deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX` or the
    /// source type is unsigned).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Ordered key-value map.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns the object fields if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Returns the elements if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }

    /// A short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Error produced when a [`Value`] cannot be converted into the requested
/// type.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> DeError {
        DeError {
            message: message.into(),
        }
    }

    /// Convenience constructor for type mismatches.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// A sink that serialized values stream into.
///
/// A value is one scalar call, or a `begin_seq` … `end_seq` /
/// `begin_map` … `end_map` pair around its elements; inside a map each
/// element is a [`key`](Serializer::key) followed by one value.
pub trait Serializer {
    /// A `null` (also `None` and non-finite floats in JSON).
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A floating-point number.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens a sequence.
    fn begin_seq(&mut self);
    /// Closes the innermost sequence.
    fn end_seq(&mut self);
    /// Opens a map.
    fn begin_map(&mut self);
    /// The key of the map entry whose value comes next.
    fn key(&mut self, k: &str);
    /// Closes the innermost map.
    fn end_map(&mut self);
}

/// Serialization: a walk of the value into a [`Serializer`].
pub trait Serialize {
    /// Streams `self` into `s`.
    fn serialize<S: Serializer>(&self, s: &mut S);

    /// Builds the [`Value`] tree of `self`.
    fn to_value(&self) -> Value {
        let mut builder = ValueBuilder::default();
        self.serialize(&mut builder);
        builder.done.expect("a serialized value is complete")
    }
}

/// The [`Serializer`] behind [`Serialize::to_value`].
#[derive(Default)]
struct ValueBuilder {
    /// The unfinished arrays and objects, innermost last, each with the
    /// key its next value goes under.
    open: Vec<(Value, Option<String>)>,
    done: Option<Value>,
}

impl ValueBuilder {
    fn push(&mut self, value: Value) {
        match self.open.last_mut() {
            Some((Value::Array(items), _)) => items.push(value),
            Some((Value::Object(fields), key)) => {
                fields.push((key.take().expect("a map value follows its key"), value));
            }
            _ => self.done = Some(value),
        }
    }

    fn close(&mut self) {
        let (value, _) = self.open.pop().expect("every end has its begin");
        self.push(value);
    }
}

impl Serializer for ValueBuilder {
    fn null(&mut self) {
        self.push(Value::Null);
    }
    fn bool(&mut self, v: bool) {
        self.push(Value::Bool(v));
    }
    fn i64(&mut self, v: i64) {
        self.push(Value::Int(v));
    }
    fn u64(&mut self, v: u64) {
        self.push(Value::UInt(v));
    }
    fn f64(&mut self, v: f64) {
        self.push(Value::Float(v));
    }
    fn str(&mut self, v: &str) {
        self.push(Value::Str(v.to_string()));
    }
    fn begin_seq(&mut self) {
        self.open.push((Value::Array(Vec::new()), None));
    }
    fn end_seq(&mut self) {
        self.close();
    }
    fn begin_map(&mut self) {
        self.open.push((Value::Object(Vec::new()), None));
    }
    fn key(&mut self, k: &str) {
        if let Some((_, key)) = self.open.last_mut() {
            *key = Some(k.to_string());
        }
    }
    fn end_map(&mut self) {
        self.close();
    }
}

/// Deserialization out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] if the value's shape does not match.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

/// Looks up and deserializes a struct field; used by the derive macro.
///
/// # Errors
///
/// Returns a [`DeError`] if the field is missing or has the wrong shape.
pub fn de_field<T: Deserialize>(fields: &[(String, Value)], key: &str) -> Result<T, DeError> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError::new(format!("field `{key}`: {e}"))),
        None => Err(DeError::new(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------------------
// Serialize implementations
// ---------------------------------------------------------------------------

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.u64(*self as u64);
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.i64(*self as i64);
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(f64::from(*self));
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.bool(*self);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for item in self {
            item.serialize(s);
        }
        s.end_seq();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_map();
        for (k, v) in self {
            s.key(k);
            v.serialize(s);
        }
        s.end_map();
    }
}

macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.begin_seq();
                $(self.$n.serialize(s);)+
                s.end_seq();
            }
        }
    )+};
}
impl_ser_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Int(i) => s.i64(*i),
            Value::UInt(u) => s.u64(*u),
            Value::Float(f) => s.f64(*f),
            Value::Str(v) => s.str(v),
            Value::Array(items) => items.serialize(s),
            Value::Object(fields) => {
                s.begin_map();
                for (k, v) in fields {
                    s.key(k);
                    v.serialize(s);
                }
                s.end_map();
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// Deserialize implementations
// ---------------------------------------------------------------------------

fn value_as_i128(value: &Value) -> Option<i128> {
    match *value {
        Value::Int(i) => Some(i128::from(i)),
        Value::UInt(u) => Some(i128::from(u)),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(f as i128),
        _ => None,
    }
}

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value_as_i128(value)
                    .ok_or_else(|| DeError::expected("integer", value))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::new(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::Float(f) => Ok(f),
            Value::Int(i) => Ok(i as f64),
            Value::UInt(u) => Ok(u as f64),
            _ => Err(DeError::expected("number", value)),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::Bool(b) => Ok(b),
            _ => Err(DeError::expected("bool", value)),
        }
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", value)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_array()
            .ok_or_else(|| DeError::expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! impl_de_tuple {
    ($(($len:expr; $($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value
                    .as_array()
                    .ok_or_else(|| DeError::expected("array", value))?;
                if items.len() != $len {
                    return Err(DeError::new(format!(
                        "expected array of length {}, got {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )+};
}
impl_de_tuple!(
    (1; 0 A),
    (2; 0 A, 1 B),
    (3; 0 A, 1 B, 2 C),
    (4; 0 A, 1 B, 2 C, 3 D),
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
);

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_value()).unwrap(),
            "hi".to_string()
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        let round: Vec<(u32, f64)> = Vec::from_value(&v.to_value()).unwrap();
        assert_eq!(v, round);
        let o: Option<u8> = None;
        assert_eq!(o.to_value(), Value::Null);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn to_value_builds_nested_trees_in_order() {
        let mut map = BTreeMap::new();
        map.insert("b".to_string(), vec![Some(1u8), None]);
        map.insert("a".to_string(), Vec::new());
        let tree = Value::Object(vec![
            ("a".to_string(), Value::Array(Vec::new())),
            (
                "b".to_string(),
                Value::Array(vec![Value::UInt(1), Value::Null]),
            ),
        ]);
        assert_eq!(map.to_value(), tree);
        let nested = (tree.clone(), [-1i32], "x");
        assert_eq!(
            nested.to_value(),
            Value::Array(vec![
                tree,
                Value::Array(vec![Value::Int(-1)]),
                Value::Str("x".to_string()),
            ])
        );
    }

    #[test]
    fn mismatch_reports_kinds() {
        let err = bool::from_value(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("bool"));
    }
}
