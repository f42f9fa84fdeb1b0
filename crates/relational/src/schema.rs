//! Relation names, attributes and schemas.

use crate::value::ValueType;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Interned name of a base relation (e.g. `R`, `S`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelationName(Arc<str>);

impl RelationName {
    pub fn new(name: impl AsRef<str>) -> Self {
        RelationName(Arc::from(name.as_ref()))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RelationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RelationName {
    fn from(s: &str) -> Self {
        RelationName::new(s)
    }
}

impl From<String> for RelationName {
    fn from(s: String) -> Self {
        RelationName::new(s)
    }
}

impl From<&String> for RelationName {
    fn from(s: &String) -> Self {
        RelationName::new(s)
    }
}

/// One attribute: a name and a declared type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    pub name: String,
    pub ty: ValueType,
}

impl Attribute {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }

    /// Shorthand for an `Int` attribute (the common case in the paper's
    /// examples).
    pub fn int(name: impl Into<String>) -> Self {
        Attribute::new(name, ValueType::Int)
    }

    pub fn str(name: impl Into<String>) -> Self {
        Attribute::new(name, ValueType::Str)
    }

    pub fn float(name: impl Into<String>) -> Self {
        Attribute::new(name, ValueType::Float)
    }
}

/// Errors raised by schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A tuple's arity does not match the schema.
    ArityMismatch { expected: usize, actual: usize },
    /// A tuple value's type does not match the declared attribute type.
    TypeMismatch {
        attribute: String,
        expected: ValueType,
        actual: ValueType,
    },
    /// An attribute name was not found during resolution.
    UnknownAttribute(String),
    /// An attribute position is out of range.
    PositionOutOfRange { position: usize, arity: usize },
    /// Duplicate attribute name in a schema.
    DuplicateAttribute(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ArityMismatch { expected, actual } => {
                write!(f, "arity mismatch: expected {expected}, got {actual}")
            }
            SchemaError::TypeMismatch {
                attribute,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch on `{attribute}`: expected {expected}, got {actual}"
            ),
            SchemaError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            SchemaError::PositionOutOfRange { position, arity } => {
                write!(f, "position {position} out of range for arity {arity}")
            }
            SchemaError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute `{name}`")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// An ordered list of attributes. Cheap to clone (`Arc` inside).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Arc<[Attribute]>,
}

impl Schema {
    /// Build a schema; rejects duplicate attribute names.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, SchemaError> {
        let mut seen = std::collections::HashSet::new();
        for a in &attributes {
            if !seen.insert(a.name.as_str()) {
                return Err(SchemaError::DuplicateAttribute(a.name.clone()));
            }
        }
        Ok(Schema {
            attributes: attributes.into(),
        })
    }

    /// Schema of all-`Int` attributes with the given names — the shape of
    /// every example in the paper.
    pub fn ints(names: &[&str]) -> Self {
        Schema::new(names.iter().map(|n| Attribute::int(*n)).collect())
            .expect("duplicate names in Schema::ints")
    }

    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    pub fn attribute(&self, i: usize) -> Option<&Attribute> {
        self.attributes.get(i)
    }

    /// Position of an attribute by name.
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Resolve a name to a position, with error.
    pub fn resolve(&self, name: &str) -> Result<usize, SchemaError> {
        self.position_of(name)
            .ok_or_else(|| SchemaError::UnknownAttribute(name.to_owned()))
    }

    /// Concatenation for joins. Attribute names are qualified on collision
    /// by suffixing `_2`, `_3`, … so the result is a valid schema.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut attrs: Vec<Attribute> = self.attributes.to_vec();
        let mut names: std::collections::HashSet<String> =
            attrs.iter().map(|a| a.name.clone()).collect();
        for a in other.attributes.iter() {
            let mut candidate = a.name.clone();
            let mut k = 2usize;
            while names.contains(&candidate) {
                candidate = format!("{}_{k}", a.name);
                k += 1;
            }
            names.insert(candidate.clone());
            attrs.push(Attribute::new(candidate, a.ty));
        }
        Schema {
            attributes: attrs.into(),
        }
    }

    /// Projection onto positions, validating range.
    pub fn project(&self, positions: &[usize]) -> Result<Schema, SchemaError> {
        let mut attrs = Vec::with_capacity(positions.len());
        for &p in positions {
            let a = self
                .attributes
                .get(p)
                .ok_or(SchemaError::PositionOutOfRange {
                    position: p,
                    arity: self.arity(),
                })?;
            attrs.push(a.clone());
        }
        // projection may duplicate names; disambiguate like concat
        let mut out: Vec<Attribute> = Vec::with_capacity(attrs.len());
        let mut names = std::collections::HashSet::new();
        for a in attrs {
            let mut candidate = a.name.clone();
            let mut k = 2usize;
            while names.contains(&candidate) {
                candidate = format!("{}_{k}", a.name);
                k += 1;
            }
            names.insert(candidate.clone());
            out.push(Attribute::new(candidate, a.ty));
        }
        Ok(Schema {
            attributes: out.into(),
        })
    }

    /// Validate a tuple against this schema. `Null` is accepted at any
    /// position (nullable attributes).
    pub fn check(&self, tuple: &crate::tuple::Tuple) -> Result<(), SchemaError> {
        if tuple.arity() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, a) in self.attributes.iter().enumerate() {
            let v = tuple.get(i);
            if v.is_null() {
                continue;
            }
            let vt = v.value_type();
            let compatible = vt == a.ty || matches!((a.ty, vt), (ValueType::Float, ValueType::Int));
            if !compatible {
                return Err(SchemaError::TypeMismatch {
                    attribute: a.name.clone(),
                    expected: a.ty,
                    actual: vt,
                });
            }
        }
        Ok(())
    }

    /// The type a value must have to be stored under attribute `i`.
    pub fn value_type(&self, i: usize) -> Option<ValueType> {
        self.attributes.get(i).map(|a| a.ty)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![Attribute::int("a"), Attribute::int("a")]).unwrap_err();
        assert_eq!(err, SchemaError::DuplicateAttribute("a".into()));
    }

    #[test]
    fn resolves_positions() {
        let s = Schema::ints(&["a", "b", "c"]);
        assert_eq!(s.resolve("b").unwrap(), 1);
        assert!(matches!(
            s.resolve("z"),
            Err(SchemaError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn concat_qualifies_collisions() {
        let s = Schema::ints(&["a", "b"]);
        let t = Schema::ints(&["b", "c"]);
        let joined = s.concat(&t);
        let names: Vec<_> = joined
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "b_2", "c"]);
    }

    #[test]
    fn check_validates_arity_and_types() {
        let s = Schema::ints(&["a", "b"]);
        assert!(s.check(&tuple![1, 2]).is_ok());
        assert!(matches!(
            s.check(&tuple![1]),
            Err(SchemaError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check(&tuple![1, "x"]),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn check_accepts_nulls_and_int_widening() {
        let s = Schema::new(vec![Attribute::float("f"), Attribute::int("i")]).unwrap();
        assert!(s.check(&tuple![1, 2]).is_ok()); // int accepted where float declared
        assert!(s
            .check(&crate::tuple::Tuple::new(vec![Value::Null, Value::Null]))
            .is_ok());
    }

    #[test]
    fn project_disambiguates_duplicates() {
        let s = Schema::ints(&["a", "b"]);
        let p = s.project(&[0, 0]).unwrap();
        let names: Vec<_> = p.attributes().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["a", "a_2"]);
        assert!(matches!(
            s.project(&[5]),
            Err(SchemaError::PositionOutOfRange { .. })
        ));
    }
}
