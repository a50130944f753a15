//! Schemas: ordered lists of (optionally qualified) named, typed columns.

use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Table qualifier, e.g. `sessions` in `sessions.play_time`. Derived
    /// columns (projections, aggregates) have no qualifier.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Unqualified field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            qualifier: None,
            name: name.into(),
            data_type,
        }
    }

    /// Qualified field.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Field {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            data_type,
        }
    }

    /// `qualifier.name` or bare `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether a reference `[qualifier.]name` resolves to this field.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|fq| fq.eq_ignore_ascii_case(q)),
        }
    }
}

/// An ordered, immutable collection of fields. Cheap to clone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: fields.into(),
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Resolve `[qualifier.]name` to a column index.
    ///
    /// Returns `Err(SchemaError::Ambiguous)` when an unqualified name matches
    /// more than one column (can happen after joins).
    pub fn index_of(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SchemaError> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(qualifier, name) {
                if found.is_some() {
                    return Err(SchemaError::Ambiguous(name.to_string()));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| SchemaError::NotFound(format_ref(qualifier, name)))
    }

    /// Concatenate two schemas (join output), requalifying nothing.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.to_vec();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// A copy of this schema with every field re-qualified as `alias`.
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| Field::qualified(alias, f.name.clone(), f.data_type))
                .collect(),
        )
    }
}

fn format_ref(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Schema resolution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// No column with this name.
    NotFound(String),
    /// Multiple columns matched an unqualified name.
    Ambiguous(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NotFound(n) => write!(f, "column `{n}` not found"),
            SchemaError::Ambiguous(n) => write!(f, "column reference `{n}` is ambiguous"),
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions() -> Schema {
        Schema::new(vec![
            Field::qualified("sessions", "session_id", DataType::Int),
            Field::qualified("sessions", "buffer_time", DataType::Float),
            Field::qualified("sessions", "play_time", DataType::Float),
        ])
    }

    #[test]
    fn lookup_unqualified() {
        let s = sessions();
        assert_eq!(s.index_of(None, "buffer_time"), Ok(1));
    }

    #[test]
    fn lookup_qualified() {
        let s = sessions();
        assert_eq!(s.index_of(Some("sessions"), "play_time"), Ok(2));
        assert!(matches!(
            s.index_of(Some("other"), "play_time"),
            Err(SchemaError::NotFound(_))
        ));
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = sessions();
        assert_eq!(s.index_of(None, "BUFFER_TIME"), Ok(1));
        assert_eq!(s.index_of(Some("SESSIONS"), "session_id"), Ok(0));
    }

    #[test]
    fn ambiguous_after_join() {
        let joined = sessions().join(&sessions());
        assert!(matches!(
            joined.index_of(None, "session_id"),
            Err(SchemaError::Ambiguous(_))
        ));
        // Qualified lookups still resolve the left-most occurrence only when
        // qualifiers differ; here both sides are `sessions` so it stays
        // ambiguous.
        assert!(matches!(
            joined.index_of(Some("sessions"), "session_id"),
            Err(SchemaError::Ambiguous(_))
        ));
    }

    #[test]
    fn with_qualifier_requalifies() {
        let s = sessions().with_qualifier("s2");
        assert_eq!(s.index_of(Some("s2"), "buffer_time"), Ok(1));
    }

    #[test]
    fn join_concatenates() {
        let left = Schema::from_pairs(&[("a", DataType::Int)]);
        let right = Schema::from_pairs(&[("b", DataType::Str)]);
        let j = left.join(&right);
        assert_eq!(j.len(), 2);
        assert_eq!(j.field(1).name, "b");
    }
}
