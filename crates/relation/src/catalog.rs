//! A named collection of base relations.

use crate::relation::Relation;
use crate::schema::Schema;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A database: table name → relation. Cloning is cheap (tables are shared).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Relation>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table. Names are case-insensitive.
    pub fn register(&mut self, name: impl Into<String>, rel: Relation) {
        self.tables
            .insert(name.into().to_ascii_lowercase(), Arc::new(rel));
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>, CatalogError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Schema of a table.
    pub fn schema(&self, name: &str) -> Result<Schema, CatalogError> {
        Ok(self.get(name)?.schema().clone())
    }

    /// True if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }
}

/// Catalog lookup errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// Referenced table does not exist.
    UnknownTable(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register(
            "Sessions",
            Relation::empty(Schema::from_pairs(&[("x", DataType::Int)])),
        );
        assert!(c.contains("sessions"));
        assert!(c.get("SESSIONS").is_ok());
        assert_eq!(c.schema("sessions").unwrap().len(), 1);
    }

    #[test]
    fn unknown_table_errors() {
        let c = Catalog::new();
        assert_eq!(
            c.get("nope").unwrap_err(),
            CatalogError::UnknownTable("nope".into())
        );
    }
}
