//! Relation schemas.
//!
//! The paper fixes a single relation `R` "with a fixed number of columns or
//! attributes A, B, …, C" and a *typing restriction*: "the domains of the
//! various attributes are disjoint". A [`Schema`] records the relation name
//! and the ordered attribute list; disjointness of domains is enforced
//! structurally throughout the crate (values and variables are scoped per
//! column; see [`crate::ids`]).

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::ids::AttrId;

/// The schema of the single relation: a name and an ordered list of
/// attribute names.
///
/// The name and attribute table sit behind one shared [`Arc`]: every
/// dependency, diagram and instance over a schema carries a copy, so a
/// clone is a reference-count bump, and equality between copies of one
/// schema is a pointer comparison.
#[derive(Clone)]
pub struct Schema {
    table: Arc<Table>,
}

#[derive(PartialEq, Eq, Hash)]
struct Table {
    relation: String,
    attrs: Vec<String>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.table, &other.table) || self.table == other.table
    }
}

impl Eq for Schema {}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.table.hash(state);
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("relation", &self.table.relation)
            .field("attrs", &self.table.attrs)
            .finish()
    }
}

impl Schema {
    /// Creates a schema. Fails on an empty attribute list or duplicate
    /// attribute names.
    pub fn new<R, I, A>(relation: R, attrs: I) -> Result<Self>
    where
        R: Into<String>,
        I: IntoIterator<Item = A>,
        A: Into<String>,
    {
        let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
        if attrs.is_empty() {
            return Err(CoreError::EmptySchema);
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].contains(a) {
                return Err(CoreError::DuplicateAttribute(a.clone()));
            }
        }
        Ok(Self {
            table: Arc::new(Table {
                relation: relation.into(),
                attrs,
            }),
        })
    }

    /// The relation name.
    pub fn relation(&self) -> &str {
        &self.table.relation
    }

    /// Number of attributes (columns).
    pub fn arity(&self) -> usize {
        self.table.attrs.len()
    }

    /// The attribute id for `name`, if present.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.table
            .attrs
            .iter()
            .position(|a| a == name)
            .map(AttrId::from)
    }

    /// The attribute id for `name`, as a `Result`.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::UnknownAttribute`] when the schema has no
    /// attribute named `name`.
    pub fn require_attr(&self, name: &str) -> Result<AttrId> {
        self.attr_id(name)
            .ok_or_else(|| CoreError::UnknownAttribute(name.to_owned()))
    }

    /// The name of attribute `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.table.attrs[id.index()]
    }

    /// Iterates over `(AttrId, name)` pairs in column order.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.table
            .attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId::from(i), a.as_str()))
    }

    /// All attribute ids in column order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.arity()).map(AttrId::from)
    }

    /// Checks that `other` is the same schema; returns a
    /// [`CoreError::SchemaMismatch`] otherwise.
    pub fn expect_same(&self, other: &Schema) -> Result<()> {
        if self == other {
            Ok(())
        } else {
            Err(CoreError::SchemaMismatch {
                expected: self.summary(),
                got: other.summary(),
            })
        }
    }

    /// A one-line human-readable summary, e.g. `R(SUPPLIER, STYLE, SIZE)`.
    pub fn summary(&self) -> String {
        format!("{}({})", self.table.relation, self.table.attrs.join(", "))
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn garment() -> Schema {
        Schema::new("R", ["SUPPLIER", "STYLE", "SIZE"]).unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let s = garment();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.relation(), "R");
        assert_eq!(s.attr_id("STYLE"), Some(AttrId::new(1)));
        assert_eq!(s.attr_id("COLOR"), None);
        assert_eq!(s.attr_name(AttrId::new(2)), "SIZE");
        assert_eq!(s.summary(), "R(SUPPLIER, STYLE, SIZE)");
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert_eq!(
            Schema::new("R", Vec::<String>::new()).unwrap_err(),
            CoreError::EmptySchema
        );
        assert_eq!(
            Schema::new("R", ["A", "B", "A"]).unwrap_err(),
            CoreError::DuplicateAttribute("A".into())
        );
    }

    #[test]
    fn require_attr_errors() {
        let s = garment();
        assert!(s.require_attr("SIZE").is_ok());
        assert_eq!(
            s.require_attr("X").unwrap_err(),
            CoreError::UnknownAttribute("X".into())
        );
    }

    #[test]
    fn expect_same_detects_mismatch() {
        let s = garment();
        let t = Schema::new("R", ["A", "B"]).unwrap();
        assert!(s.expect_same(&s.clone()).is_ok());
        assert!(
            s.expect_same(&garment()).is_ok(),
            "equal tables, two allocations"
        );
        assert!(matches!(
            s.expect_same(&t),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn attr_iteration_order() {
        let s = garment();
        let names: Vec<&str> = s.attrs().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["SUPPLIER", "STYLE", "SIZE"]);
        let ids: Vec<usize> = s.attr_ids().map(|a| a.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
