//! A named collection of relations, and the state-provider abstraction the
//! evaluator reads from.

use crate::catalog::Catalog;
use crate::delta::Delta;
use crate::index::JoinIndex;
use crate::relation::Relation;
use crate::schema::{RelationName, SchemaError};
use crate::viewdef::SpjCore;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Anything that can supply the contents of a base relation for query
/// evaluation: an in-memory [`Database`], an MVCC as-of snapshot, or a
/// remote source's query service.
///
/// `fetch` returns a [`Cow`] so providers that already hold the requested
/// state (a database reading its own map, an MVCC log whose checkpoint or
/// current contents match the requested seq) lend it zero-copy; only
/// providers that must *reconstruct* state allocate.
pub trait StateProvider {
    /// Fetch a relation's contents by name. `None` when unknown.
    fn fetch(&self, name: &RelationName) -> Option<Cow<'_, Relation>>;

    /// A join index on exactly `cols` of the relation *as this provider
    /// serves it*, when one is kept. The evaluator probes it instead of
    /// hashing the fetched relation; `None` (the default) makes it hash.
    fn index(&self, _name: &RelationName, _cols: &[usize]) -> Option<&JoinIndex> {
        None
    }
}

/// In-memory database: one [`Relation`] per name, plus the join indexes
/// registered on them.
///
/// Indexes are derived state: maintained by every mutation path
/// ([`Database::apply`], [`Database::insert_relation`],
/// [`Database::relation_mut`]) and ignored by equality.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    relations: BTreeMap<RelationName, Stored>,
}

/// A relation and its join indexes, under one name lookup.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stored {
    rel: Relation,
    indexes: Vec<JoinIndex>,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((a, x), (b, y))| a == b && x.rel == y.rel)
    }
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Create one empty relation per catalog entry.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for name in catalog.names() {
            let schema = catalog.schema(name).expect("name from iterator");
            db.insert_relation(name.clone(), Relation::new(schema.clone()));
        }
        db
    }

    /// Add or replace a relation; indexes registered on the name are
    /// rebuilt over the new contents.
    pub fn insert_relation(&mut self, name: impl Into<RelationName>, rel: Relation) {
        let name = name.into();
        match self.relations.get_mut(&name) {
            Some(stored) => {
                for ix in stored.indexes.iter_mut() {
                    *ix = JoinIndex::build(&rel, ix.cols());
                }
                stored.rel = rel;
            }
            None => {
                let indexes = Vec::new();
                self.relations.insert(name, Stored { rel, indexes });
            }
        }
    }

    pub fn relation(&self, name: &RelationName) -> Option<&Relation> {
        self.relations.get(name).map(|s| &s.rel)
    }

    /// Direct mutable access to a relation. The guard rebuilds the
    /// relation's join indexes when dropped, so edits made through it
    /// can never leave an index behind the rows (O(|R|) per registered
    /// index — for set-up and tests; the maintained path is
    /// [`Database::apply`]).
    pub fn relation_mut(&mut self, name: &RelationName) -> Option<RelationMut<'_>> {
        let Stored { rel, indexes } = self.relations.get_mut(name)?;
        Some(RelationMut { rel, indexes })
    }

    pub fn names(&self) -> impl Iterator<Item = &RelationName> {
        self.relations.keys()
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Apply a delta to a named relation, moving its join indexes by
    /// exactly the copies that changed hands.
    pub fn apply(&mut self, name: &RelationName, delta: &Delta) -> Result<(), SchemaError> {
        let Stored { rel, indexes } = self
            .relations
            .get_mut(name)
            .ok_or_else(|| SchemaError::UnknownAttribute(format!("relation `{name}`")))?;
        delta.apply_observed(rel, |t, n| {
            for ix in indexes.iter_mut() {
                ix.change(t, n);
            }
        })
    }

    /// Keep, from now on, every join index the delta queries of `core`
    /// probe ([`SpjCore::join_indexes`]) on the relations this database
    /// holds; each is built over the current contents. Idempotent.
    pub fn index_join_columns(&mut self, core: &SpjCore) {
        for (name, cols) in core.join_indexes() {
            let Some(Stored { rel, indexes }) = self.relations.get_mut(name) else {
                continue;
            };
            if !indexes.iter().any(|ix| ix.cols() == cols) {
                indexes.push(JoinIndex::build(rel, cols));
            }
        }
    }

    /// Content fingerprint over all relations (order-independent by name).
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for (name, stored) in &self.relations {
            name.as_str().hash(&mut h);
            stored.rel.fingerprint().hash(&mut h);
        }
        h.finish()
    }
}

impl StateProvider for Database {
    fn fetch(&self, name: &RelationName) -> Option<Cow<'_, Relation>> {
        self.relation(name).map(Cow::Borrowed)
    }

    fn index(&self, name: &RelationName, cols: &[usize]) -> Option<&JoinIndex> {
        let stored = self.relations.get(name)?;
        stored.indexes.iter().find(|ix| ix.cols() == cols)
    }
}

/// Mutable access to one relation of a [`Database`]
/// ([`Database::relation_mut`]); rebuilds the relation's join indexes on
/// drop.
pub struct RelationMut<'a> {
    rel: &'a mut Relation,
    indexes: &'a mut Vec<JoinIndex>,
}

impl Deref for RelationMut<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        self.rel
    }
}

impl DerefMut for RelationMut<'_> {
    fn deref_mut(&mut self) -> &mut Relation {
        self.rel
    }
}

impl Drop for RelationMut<'_> {
    fn drop(&mut self) {
        for ix in self.indexes.iter_mut() {
            *ix = JoinIndex::build(self.rel, ix.cols());
        }
    }
}

/// A provider that overlays explicit replacement relations on a base
/// provider — used by delta rules to evaluate "all relations at state X
/// except the changed one replaced by its delta".
pub struct Overlay<'a, P: StateProvider + ?Sized> {
    base: &'a P,
    replacements: BTreeMap<RelationName, Relation>,
}

impl<'a, P: StateProvider + ?Sized> Overlay<'a, P> {
    pub fn new(base: &'a P) -> Self {
        Overlay {
            base,
            replacements: BTreeMap::new(),
        }
    }

    pub fn replace(mut self, name: impl Into<RelationName>, rel: Relation) -> Self {
        self.replacements.insert(name.into(), rel);
        self
    }
}

impl<P: StateProvider + ?Sized> StateProvider for Overlay<'_, P> {
    fn fetch(&self, name: &RelationName) -> Option<Cow<'_, Relation>> {
        match self.replacements.get(name) {
            Some(r) => Some(Cow::Borrowed(r)),
            None => self.base.fetch(name),
        }
    }

    /// The base's index, except for a replaced relation (the base's index
    /// describes the rows the replacement hides).
    fn index(&self, name: &RelationName, cols: &[usize]) -> Option<&JoinIndex> {
        if self.replacements.contains_key(name) {
            None
        } else {
            self.base.index(name, cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    #[test]
    fn from_catalog_creates_empty_relations() {
        let cat = Catalog::new().with("R", Schema::ints(&["a"]));
        let db = Database::from_catalog(&cat);
        assert!(db.relation(&"R".into()).unwrap().is_empty());
    }

    #[test]
    fn apply_delta() {
        let cat = Catalog::new().with("R", Schema::ints(&["a"]));
        let mut db = Database::from_catalog(&cat);
        let mut d = Delta::new();
        d.insert(tuple![1]);
        db.apply(&"R".into(), &d).unwrap();
        assert!(db.relation(&"R".into()).unwrap().contains(&tuple![1]));
        assert!(db.apply(&"Z".into(), &d).is_err());
    }

    #[test]
    fn overlay_shadows_base() {
        let cat = Catalog::new().with("R", Schema::ints(&["a"]));
        let mut db = Database::from_catalog(&cat);
        let mut d = Delta::new();
        d.insert(tuple![1]);
        db.apply(&"R".into(), &d).unwrap();

        let mut replacement = Relation::new(Schema::ints(&["a"]));
        replacement.insert(tuple![9]).unwrap();
        let ov = Overlay::new(&db).replace("R", replacement);
        let fetched = ov.fetch(&"R".into()).unwrap();
        assert!(fetched.contains(&tuple![9]));
        assert!(!fetched.contains(&tuple![1]));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let cat = Catalog::new().with("R", Schema::ints(&["a"]));
        let mut db = Database::from_catalog(&cat);
        let f0 = db.fingerprint();
        let mut d = Delta::new();
        d.insert(tuple![1]);
        db.apply(&"R".into(), &d).unwrap();
        assert_ne!(f0, db.fingerprint());
    }
}
