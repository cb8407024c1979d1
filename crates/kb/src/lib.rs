//! Knowledge-base substrate: an in-memory triple store.
//!
//! The paper's motivating example (Section II) joins an RDBMS with "a
//! general knowledge base to supplement and extend the product information
//! based on domain expertise", whose labels were "curated and collected on
//! a different and broader dataset" — i.e. they do *not* textually match
//! the RDBMS values, which is precisely why the semantic join exists.
//!
//! This crate provides that source: entities, `(subject, predicate,
//! object)` triples indexed by subject, an `is_a` taxonomy with
//! transitive queries, and export to relational chunks so the engine can
//! scan the KB like any table (the polystore angle of Section IV).

use cx_storage::{Column, Field, Result, Schema, Table};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Entity identifier.
pub type EntityId = u32;

/// Object of a triple: an entity reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Object {
    Entity(EntityId),
    Text(String),
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Object::Entity(id) => write!(f, "#{id}"),
            Object::Text(s) => write!(f, "{s}"),
        }
    }
}

/// A `(subject, predicate, object)` fact.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    pub subject: EntityId,
    pub predicate: String,
    pub object: Object,
}

/// The well-known taxonomy predicate.
pub const IS_A: &str = "is_a";
/// The well-known label predicate (synonyms / surface forms).
pub const LABEL: &str = "label";

/// An in-memory triple store with an entity dictionary and a subject index.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    names: Vec<String>,
    by_name: HashMap<String, EntityId>,
    triples: Vec<Triple>,
    /// (subject) → triple positions.
    by_subject: HashMap<EntityId, Vec<usize>>,
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the entity named `name`, creating it if new.
    pub fn entity(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as EntityId;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an entity id by name.
    pub fn lookup(&self, name: &str) -> Option<EntityId> {
        self.by_name.get(name).copied()
    }

    /// The canonical name of `id`.
    pub fn name(&self, id: EntityId) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.names.len()
    }

    /// Number of triples.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// Asserts a fact.
    pub fn insert(&mut self, subject: EntityId, predicate: &str, object: Object) {
        let pos = self.triples.len();
        self.triples.push(Triple {
            subject,
            predicate: predicate.to_string(),
            object,
        });
        self.by_subject.entry(subject).or_default().push(pos);
    }

    /// Convenience: `subject --is_a--> parent` (both by name).
    pub fn assert_is_a(&mut self, subject: &str, parent: &str) {
        let s = self.entity(subject);
        let p = self.entity(parent);
        self.insert(s, IS_A, Object::Entity(p));
    }

    /// Convenience: attach a surface label (synonym) to an entity.
    pub fn assert_label(&mut self, subject: &str, label: &str) {
        let s = self.entity(subject);
        self.insert(s, LABEL, Object::Text(label.to_string()));
    }

    /// All triples about `subject`.
    pub fn about(&self, subject: EntityId) -> impl Iterator<Item = &Triple> {
        self.by_subject
            .get(&subject)
            .into_iter()
            .flatten()
            .map(move |&i| &self.triples[i])
    }

    /// Surface labels of `subject` (its own name plus `label` triples).
    pub fn labels(&self, subject: EntityId) -> Vec<&str> {
        let mut out = Vec::new();
        if let Some(name) = self.name(subject) {
            out.push(name);
        }
        for t in self.about(subject) {
            if t.predicate == LABEL {
                if let Object::Text(s) = &t.object {
                    out.push(s.as_str());
                }
            }
        }
        out
    }

    /// Transitive `is_a` ancestors of `subject` (BFS order, no duplicates,
    /// excluding `subject` itself).
    pub fn ancestors(&self, subject: EntityId) -> Vec<EntityId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([subject]);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            for t in self.about(cur) {
                if t.predicate != IS_A {
                    continue;
                }
                if let Object::Entity(parent) = t.object {
                    if seen.insert(parent) {
                        out.push(parent);
                        queue.push_back(parent);
                    }
                }
            }
        }
        out
    }

    /// Whether `subject` is (transitively) a `category`.
    pub fn is_a(&self, subject: EntityId, category: EntityId) -> bool {
        subject == category || self.ancestors(subject).contains(&category)
    }

    /// Exports `(label, category)` rows: every surface label of every
    /// entity, paired with every transitive category name. This is the
    /// relation the engine's semantic join consumes in the Figure 2 query.
    pub fn label_category_table(&self) -> Result<Table> {
        let mut labels = Vec::new();
        let mut categories = Vec::new();
        for e in 0..self.names.len() as EntityId {
            let ancestors = self.ancestors(e);
            if ancestors.is_empty() {
                continue;
            }
            for label in self.labels(e) {
                for &a in &ancestors {
                    if let Some(cat) = self.name(a) {
                        labels.push(label.to_string());
                        categories.push(cat.to_string());
                    }
                }
            }
        }
        Table::from_columns(
            Schema::new(vec![
                Field::new("label", cx_storage::DataType::Utf8),
                Field::new("category", cx_storage::DataType::Utf8),
            ]),
            vec![
                Column::from_strings(labels),
                Column::from_strings(categories),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dog --is_a--> animal; boots/sneakers --is_a--> shoes --is_a--> clothes.
    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.assert_is_a("dog", "animal");
        kb.assert_is_a("boots", "shoes");
        kb.assert_is_a("sneakers", "shoes");
        kb.assert_is_a("shoes", "clothes");
        kb.assert_label("boots", "work boots");
        kb.assert_label("dog", "canine");
        kb
    }

    #[test]
    fn entity_dictionary_dedupes() {
        let mut kb = KnowledgeBase::new();
        let a = kb.entity("x");
        let b = kb.entity("x");
        assert_eq!(a, b);
        assert_eq!(kb.num_entities(), 1);
        assert_eq!(kb.name(a), Some("x"));
        assert_eq!(kb.lookup("y"), None);
    }

    #[test]
    fn transitive_taxonomy() {
        let kb = kb();
        let boots = kb.lookup("boots").unwrap();
        let clothes = kb.lookup("clothes").unwrap();
        let animal = kb.lookup("animal").unwrap();
        assert!(kb.is_a(boots, clothes));
        assert!(!kb.is_a(boots, animal));
        let names: Vec<&str> = kb
            .ancestors(boots)
            .iter()
            .map(|&e| kb.name(e).unwrap())
            .collect();
        assert_eq!(names, vec!["shoes", "clothes"]);
    }

    #[test]
    fn labels_include_synonyms() {
        let kb = kb();
        let boots = kb.lookup("boots").unwrap();
        assert_eq!(kb.labels(boots), vec!["boots", "work boots"]);
    }

    #[test]
    fn label_category_export() {
        let kb = kb();
        let table = kb.label_category_table().unwrap();
        assert!(table.num_rows() > 0);
        // "work boots" must appear with category "clothes".
        let labels = table.column_by_name("label").unwrap();
        let cats = table.column_by_name("category").unwrap();
        let found = labels
            .utf8_values()
            .unwrap()
            .iter()
            .zip(cats.utf8_values().unwrap())
            .any(|(l, c)| l == "work boots" && c == "clothes");
        assert!(found);
    }

    #[test]
    fn cycle_in_taxonomy_terminates() {
        let mut kb = KnowledgeBase::new();
        kb.assert_is_a("a", "b");
        kb.assert_is_a("b", "a");
        let a = kb.lookup("a").unwrap();
        let ancestors = kb.ancestors(a);
        assert_eq!(ancestors.len(), 2); // b and a, each once
    }
}
