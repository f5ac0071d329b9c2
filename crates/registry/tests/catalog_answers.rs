//! The event catalog's public answers: what a declare keeps and what
//! each listing returns, in which order. Black-box: only the public
//! surface of [`EventCatalog`] is read.

use css_event::{EventSchema, FieldDef, FieldKind};
use css_registry::EventCatalog;
use css_types::{ActorId, CssError, EventTypeId};

const HOSPITAL: ActorId = ActorId(1);
const WELFARE: ActorId = ActorId(2);

fn class(code: &str, version: u32, producer: ActorId) -> EventSchema {
    EventSchema::new(EventTypeId::new(code, version), code, producer)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Note", FieldKind::Text).sensitive())
}

fn ids(list: &[(&str, u32)]) -> Vec<EventTypeId> {
    list.iter().map(|&(c, v)| EventTypeId::new(c, v)).collect()
}

/// Three versions of one code, declared out of order, beside two other
/// codes of two producers.
fn catalog() -> EventCatalog {
    let mut cat = EventCatalog::new();
    let declared = [
        (class("blood-test", 10, HOSPITAL), Some("health/laboratory")),
        (class("home-care", 1, WELFARE), Some("social/home-care")),
        (class("blood-test", 1, HOSPITAL), Some("health/laboratory")),
        (class("admission", 1, HOSPITAL), Some("health")),
        (class("blood-test", 2, HOSPITAL), None),
    ];
    for (schema, domain) in &declared {
        cat.declare(schema, *domain).unwrap();
    }
    cat
}

#[test]
fn listings_sort_by_the_text_form_of_the_class() {
    let cat = catalog();
    // Text order: `@v10` sorts before `@v2`.
    let all = ids(&[
        ("admission", 1),
        ("blood-test", 1),
        ("blood-test", 10),
        ("blood-test", 2),
        ("home-care", 1),
    ]);
    assert_eq!(cat.all_types(), all);
    assert_eq!(
        cat.by_producer(HOSPITAL),
        ids(&[
            ("admission", 1),
            ("blood-test", 1),
            ("blood-test", 10),
            ("blood-test", 2),
        ])
    );
    assert_eq!(cat.by_producer(WELFARE), ids(&[("home-care", 1)]));
    assert!(cat.by_producer(ActorId(3)).is_empty());
    assert_eq!(cat.len(), 5);
    assert!(!cat.is_empty());
    assert!(EventCatalog::new().is_empty());
}

#[test]
fn a_domain_lists_the_classes_at_and_below_its_node() {
    let cat = catalog();
    // The intermediate node `health` is a node of its own.
    assert_eq!(
        cat.by_domain("health"),
        ids(&[("admission", 1), ("blood-test", 1), ("blood-test", 10)])
    );
    assert_eq!(
        cat.by_domain("health/laboratory"),
        ids(&[("blood-test", 1), ("blood-test", 10)])
    );
    assert_eq!(cat.by_domain("social"), ids(&[("home-care", 1)]));
    // A prefix of a node's text is not a node above it.
    assert!(cat.by_domain("health/lab").is_empty());
    assert!(cat.by_domain("social/welfare").is_empty());
}

#[test]
fn every_version_answers_with_the_schema_it_was_declared_with() {
    let cat = catalog();
    for v in [1, 2, 10] {
        let ty = EventTypeId::new("blood-test", v);
        assert!(cat.contains(&ty));
        assert_eq!(cat.schema(&ty).unwrap(), class("blood-test", v, HOSPITAL));
        assert_eq!(cat.owner(&ty).unwrap(), HOSPITAL);
    }
    let unknown = EventTypeId::new("blood-test", 3);
    assert!(!cat.contains(&unknown));
    assert!(matches!(cat.schema(&unknown), Err(CssError::NotFound(_))));
    assert!(matches!(cat.owner(&unknown), Err(CssError::NotFound(_))));
}

#[test]
fn a_duplicate_declare_is_refused_and_changes_nothing() {
    let mut cat = catalog();
    let usurper = class("blood-test", 2, WELFARE).field(FieldDef::optional("X", FieldKind::Text));
    assert!(matches!(
        cat.declare(&usurper, Some("social/welfare")),
        Err(CssError::AlreadyExists(_))
    ));
    let ty = EventTypeId::new("blood-test", 2);
    assert_eq!(cat.schema(&ty).unwrap(), class("blood-test", 2, HOSPITAL));
    assert_eq!(cat.len(), 5);
    assert!(cat.by_domain("social/welfare").is_empty());
    assert_eq!(cat.by_producer(WELFARE), ids(&[("home-care", 1)]));
}

#[test]
fn an_unknown_care_domain_node_is_not_found() {
    for node in ["health/surgery", "health/lab", "health/", "", "care"] {
        let err = EventCatalog::new().declare(&class("blood-test", 1, HOSPITAL), Some(node));
        assert!(matches!(err, Err(CssError::NotFound(_))), "{node:?}");
    }
}
