//! Property-based tests of the platform's privacy invariants.
//!
//! The central theorem the paper's design rests on is Definition 4: a
//! released event must never expose a field outside the policy's allowed
//! set. These properties check the invariant (and the machinery around
//! it) over randomized inputs.

use std::collections::BTreeSet;

use proptest::prelude::*;

use css::crypto::{HashChain, SealedBox};
use css::event::{Decimal, EventDetails, FieldValue, PrivacyAwareEvent};
use css::policy::{
    matches, Decision, DetailRequest, MatchOutcome, PolicyDecisionPoint, PrivacyPolicy,
};
use css::types::{
    Actor, ActorId, ActorRegistry, EventTypeId, GlobalEventId, PolicyId, Purpose, RequestId,
    Timestamp,
};

fn field_name() -> impl Strategy<Value = String> {
    "[A-Z][a-zA-Z]{0,8}"
}

fn field_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        any::<i64>().prop_map(FieldValue::Integer),
        "[ -~]{0,20}".prop_map(FieldValue::Text),
        any::<bool>().prop_map(FieldValue::Boolean),
        Just(FieldValue::Empty),
    ]
}

fn details() -> impl Strategy<Value = EventDetails> {
    proptest::collection::btree_map(field_name(), field_value(), 0..10).prop_map(|fields| {
        let mut d = EventDetails::new(EventTypeId::v1("prop-event"));
        for (k, v) in fields {
            d.set(k, v);
        }
        d
    })
}

fn allowed_set() -> impl Strategy<Value = BTreeSet<String>> {
    proptest::collection::btree_set(field_name(), 0..6)
}

proptest! {
    /// Definition 4 as a law: filtering to F always yields a
    /// privacy-safe instance, regardless of overlap between F and the
    /// instance's fields.
    #[test]
    fn filtered_details_are_always_privacy_safe(d in details(), f in allowed_set()) {
        let filtered = d.filtered_to(&f);
        prop_assert!(filtered.is_privacy_safe(&f));
        // Shape is preserved.
        prop_assert_eq!(filtered.len(), d.len());
    }

    /// Filtering is idempotent and monotone in exposure.
    #[test]
    fn filtering_idempotent_and_monotone(d in details(), f in allowed_set()) {
        let once = d.filtered_to(&f);
        let twice = once.filtered_to(&f);
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.exposed_bytes() <= d.exposed_bytes());
    }

    /// A smaller allowed set never exposes more.
    #[test]
    fn smaller_allowed_set_exposes_no_more(d in details(), f in allowed_set()) {
        let mut smaller = f.clone();
        let removed = smaller.iter().next().cloned();
        if let Some(r) = removed {
            smaller.remove(&r);
        }
        prop_assert!(d.filtered_to(&smaller).exposed_bytes() <= d.filtered_to(&f).exposed_bytes());
    }

    /// The release constructor upholds the invariant for any input.
    #[test]
    fn release_invariant(d in details(), f in allowed_set()) {
        let released = PrivacyAwareEvent::release(
            GlobalEventId(1),
            ActorId(1),
            d,
            f,
        );
        prop_assert!(released.is_privacy_safe());
    }

    /// Deny-by-default: whatever the request, an empty PDP denies.
    #[test]
    fn empty_pdp_denies_everything(
        actor in 1u64..100,
        ty in "[a-z]{3,10}",
        purpose_code in "[a-z-]{3,15}",
    ) {
        let pdp = PolicyDecisionPoint::new();
        let mut actors = ActorRegistry::new();
        actors.register(Actor::organization(ActorId(actor), "X")).unwrap();
        let request = DetailRequest::new(
            RequestId(1),
            ActorId(actor),
            EventTypeId::v1(&ty),
            GlobalEventId(1),
            purpose_code.parse::<Purpose>().unwrap(),
        );
        let d = pdp.evaluate(&request, &actors, Timestamp(0));
        prop_assert!(matches!(d, Decision::Deny(_)));
    }

    /// A permit's allowed fields always come from the matching policies'
    /// field sets (no field materializes out of nowhere).
    #[test]
    fn permit_fields_subset_of_policy_fields(
        policy_fields in proptest::collection::btree_set(field_name(), 0..8),
    ) {
        let mut pdp = PolicyDecisionPoint::new();
        let mut actors = ActorRegistry::new();
        actors.register(Actor::organization(ActorId(1), "Consumer")).unwrap();
        pdp.install(PrivacyPolicy::new(
            PolicyId(1),
            ActorId(9),
            ActorId(1),
            EventTypeId::v1("e"),
            [Purpose::Administration],
            policy_fields.iter().cloned(),
        ));
        let request = DetailRequest::new(
            RequestId(1),
            ActorId(1),
            EventTypeId::v1("e"),
            GlobalEventId(1),
            Purpose::Administration,
        );
        match pdp.evaluate(&request, &actors, Timestamp(0)) {
            Decision::Permit { allowed_fields, .. } => {
                prop_assert!(allowed_fields.is_subset(&policy_fields));
                prop_assert!(policy_fields.is_subset(&allowed_fields));
            }
            Decision::Deny(r) => prop_assert!(false, "unexpected deny: {r}"),
        }
    }

    /// Matching is exact on the event type: any differing code or
    /// version fails Definition 3.
    #[test]
    fn matching_requires_exact_type(
        code_a in "[a-z]{3,8}", code_b in "[a-z]{3,8}",
        va in 1u32..4, vb in 1u32..4,
    ) {
        let mut actors = ActorRegistry::new();
        actors.register(Actor::organization(ActorId(1), "A")).unwrap();
        let policy = PrivacyPolicy::new(
            PolicyId(1),
            ActorId(9),
            ActorId(1),
            EventTypeId::new(&code_a, va),
            [Purpose::Audit],
            ["f".to_string()],
        );
        let request = DetailRequest::new(
            RequestId(1),
            ActorId(1),
            EventTypeId::new(&code_b, vb),
            GlobalEventId(1),
            Purpose::Audit,
        );
        let outcome = matches(&policy, &request, &actors, Timestamp(0));
        if code_a == code_b && va == vb {
            prop_assert_eq!(outcome, MatchOutcome::Match);
        } else {
            prop_assert_eq!(outcome, MatchOutcome::WrongEventType);
        }
    }

    /// XACML serialization is lossless for arbitrary policies, up to
    /// the 50 fields and 4 purposes of the Fig. 8 size sweep.
    #[test]
    fn xacml_roundtrip(
        id in 1u64..10_000,
        actor in 1u64..100,
        producer in 1u64..100,
        ty in "[a-z][a-z-]{2,12}",
        fields in proptest::collection::btree_set("[A-Za-z]{1,10}", 0..51),
        purposes in proptest::collection::btree_set(
            prop_oneof![
                Just(Purpose::HealthcareTreatment),
                Just(Purpose::StatisticalAnalysis),
                // Filter out codes that collide with standard purposes:
                // those parse back to the standard variant, not Custom.
                "[a-z]{3,10}"
                    .prop_filter("custom code must not collide with standard", |c| {
                        Purpose::standard().iter().all(|p| p.code() != c)
                    })
                    .prop_map(Purpose::Custom),
            ],
            1..5,
        ),
        not_after in proptest::option::of(0u64..u64::MAX / 2),
        label in "[ -~]{0,20}",
        revoked in any::<bool>(),
    ) {
        let mut policy = PrivacyPolicy::new(
            PolicyId(id),
            ActorId(producer),
            ActorId(actor),
            EventTypeId::v1(&ty),
            purposes,
            fields,
        )
        .labeled(label, "prop test");
        policy.validity.not_after = not_after.map(Timestamp);
        if revoked {
            policy.revoke();
        }
        let xml_text = css::xml::to_string_pretty(&css::policy::xacml::to_xacml(&policy));
        let parsed = css::policy::xacml::from_xacml(
            &css::xml::parse(&xml_text).unwrap()
        ).unwrap();
        prop_assert_eq!(parsed, policy);
    }

    /// Sealed boxes round-trip and any single-byte corruption is caught.
    #[test]
    fn sealed_box_roundtrip_and_tamper(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<usize>(),
    ) {
        let sealer = SealedBox::new(&key);
        let mut sealed = sealer.seal(seq, &payload);
        prop_assert_eq!(sealer.open(&sealed).unwrap(), payload);
        let idx = flip % sealed.len();
        sealed[idx] ^= 0x55;
        prop_assert!(sealer.open(&sealed).is_err());
    }

    /// Hash chains detect any payload mutation.
    #[test]
    fn hash_chain_detects_mutation(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..20),
        victim in any::<usize>(),
    ) {
        let mut chain = HashChain::new();
        for p in &payloads {
            chain.append(p.clone());
        }
        prop_assert!(chain.verify().is_ok());
        let mut links = chain.links().to_vec();
        let idx = victim % links.len();
        links[idx].payload.push(0xFF);
        prop_assert!(HashChain::from_links(links).is_err());
    }

    /// Decimal parse/display round-trips.
    #[test]
    fn decimal_roundtrip(mantissa in -1_000_000_000i64..1_000_000_000, scale in 0u8..9) {
        let d = Decimal::new(mantissa, scale);
        let s = d.to_string();
        let back: Decimal = s.parse().unwrap();
        prop_assert_eq!(back, d);
    }

    /// XML escaping round-trips arbitrary text.
    #[test]
    fn xml_text_roundtrip(text in "[ -~]{0,64}") {
        let doc = css::xml::Element::new("t").text(text.clone());
        let parsed = css::xml::parse(&css::xml::to_string(&doc)).unwrap();
        // Leading/trailing whitespace is normalized away by content
        // handling; compare trimmed.
        prop_assert_eq!(parsed.text_content(), text.trim());
    }

    /// XML attribute values round-trip exactly (no trimming there).
    #[test]
    fn xml_attr_roundtrip(value in "[ -~]{0,64}") {
        let doc = css::xml::Element::new("t").attr("v", value.clone());
        let parsed = css::xml::parse(&css::xml::to_string(&doc)).unwrap();
        prop_assert_eq!(parsed.attribute("v").unwrap(), value);
    }
}

// ---- structured XML round-trip -------------------------------------

fn arb_element(depth: u32) -> impl Strategy<Value = css::xml::Element> {
    let name = "[A-Za-z][A-Za-z0-9]{0,8}";
    let attr = ("[A-Za-z][A-Za-z0-9]{0,6}", "[ -~]{0,12}");
    let leaf = (name, proptest::collection::vec(attr, 0..3), "[ -~]{1,16}").prop_map(
        |(n, attrs, text)| {
            let mut e = css::xml::Element::new(n);
            for (k, v) in attrs {
                if e.attribute(&k).is_none() {
                    e.attributes.push((k, v));
                }
            }
            // Whitespace-only text normalizes away in parsing, so only
            // attach a text node when something survives trimming.
            let text = text.trim().to_string();
            if text.is_empty() {
                e
            } else {
                e.text(text)
            }
        },
    );
    leaf.prop_recursive(depth, 24, 4, move |inner| {
        (
            "[A-Za-z][A-Za-z0-9]{0,8}",
            proptest::collection::vec(("[A-Za-z][A-Za-z0-9]{0,6}", "[ -~]{0,12}"), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, kids)| {
                let mut e = css::xml::Element::new(n);
                for (k, v) in attrs {
                    if e.attribute(&k).is_none() {
                        e.attributes.push((k, v));
                    }
                }
                e.children(kids)
            })
    })
}

proptest! {
    /// Arbitrary element trees survive write → parse, both compact and
    /// pretty-printed (whitespace-only text normalization aside, which
    /// the generator avoids by trimming leaf text).
    #[test]
    fn structured_xml_roundtrip(tree in arb_element(3)) {
        let compact = css::xml::parse(&css::xml::to_string(&tree)).unwrap();
        prop_assert_eq!(&compact, &tree);
        // Pretty printing preserves attributes and element structure
        // (text inside mixed-content nodes keeps its value because the
        // generator only puts text in leaves).
        let pretty = css::xml::parse(&css::xml::to_string_pretty(&tree)).unwrap();
        prop_assert_eq!(pretty.subtree_size(), tree.subtree_size());
    }
}
