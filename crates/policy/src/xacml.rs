//! XACML serialization of privacy policies (Fig. 8).
//!
//! "We are using XACML to model internally to the Policy Enforcer module
//! the privacy policies" (Section 5.1). The elicitation tool
//! "automatically generates and stores in a policy repository the
//! privacy policy in XACML format" (Section 6).
//!
//! The document shape follows the paper's Fig. 8 example: a `Policy`
//! with a `Target` (Subjects = the actor, Resources = the event type,
//! Actions = the purposes), one Permit `Rule`, and an `Obligations`
//! block enumerating the accessible fields. The paper's architecture is
//! explicitly *notation-independent* ("the way we interact with the data
//! producer and data consumer is independent from the underlying
//! notation"): policies are compiled once at definition time, so the
//! mapping never runs on the request path (EXPERIMENTS.md E5).

use css_types::{ActorId, CssError, CssResult, PolicyId, Purpose, Timestamp};
use css_xml::Element;

use crate::model::{PrivacyPolicy, ValidityWindow};

const RULE_COMBINING: &str =
    "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides";
const OBLIGATION_FILTER: &str = "urn:css:obligation:filter-fields";

/// Serialize a policy to its XACML document.
pub fn to_xacml(policy: &PrivacyPolicy) -> Element {
    let mut root = Element::new("Policy")
        .attr("PolicyId", policy.id.to_string())
        .attr("RuleCombiningAlgId", RULE_COMBINING)
        .attr("Producer", policy.producer.to_string());
    if !policy.label.is_empty() {
        root = root.attr("Label", policy.label.clone());
    }
    if let Some(t) = policy.validity.not_before {
        root = root.attr("ValidFrom", t.as_millis().to_string());
    }
    if let Some(t) = policy.validity.not_after {
        root = root.attr("ValidUntil", t.as_millis().to_string());
    }
    if policy.revoked {
        root = root.attr("Revoked", "true");
    }
    if !policy.description.is_empty() {
        root = root.child(Element::leaf("Description", policy.description.clone()));
    }

    let subjects = Element::new("Subjects").child(
        Element::new("Subject").child(
            Element::new("SubjectMatch")
                .attr(
                    "MatchId",
                    "urn:oasis:names:tc:xacml:1.0:function:string-equal",
                )
                .child(Element::leaf("AttributeValue", policy.actor.to_string())),
        ),
    );
    let resources = Element::new("Resources").child(
        Element::new("Resource").child(
            Element::new("ResourceMatch")
                .attr(
                    "MatchId",
                    "urn:oasis:names:tc:xacml:1.0:function:string-equal",
                )
                .child(Element::leaf(
                    "AttributeValue",
                    policy.event_type.to_string(),
                )),
        ),
    );
    let mut actions = Element::new("Actions");
    for purpose in &policy.purposes {
        actions = actions.child(
            Element::new("Action").child(
                Element::new("ActionMatch")
                    .attr(
                        "MatchId",
                        "urn:oasis:names:tc:xacml:1.0:function:string-equal",
                    )
                    .child(Element::leaf("AttributeValue", purpose.code())),
            ),
        );
    }
    let target = Element::new("Target")
        .child(subjects)
        .child(resources)
        .child(actions);

    let rule = Element::new("Rule")
        .attr("RuleId", format!("{}-rule", policy.id))
        .attr("Effect", "Permit");

    let mut obligation = Element::new("Obligation")
        .attr("ObligationId", OBLIGATION_FILTER)
        .attr("FulfillOn", "Permit");
    for field in &policy.fields {
        obligation = obligation.child(
            Element::new("AttributeAssignment")
                .attr("AttributeId", "urn:css:field")
                .text(field.clone()),
        );
    }
    let obligations = Element::new("Obligations").child(obligation);

    root.child(target).child(rule).child(obligations)
}

/// Parse a policy back from its XACML document.
pub fn from_xacml(e: &Element) -> CssResult<PrivacyPolicy> {
    let bad = |msg: String| CssError::Serialization(format!("XACML: {msg}"));
    if e.name != "Policy" {
        return Err(bad(format!("wrong root <{}>", e.name)));
    }
    let id: PolicyId = e
        .attribute("PolicyId")
        .ok_or_else(|| bad("missing PolicyId".into()))?
        .parse()
        .map_err(|err| bad(format!("bad PolicyId: {err}")))?;
    let producer: ActorId = e
        .attribute("Producer")
        .ok_or_else(|| bad("missing Producer".into()))?
        .parse()
        .map_err(|err| bad(format!("bad Producer: {err}")))?;
    let target = e
        .find("Target")
        .ok_or_else(|| bad("missing <Target>".into()))?;

    let match_values = |section: &str, match_tag: &str| -> Vec<String> {
        let mut out = Vec::new();
        if let Some(sec) = target.find(section) {
            sec.walk(&mut |el| {
                if el.name == match_tag {
                    if let Some(v) = el.find("AttributeValue") {
                        out.push(v.text_content());
                    }
                }
            });
        }
        out
    };

    let subjects = match_values("Subjects", "SubjectMatch");
    let actor: ActorId = subjects
        .first()
        .ok_or_else(|| bad("missing subject".into()))?
        .parse()
        .map_err(|err| bad(format!("bad subject: {err}")))?;

    let resources = match_values("Resources", "ResourceMatch");
    let event_type = resources
        .first()
        .ok_or_else(|| bad("missing resource".into()))?
        .parse()
        .map_err(|err| bad(format!("bad resource: {err}")))?;

    let purposes: Vec<Purpose> = match_values("Actions", "ActionMatch")
        .iter()
        .map(|s| Purpose::from_code(s))
        .collect();
    if purposes.is_empty() {
        return Err(bad("policy allows no purposes".into()));
    }

    // Rule must exist and be a Permit (deny-by-default makes Deny rules
    // meaningless in this subset).
    let rule = e.find("Rule").ok_or_else(|| bad("missing <Rule>".into()))?;
    if rule.attribute("Effect") != Some("Permit") {
        return Err(bad("only Permit rules are supported".into()));
    }

    let mut fields = Vec::new();
    if let Some(obligations) = e.find("Obligations") {
        for ob in obligations.find_all("Obligation") {
            if ob.attribute("ObligationId") == Some(OBLIGATION_FILTER) {
                for assign in ob.find_all("AttributeAssignment") {
                    fields.push(assign.text_content());
                }
            }
        }
    }

    let parse_ts = |attr: &str| -> CssResult<Option<Timestamp>> {
        match e.attribute(attr) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .map(|ms| Some(Timestamp(ms)))
                .map_err(|err| bad(format!("bad {attr}: {err}"))),
        }
    };
    let validity = ValidityWindow {
        not_before: parse_ts("ValidFrom")?,
        not_after: parse_ts("ValidUntil")?,
    };

    let mut policy = PrivacyPolicy::new(id, producer, actor, event_type, purposes, fields)
        .valid(validity)
        .labeled(
            e.attribute("Label").unwrap_or_default(),
            e.child_text("Description").unwrap_or_default(),
        );
    if e.attribute("Revoked") == Some("true") {
        policy.revoke();
    }
    Ok(policy)
}

/// Parse a policy from the text of its XACML document, as a
/// `PolicyChange` audit record carries it.
pub fn from_xacml_text(text: &str) -> CssResult<PrivacyPolicy> {
    let doc = css_xml::parse(text).map_err(|e| CssError::Serialization(e.to_string()))?;
    from_xacml(&doc)
}

/// Map a detail request to an XACML `Request` context (Fig. 5: "the
/// request for details of the data consumer is mapped to an XACML
/// request by the policy enforcer").
pub fn to_xacml_request(request: &crate::request::DetailRequest) -> Element {
    let attribute = |id: &str, value: String| {
        Element::new("Attribute")
            .attr("AttributeId", id)
            .child(Element::leaf("AttributeValue", value))
    };
    Element::new("Request")
        .child(Element::new("Subject").child(attribute(
            "urn:css:subject:actor",
            request.actor.to_string(),
        )))
        .child(
            Element::new("Resource")
                .child(attribute(
                    "urn:css:resource:event-type",
                    request.event_type.to_string(),
                ))
                .child(attribute(
                    "urn:css:resource:event-id",
                    request.event_id.to_string(),
                )),
        )
        .child(Element::new("Action").child(attribute(
            "urn:css:action:purpose",
            request.purpose.code().to_string(),
        )))
        .child(Element::new("Environment").child(attribute(
            "urn:css:environment:request-id",
            request.request_id.to_string(),
        )))
}

/// Parse a detail request back from its XACML `Request` context.
pub fn from_xacml_request(e: &Element) -> CssResult<crate::request::DetailRequest> {
    let bad = |msg: String| CssError::Serialization(format!("XACML Request: {msg}"));
    if e.name != "Request" {
        return Err(bad(format!("wrong root <{}>", e.name)));
    }
    let find_attr = |section: &str, id: &str| -> CssResult<String> {
        e.find(section)
            .ok_or_else(|| bad(format!("missing <{section}>")))?
            .find_all("Attribute")
            .find(|a| a.attribute("AttributeId") == Some(id))
            .and_then(|a| a.child_text("AttributeValue"))
            .ok_or_else(|| bad(format!("missing attribute {id}")))
    };
    let actor: ActorId = find_attr("Subject", "urn:css:subject:actor")?
        .parse()
        .map_err(|err| bad(format!("bad actor: {err}")))?;
    let event_type = find_attr("Resource", "urn:css:resource:event-type")?
        .parse()
        .map_err(|err| bad(format!("bad event type: {err}")))?;
    let event_id = find_attr("Resource", "urn:css:resource:event-id")?
        .parse()
        .map_err(|err| bad(format!("bad event id: {err}")))?;
    let purpose = Purpose::from_code(&find_attr("Action", "urn:css:action:purpose")?);
    let request_id = find_attr("Environment", "urn:css:environment:request-id")?
        .parse()
        .map_err(|err| bad(format!("bad request id: {err}")))?;
    Ok(crate::request::DetailRequest::new(
        request_id, actor, event_type, event_id, purpose,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_types::EventTypeId;

    fn fig8_like_policy() -> PrivacyPolicy {
        // Fig. 8: family doctor may access HomeCareServiceEvent for
        // HealthCareTreatment; only PatientId, Name, Surname accessible.
        PrivacyPolicy::new(
            PolicyId(8),
            ActorId(30),
            ActorId(12), // family doctor role
            EventTypeId::v1("home-care-service-event"),
            [Purpose::HealthcareTreatment],
            ["PatientId", "Name", "Surname"].map(String::from),
        )
        .labeled("family-doctor-homecare", "Fig. 8 example policy")
    }

    #[test]
    fn roundtrip_basic() {
        let p = fig8_like_policy();
        let doc = to_xacml(&p);
        let text = css_xml::to_string_pretty(&doc);
        let back = from_xacml(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        // As a define's audit record carries it.
        assert_eq!(from_xacml_text(&css_xml::to_string(&doc)).unwrap(), p);
        assert!(from_xacml_text(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn roundtrip_with_validity_and_revocation() {
        let mut p =
            fig8_like_policy().valid(ValidityWindow::between(Timestamp(1_000), Timestamp(2_000)));
        p.revoke();
        let back = from_xacml(&to_xacml(&p)).unwrap();
        assert_eq!(back, p);
        assert!(back.revoked);
    }

    #[test]
    fn roundtrip_multiple_purposes_and_custom() {
        let p = PrivacyPolicy::new(
            PolicyId(9),
            ActorId(1),
            ActorId(2),
            EventTypeId::v1("autonomy-test"),
            [
                Purpose::StatisticalAnalysis,
                Purpose::Administration,
                Purpose::Custom("pilot-study".into()),
            ],
            ["age".to_string()],
        );
        let back = from_xacml(&to_xacml(&p)).unwrap();
        assert_eq!(back.purposes, p.purposes);
    }

    #[test]
    fn roundtrip_empty_field_set() {
        // A policy can grant notification visibility with zero detail
        // fields (subscription-only authorization).
        let p = PrivacyPolicy::new(
            PolicyId(10),
            ActorId(1),
            ActorId(2),
            EventTypeId::v1("discharge"),
            [Purpose::Administration],
            Vec::<String>::new(),
        );
        let back = from_xacml(&to_xacml(&p)).unwrap();
        assert!(back.fields.is_empty());
    }

    #[test]
    fn document_shape_matches_fig8() {
        let doc = to_xacml(&fig8_like_policy());
        assert_eq!(doc.name, "Policy");
        let target = doc.find("Target").unwrap();
        assert!(target.find("Subjects").is_some());
        assert!(target.find("Resources").is_some());
        assert!(target.find("Actions").is_some());
        assert_eq!(
            doc.find("Rule").unwrap().attribute("Effect"),
            Some("Permit")
        );
        let fields: Vec<String> = doc
            .find("Obligations")
            .unwrap()
            .find("Obligation")
            .unwrap()
            .find_all("AttributeAssignment")
            .map(|a| a.text_content())
            .collect();
        assert_eq!(fields.len(), 3);
    }

    #[test]
    fn from_xacml_rejects_deny_rule() {
        let mut doc = to_xacml(&fig8_like_policy());
        // Flip the rule effect.
        for child in &mut doc.children {
            if let css_xml::Node::Element(el) = child {
                if el.name == "Rule" {
                    el.attributes.retain(|(k, _)| k != "Effect");
                    el.attributes.push(("Effect".into(), "Deny".into()));
                }
            }
        }
        assert!(from_xacml(&doc).is_err());
    }

    #[test]
    fn from_xacml_rejects_missing_parts() {
        let p = fig8_like_policy();
        let full = to_xacml(&p);
        // Remove Target → error.
        let mut no_target = full.clone();
        no_target
            .children
            .retain(|c| !matches!(c, css_xml::Node::Element(e) if e.name == "Target"));
        assert!(from_xacml(&no_target).is_err());
        // Remove Rule → error.
        let mut no_rule = full.clone();
        no_rule
            .children
            .retain(|c| !matches!(c, css_xml::Node::Element(e) if e.name == "Rule"));
        assert!(from_xacml(&no_rule).is_err());
        // Wrong root → error.
        assert!(from_xacml(&Element::new("PolicySet")).is_err());
    }

    #[test]
    fn from_xacml_rejects_no_purposes() {
        let p = PrivacyPolicy::new(
            PolicyId(11),
            ActorId(1),
            ActorId(2),
            EventTypeId::v1("x"),
            Vec::<Purpose>::new(),
            ["a".to_string()],
        );
        assert!(from_xacml(&to_xacml(&p)).is_err());
    }
}

#[cfg(test)]
mod request_tests {
    use super::*;
    use crate::request::DetailRequest;
    use css_types::{EventTypeId, GlobalEventId, RequestId};

    fn request() -> DetailRequest {
        DetailRequest::new(
            RequestId(44),
            ActorId(12),
            EventTypeId::v1("home-care-service-event"),
            GlobalEventId(9),
            Purpose::HealthcareTreatment,
        )
    }

    #[test]
    fn request_roundtrip() {
        let r = request();
        let text = css_xml::to_string_pretty(&to_xacml_request(&r));
        let back = from_xacml_request(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn request_context_shape() {
        let doc = to_xacml_request(&request());
        assert_eq!(doc.name, "Request");
        for section in ["Subject", "Resource", "Action", "Environment"] {
            assert!(doc.find(section).is_some(), "missing <{section}>");
        }
    }

    #[test]
    fn request_parse_rejects_malformed() {
        assert!(from_xacml_request(&Element::new("Response")).is_err());
        let mut doc = to_xacml_request(&request());
        doc.children
            .retain(|c| !matches!(c, css_xml::Node::Element(e) if e.name == "Action"));
        assert!(from_xacml_request(&doc).is_err());
    }

    #[test]
    fn request_roundtrip_custom_purpose() {
        let mut r = request();
        r.purpose = Purpose::Custom("pilot-study".into());
        let back = from_xacml_request(&to_xacml_request(&r)).unwrap();
        assert_eq!(back.purpose, r.purpose);
    }
}
