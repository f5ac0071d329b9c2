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

use std::borrow::Cow;

use css_types::{CssError, CssResult, Purpose, Timestamp};
use css_xml::{Element, Reader, Token, TreeSink, TreeSource, XmlSink, XmlSource};

use crate::model::{PrivacyPolicy, ValidityWindow};

const RULE_COMBINING: &str =
    "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides";
const OBLIGATION_FILTER: &str = "urn:css:obligation:filter-fields";
const STRING_EQUAL: &str = "urn:oasis:names:tc:xacml:1.0:function:string-equal";

/// The `Target`'s sections, in document order: the section, the
/// element per value and the match element holding the value.
const SECTIONS: [[&str; 3]; 3] = [
    ["Subjects", "Subject", "SubjectMatch"],
    ["Resources", "Resource", "ResourceMatch"],
    ["Actions", "Action", "ActionMatch"],
];

impl PrivacyPolicy {
    /// Write the policy's XACML document into `sink` — the one
    /// encoder: a define's audit record carries its text
    /// ([`css_xml::StreamSink`]), [`to_xacml`] builds its tree.
    pub fn encode(&self, sink: &mut impl XmlSink) {
        sink.open("Policy");
        sink.attr("PolicyId", self.id);
        sink.attr("RuleCombiningAlgId", RULE_COMBINING);
        sink.attr("Producer", self.producer);
        if !self.label.is_empty() {
            sink.attr("Label", &self.label);
        }
        if let Some(t) = self.validity.not_before {
            sink.attr("ValidFrom", t.as_millis());
        }
        if let Some(t) = self.validity.not_after {
            sink.attr("ValidUntil", t.as_millis());
        }
        if self.revoked {
            sink.attr("Revoked", "true");
        }
        if !self.description.is_empty() {
            sink.leaf("Description", &self.description);
        }
        sink.open("Target");
        encode_section(sink, SECTIONS[0], [self.actor]);
        encode_section(sink, SECTIONS[1], [&self.event_type]);
        encode_section(sink, SECTIONS[2], self.purposes.iter().map(Purpose::code));
        sink.close();
        sink.open("Rule");
        sink.attr("RuleId", format_args!("{}-rule", self.id));
        sink.attr("Effect", "Permit");
        sink.close();
        sink.open("Obligations");
        sink.open("Obligation");
        sink.attr("ObligationId", OBLIGATION_FILTER);
        sink.attr("FulfillOn", "Permit");
        for field in &self.fields {
            sink.open("AttributeAssignment");
            sink.attr("AttributeId", "urn:css:field");
            sink.text(field);
            sink.close();
        }
        sink.close();
        sink.close();
        sink.close();
    }

    /// The one decoder: read a policy's XACML document off `src`, to
    /// its end. Children of any element may come in any order, and
    /// those it does not know are read past; of a name it reads once,
    /// the first counts. A match value counts at any depth of its
    /// section.
    pub fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("XACML: {msg}"));
        src.root_named("Policy", bad)?;
        let (attrs, first) = src.attributes([
            "PolicyId",
            "Producer",
            "Label",
            "ValidFrom",
            "ValidUntil",
            "Revoked",
        ])?;
        let (mut description, mut target, mut effect, mut fields) = (None, None, None, None);
        let children = ["Description", "Target", "Rule", "Obligations"];
        src.children(children, first, |src, _, child| {
            match child {
                "Description" => description = Some(src.text_content()?),
                "Target" => target = Some(decode_target(src)?),
                "Rule" => {
                    let (mut rule, rest) = src.attributes(["Effect"])?;
                    effect = Some(rule.take("Effect"));
                    src.skip_rest(rest)?;
                }
                _ => fields = Some(decode_obligations(src)?),
            }
            Ok(())
        })?;
        src.finish()?;

        let id = attrs.required("PolicyId", bad)?;
        let producer = attrs.required("Producer", bad)?;
        let [subjects, resources, actions] =
            target.ok_or_else(|| bad("missing <Target>".into()))?;
        let actor = subjects
            .first()
            .ok_or_else(|| bad("missing subject".into()))?
            .parse()
            .map_err(|err| bad(format!("bad subject: {err}")))?;
        let event_type = resources
            .first()
            .ok_or_else(|| bad("missing resource".into()))?
            .parse()
            .map_err(|err| bad(format!("bad resource: {err}")))?;
        let purposes: Vec<Purpose> = actions.iter().map(|s| Purpose::from_code(s)).collect();
        if purposes.is_empty() {
            return Err(bad("policy allows no purposes".into()));
        }
        // Rule must exist and be a Permit (deny-by-default makes Deny rules
        // meaningless in this subset).
        match effect.ok_or_else(|| bad("missing <Rule>".into()))? {
            Some(effect) if effect == "Permit" => {}
            _ => return Err(bad("only Permit rules are supported".into())),
        }
        let at = |attr: &str| -> CssResult<Option<Timestamp>> {
            let ms = attrs.get(attr).map(str::parse::<u64>).transpose();
            Ok(ms
                .map_err(|err| bad(format!("bad {attr}: {err}")))?
                .map(Timestamp))
        };
        let validity = ValidityWindow {
            not_before: at("ValidFrom")?,
            not_after: at("ValidUntil")?,
        };
        let fields = fields.unwrap_or_default();
        let mut policy = PrivacyPolicy::new(id, producer, actor, event_type, purposes, fields)
            .valid(validity)
            .labeled(
                attrs.get("Label").unwrap_or_default(),
                description.unwrap_or_default(),
            );
        if attrs.get("Revoked") == Some("true") {
            policy.revoke();
        }
        Ok(policy)
    }
}

/// One `Target` section: per value, an element holding a string-equal
/// match on it.
fn encode_section<T: std::fmt::Display>(
    sink: &mut impl XmlSink,
    [section, item, matcher]: [&str; 3],
    values: impl IntoIterator<Item = T>,
) {
    sink.open(section);
    for value in values {
        sink.open(item);
        sink.open(matcher);
        sink.attr("MatchId", STRING_EQUAL);
        sink.leaf("AttributeValue", value);
        sink.close();
        sink.close();
    }
    sink.close();
}

/// The match values of the `Target` just opened, per section in
/// [`SECTIONS`] order: those under the first section of each name.
fn decode_target<'a>(src: &mut impl XmlSource<'a>) -> CssResult<[Vec<Cow<'a, str>>; 3]> {
    let mut sections: [Vec<_>; 3] = Default::default();
    let first = src.next()?;
    src.children(SECTIONS.map(|names| names[0]), first, |src, at, _| {
        let first = src.next()?;
        walk(src, SECTIONS[at][2], first, &mut sections[at], None).map(drop)
    })?;
    Ok(sections.map(|values| values.into_iter().flatten().collect()))
}

/// Read the rest of the current element, whose content starts with
/// `token`, and answer its own text runs, concatenated and trimmed.
/// Each `matcher` element at any depth inside it takes a slot in
/// `values`, in document order, holding the text of its first
/// `AttributeValue` child if it has one; `slot` is the current
/// element's, if it is a match.
fn walk<'a>(
    src: &mut impl XmlSource<'a>,
    matcher: &str,
    mut token: Token<'a>,
    values: &mut Vec<Option<Cow<'a, str>>>,
    slot: Option<usize>,
) -> CssResult<Cow<'a, str>> {
    let mut text = Cow::Borrowed("");
    loop {
        match token {
            Token::Text(run) if text.is_empty() => text = run,
            Token::Text(run) => text.to_mut().push_str(&run),
            Token::Open(name) => {
                let inner = (name == matcher).then(|| {
                    values.push(None);
                    values.len() - 1
                });
                let first = src.next()?;
                let own = walk(src, matcher, first, values, inner)?;
                if let Some(slot) = slot.filter(|_| name == "AttributeValue") {
                    values[slot].get_or_insert(own);
                }
            }
            Token::Close | Token::Eof => {
                return Ok(match text {
                    Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
                    Cow::Owned(s) => Cow::Owned(s.trim().to_string()),
                })
            }
            Token::Attr(..) => {}
        }
        token = src.next()?;
    }
}

/// The fields of the filter obligations among the children of the
/// `Obligations` element just opened.
fn decode_obligations<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Vec<String>> {
    let mut fields = Vec::new();
    let first = src.next()?;
    src.each("Obligation", first, |src| {
        let (attrs, inner) = src.attributes(["ObligationId"])?;
        if attrs.get("ObligationId") == Some(OBLIGATION_FILTER) {
            let assigned = src.texts("AttributeAssignment", inner)?;
            fields.extend(assigned.into_iter().map(Cow::into_owned));
            Ok(())
        } else {
            Ok(src.skip_rest(inner)?)
        }
    })?;
    Ok(fields)
}

/// Serialize a policy to its XACML document, as a tree.
pub fn to_xacml(policy: &PrivacyPolicy) -> Element {
    TreeSink::build(|tree| policy.encode(tree))
}

/// Parse a policy back from its XACML document's tree.
pub fn from_xacml(e: &Element) -> CssResult<PrivacyPolicy> {
    PrivacyPolicy::decode(&mut TreeSource::new(e))
}

/// Parse a policy from the text of its XACML document, as a
/// `PolicyChange` audit record carries it: from its tokens, building
/// no tree.
pub fn from_xacml_text(text: &str) -> CssResult<PrivacyPolicy> {
    PrivacyPolicy::decode(&mut Reader::new(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_types::{ActorId, EventTypeId, PolicyId};

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

    /// Fig. 8's policy, as the tree writer wrote it.
    const FIG8: &str = "<Policy PolicyId=\"pol-00000008\" RuleCombiningAlgId=\"urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides\" Producer=\"act-00000030\" Label=\"family-doctor-homecare\"><Description>Fig. 8 example policy</Description><Target><Subjects><Subject><SubjectMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>act-00000012</AttributeValue></SubjectMatch></Subject></Subjects><Resources><Resource><ResourceMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>home-care-service-event@v1</AttributeValue></ResourceMatch></Resource></Resources><Actions><Action><ActionMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>healthcare-treatment</AttributeValue></ActionMatch></Action></Actions></Target><Rule RuleId=\"pol-00000008-rule\" Effect=\"Permit\"/><Obligations><Obligation ObligationId=\"urn:css:obligation:filter-fields\" FulfillOn=\"Permit\"><AttributeAssignment AttributeId=\"urn:css:field\">Name</AttributeAssignment><AttributeAssignment AttributeId=\"urn:css:field\">PatientId</AttributeAssignment><AttributeAssignment AttributeId=\"urn:css:field\">Surname</AttributeAssignment></Obligation></Obligations></Policy>";

    fn text_of(p: &PrivacyPolicy) -> String {
        let mut text = String::new();
        p.encode(&mut css_xml::StreamSink::new(&mut text));
        text
    }

    #[test]
    fn document_shape_matches_fig8() {
        let p = fig8_like_policy();
        assert_eq!(css_xml::to_string(&to_xacml(&p)), FIG8);
        assert_eq!(text_of(&p), FIG8);
    }

    /// Every byte the encoder writes is the byte the tree builder
    /// wrote: escaping, validity bounds and the revocation included.
    #[test]
    fn the_wire_form_is_pinned() {
        let mut p = PrivacyPolicy::new(
            PolicyId(8),
            ActorId(30),
            ActorId(12),
            EventTypeId::v1("home-care-service-event"),
            [
                Purpose::HealthcareTreatment,
                Purpose::Custom("pilot <&> \"study\"".into()),
            ],
            ["PatientId", "Name", "Surname"].map(String::from),
        )
        .valid(ValidityWindow::between(Timestamp(1_000), Timestamp(2_000)))
        .labeled("<doctor's> \"home\" & care", "Fig. 8 & <more>");
        p.revoke();
        let pinned = "<Policy PolicyId=\"pol-00000008\" RuleCombiningAlgId=\"urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides\" Producer=\"act-00000030\" Label=\"&lt;doctor&apos;s&gt; &quot;home&quot; &amp; care\" ValidFrom=\"1000\" ValidUntil=\"2000\" Revoked=\"true\"><Description>Fig. 8 &amp; &lt;more&gt;</Description><Target><Subjects><Subject><SubjectMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>act-00000012</AttributeValue></SubjectMatch></Subject></Subjects><Resources><Resource><ResourceMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>home-care-service-event@v1</AttributeValue></ResourceMatch></Resource></Resources><Actions><Action><ActionMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>healthcare-treatment</AttributeValue></ActionMatch></Action><Action><ActionMatch MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\"><AttributeValue>pilot &lt;&amp;&gt; \"study\"</AttributeValue></ActionMatch></Action></Actions></Target><Rule RuleId=\"pol-00000008-rule\" Effect=\"Permit\"/><Obligations><Obligation ObligationId=\"urn:css:obligation:filter-fields\" FulfillOn=\"Permit\"><AttributeAssignment AttributeId=\"urn:css:field\">Name</AttributeAssignment><AttributeAssignment AttributeId=\"urn:css:field\">PatientId</AttributeAssignment><AttributeAssignment AttributeId=\"urn:css:field\">Surname</AttributeAssignment></Obligation></Obligations></Policy>";
        assert_eq!(css_xml::to_string(&to_xacml(&p)), pinned);
        assert_eq!(text_of(&p), pinned);
        assert_eq!(from_xacml_text(pinned).unwrap(), p);
    }

    /// What the tree reader accepted: children in any order, unknown
    /// ones read past, the first of a repeated one, match values at any
    /// depth of their section, and whitespace and comments anywhere.
    #[test]
    fn lenient_documents_read_as_they_did() {
        let text = r#"<Policy Extra="x" Producer="act-00000030" PolicyId="pol-00000009">
            <Unknown><Target/></Unknown>
            <Rule Effect="Permit"><Condition/></Rule>
            <Rule Effect="Deny"/>
            <Obligations>
              <Obligation ObligationId="other"><AttributeAssignment>Secret</AttributeAssignment></Obligation>
              <Obligation ObligationId="urn:css:obligation:filter-fields">
                <AttributeAssignment> Name </AttributeAssignment><!-- c -->
                <Note>x</Note>
              </Obligation>
            </Obligations>
            <Target>
              <Actions><Group><Action><ActionMatch>
                <Other>no</Other>
                <AttributeValue>administration<b>x</b></AttributeValue>
                <AttributeValue>ignored</AttributeValue>
              </ActionMatch></Action></Group><ActionMatch/></Actions>
              <Subjects><SubjectMatch><AttributeValue>act-00000002</AttributeValue></SubjectMatch></Subjects>
              <Subjects><SubjectMatch><AttributeValue>act-00000003</AttributeValue></SubjectMatch></Subjects>
              <Resources><Resource><Deep><ResourceMatch><AttributeValue><![CDATA[x@v1]]></AttributeValue></ResourceMatch></Deep></Resource></Resources>
            </Target>
            <Target/>
            <Description>first</Description><Description>second</Description>
          </Policy>"#;
        let expected = PrivacyPolicy::new(
            PolicyId(9),
            ActorId(30),
            ActorId(2),
            EventTypeId::v1("x"),
            [Purpose::Administration],
            ["Name".to_string()],
        )
        .labeled("", "first");
        assert_eq!(from_xacml_text(text).unwrap(), expected);
        assert_eq!(
            from_xacml(&css_xml::parse(text).unwrap()).unwrap(),
            expected
        );
    }

    /// The text of `p`'s document with the element starting `<{name}`
    /// cut out.
    fn without(p: &PrivacyPolicy, name: &str) -> String {
        let text = text_of(p);
        let start = text.find(&format!("<{name}")).unwrap();
        let end = match text.find(&format!("</{name}>")) {
            Some(at) => at + name.len() + 3,
            None => start + text[start..].find("/>").unwrap() + 2,
        };
        format!("{}{}", &text[..start], &text[end..])
    }

    #[test]
    fn from_xacml_rejects_deny_rule() {
        // Flip the rule effect.
        let text = text_of(&fig8_like_policy()).replace("Effect=\"Permit\"", "Effect=\"Deny\"");
        let refused = "XACML: only Permit rules are supported";
        for err in [
            from_xacml_text(&text).unwrap_err(),
            from_xacml(&css_xml::parse(&text).unwrap()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, CssError::Serialization(m) if m == refused),
                "{err}"
            );
        }
    }

    #[test]
    fn from_xacml_rejects_missing_parts() {
        let p = fig8_like_policy();
        // Remove Target → error; remove Rule → error.
        for (part, message) in [("Target", "missing <Target>"), ("Rule", "missing <Rule>")] {
            let text = without(&p, part);
            assert!(!text.contains(&format!("<{part}")), "{text}");
            let err = from_xacml_text(&text).unwrap_err();
            assert!(err.to_string().contains(message), "{err}");
            assert!(from_xacml(&css_xml::parse(&text).unwrap()).is_err());
        }
        // Wrong root → error.
        assert!(from_xacml(&Element::new("PolicySet")).is_err());
        assert!(from_xacml_text("<PolicySet/>").is_err());
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
        let refused = "XACML: policy allows no purposes";
        for err in [
            from_xacml(&to_xacml(&p)).unwrap_err(),
            from_xacml_text(&text_of(&p)).unwrap_err(),
        ] {
            assert!(
                matches!(&err, CssError::Serialization(m) if m == refused),
                "{err}"
            );
        }
    }
}
