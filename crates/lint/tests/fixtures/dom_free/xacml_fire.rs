//! FIXTURE (linted as crate `css-policy`, role Production): the journal
//! fold's XACML reader parsing the document into a tree before walking
//! it. Must fire `dom-free-read-path` once.

/// Parse a policy from the text of its XACML document.
pub fn from_xacml_text(text: &str) -> CssResult<PrivacyPolicy> {
    let doc =
        css_xml::parse(text).map_err(|e| CssError::Serialization(e.to_string()))?;
    from_xacml(&doc)
}
