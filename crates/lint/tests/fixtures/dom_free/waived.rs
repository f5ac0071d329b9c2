//! FIXTURE (linted as crate `css-storage`, role Production): a tree
//! parse under an `allow` comment with a reason. The comment
//! suppresses nothing: must fire once.

pub fn import_legacy(&self, text: &str) -> CssResult<Element> {
    // css-lint: allow(dom-free-read-path): startup-only path; the legacy import runs once before the store opens
    css_xml::parse(text)
}
