//! FIXTURE (linted as crate `css-storage`, role Production): a tree
//! parse carrying a justified inline waiver. The finding must land in
//! the *waived* set, not the active one.

pub fn import_legacy(&self, text: &str) -> CssResult<Element> {
    // css-lint: allow(dom-free-read-path): startup-only path; the legacy import runs once before the store opens
    css_xml::parse(text)
}
