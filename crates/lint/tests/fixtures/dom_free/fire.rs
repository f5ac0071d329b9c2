//! FIXTURE (linted as crate `css-audit`, role Production): a replay
//! loop that parses each stored record into a tree before decoding it,
//! once by path and once through an import group. Must fire
//! `dom-free-read-path` twice.

use css_xml::{parse, StreamSink};

impl ShardLog {
    pub fn replay(&mut self, text: &str) -> CssResult<AuditRecord> {
        let doc = css_xml::parse(text)?;
        AuditRecord::from_xml(&doc)
    }

    pub fn replay_imported(&mut self, text: &str) -> CssResult<AuditRecord> {
        AuditRecord::from_xml(&parse(text)?)
    }
}
