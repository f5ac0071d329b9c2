//! FIXTURE (linted as crate `css-audit`, role Production): the same
//! replay off the token stream, a `str::parse` that is no XML parse,
//! and a tree parse inside a test module (masked). Must not fire.

use css_xml::{Reader, StreamSink};

impl ShardLog {
    pub fn replay(&mut self, text: &str) -> CssResult<AuditRecord> {
        AuditRecord::decode(&mut Reader::new(text))
    }

    pub fn seq_of(&self, attr: &str) -> CssResult<u64> {
        attr.parse::<u64>().map_err(bad_seq)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tree_fed_form_agrees() {
        let doc = css_xml::parse(TEXT).unwrap();
        assert_eq!(AuditRecord::from_xml(&doc).unwrap(), expected());
    }
}
