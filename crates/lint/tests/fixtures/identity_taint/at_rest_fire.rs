//! FIXTURE (linted as crate `css-controller`, role Production): an
//! index entry whose "sealed" bytes are the fiscal code itself, written
//! raw into the binary at-rest form. Must fire `identity-taint` once,
//! on the at-rest bytes.

impl IndexEntry {
    pub fn encode_leaky(&self, p: &PersonIdentity, sink: &mut impl XmlSink) {
        let plain = p.fiscal_code.clone();
        sink.attr_bytes("sealed", plain.as_bytes());
    }
}
