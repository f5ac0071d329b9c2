//! FIXTURE (linted as crate `css-controller`, role Production): the
//! identity sealed, and the person reduced to a keyed tag, before their
//! bytes are written into the binary at-rest form. Must not fire.

impl EventsIndex {
    pub fn encode_sealed(&self, id: u64, p: &PersonIdentity, sink: &mut impl XmlSink) {
        let sealed = self.sealer.seal(id, p.fiscal_code.as_bytes());
        let tag = self.tag_key.mac(p.fiscal_code.as_bytes());
        sink.attr_bytes("sealed", &sealed);
        sink.attr_bytes("tag", &tag);
    }
}
