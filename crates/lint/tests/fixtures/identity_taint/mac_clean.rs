//! FIXTURE (linted as crate `css-controller`, role Production): a
//! fiscal code reduced to a keyed tag by `HmacKey::mac` — the kept-key
//! form of `hmac_sha256` — before it names a dedup key and a span
//! attribute. Must not fire.

impl Router {
    pub fn route(&self, p: &PersonIdentity, span: &mut Span) {
        let tag = self.tag_key.mac(p.fiscal_code.as_bytes());
        span.attr(SpanAttr::actor(to_hex(&tag)));
        self.bus
            .publish_opts("events", PublishOptions::new().dedup_key(&to_hex(&tag)));
    }
}
