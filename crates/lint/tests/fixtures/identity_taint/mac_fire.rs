//! FIXTURE (linted as crate `css-controller`, role Production): the
//! tag is computed with `HmacKey::mac`, but the metric is named after
//! the plaintext the MAC was taken over. Must fire `identity-taint`
//! once, on the metric name.

impl Router {
    pub fn route(&self, p: &PersonIdentity, span: &mut Span) {
        let code = p.fiscal_code.clone();
        let tag = self.tag_key.mac(code.as_bytes());
        span.attr(SpanAttr::actor(to_hex(&tag)));
        self.metrics.counter(&format!("router.person.{}", code));
    }
}
