//! FIXTURE (linted as crate `css-controller`, role Production): an
//! identity flow into a span attribute under an `allow` comment, which
//! suppresses nothing: must fire once.

impl Monitor {
    pub fn forensic_span(&self, p: &PersonIdentity, span: &mut Span) {
        // css-lint: allow(identity-taint): E14 forensic replay runs inside the sealed enclave only
        span.attr(SpanAttr::actor(p.fiscal_code.clone()));
    }
}
