//! FIXTURE (linted as crate `css-controller`, role Production): the
//! same lookups with only a cardinality and a fixed name reaching the
//! sinks. Must not fire.

impl Enforcer {
    pub fn count(&self, request: &DetailRequest) -> CssResult<()> {
        let found = self.index.resolve_detail_request(request.event_id)?;
        self.metrics.counter("detail.resolved", 1);
        drop(found);
        Ok(())
    }

    pub fn sizes(&self, person: PersonId) -> CssResult<()> {
        let profile = self.index.notifications_of_person(person)?;
        let events = profile.len();
        self.metrics.gauge("profile.events", events as u64);
        Ok(())
    }
}
