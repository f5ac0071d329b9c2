//! FIXTURE (linted as crate `css-controller`, role Production): what
//! the one-visit detail lookup returns carries the unsealed data
//! subject; naming a metric after it and publishing a subject's
//! profile are identity flows. Must fire `identity-taint` twice.

impl Enforcer {
    pub fn count(&self, request: &DetailRequest) -> CssResult<()> {
        let found = self.index.resolve_detail_request(request.event_id)?;
        let label = format!("detail.{:?}", found);
        self.metrics.counter(&label, 1);
        Ok(())
    }

    pub fn broadcast(&self, person: PersonId) -> CssResult<()> {
        let profile = self.index.notifications_of_person(person)?;
        self.bus.publish(profile)?;
        Ok(())
    }
}
