//! FIXTURE (linted as crate `css-controller`, role Production): the
//! PEP's one index visit unseals the data subject, and a subject's
//! profile unseals every identity filed under them — both are release
//! points. Two functions that make them without appending an audit
//! record. Must fire `audit-before-release` twice.

impl Enforcer {
    pub fn subject_of(&self, request: &DetailRequest) -> CssResult<DetailResolution> {
        let found = self.index.resolve_detail_request(
            request.event_id,
            &request.event_type,
            request.actor,
            &[],
        )?;
        Ok(found)
    }

    pub fn profile(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        self.index.notifications_of_person(person)
    }
}
