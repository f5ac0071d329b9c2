//! FIXTURE (linted as crate `css-controller`, role Production): the
//! same two release points with the audit obligation met, plus the
//! plane's own method of that name forwarding to its shard (the narrow
//! interface itself, exempt). Must not fire.

impl Enforcer {
    pub fn subject_of(&self, request: &DetailRequest) -> CssResult<DetailResolution> {
        let found = self.index.resolve_detail_request(
            request.event_id,
            &request.event_type,
            request.actor,
            &[],
        )?;
        self.audit.append(AuditRecord::lookup(request))?;
        Ok(found)
    }

    pub fn profile(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        let out = self.index.notifications_of_person(person)?;
        self.audit.append(AuditRecord::subject_access(person))?;
        Ok(out)
    }
}

impl IndexShards {
    pub fn resolve_detail_request(&self, id: GlobalEventId) -> Option<DetailResolution> {
        self.shard(0).resolve_detail_request(id)
    }
}
