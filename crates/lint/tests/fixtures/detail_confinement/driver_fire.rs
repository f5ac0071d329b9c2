//! FIXTURE (linted as crate `css-bus`, role Production): a bus
//! instantiated over the confined detail payload — the temptation the
//! payload-blind `Bus<M>` exists to forbid. A `Bus<DetailMessage>`
//! would queue, redeliver and dead-letter unfiltered person data on
//! every hop. Must fire `detail-confinement` twice (the field's type
//! argument + the publishing signature).

pub struct DetailFeed {
    bus: Bus<DetailMessage>,
}

impl DetailFeed {
    pub fn forward(&self, topic: &str, msg: DetailMessage) -> CssResult<usize> {
        self.bus.publish(topic, msg, None)
    }
}
