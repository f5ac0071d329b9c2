//! A second [`BusDriver`]: a wrapper that journals broker operations.
//!
//! `RecordingDriver` proves the driver trait is genuinely pluggable —
//! it composes over *any* inner driver and the whole platform runs
//! unchanged on top of it. The journal records only privacy-safe
//! shape: topics, subscription ids, counts. Payloads are opaque `M`
//! values this module cannot inspect (and, per detail confinement,
//! could not name the concrete type of even if it wanted to).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use css_types::{CssResult, SubscriptionId};

use crate::broker::{Broker, SubscriptionConfig};
use crate::driver::{BusDriver, BusSnapshot, PublishOptions, PublishOutcome};
use crate::subscription::Delivery;

/// Journal entries are bounded; the oldest are dropped beyond this.
const JOURNAL_CAP: usize = 65_536;

/// One recorded broker operation. Carries identifiers and outcomes,
/// never payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusOp {
    /// A topic was declared.
    CreateTopic(String),
    /// A subscription attached (topic, delivery group).
    Attach {
        topic: String,
        group: Option<String>,
    },
    /// A subscription detached.
    Detach(SubscriptionId),
    /// A subscription's delivery group was closed to later publishes.
    Close(SubscriptionId),
    /// A publish was routed (`deduped` = dropped as a duplicate).
    Publish { topic: String, deduped: bool },
    /// A poll returned a message (or not).
    Poll {
        subscription: SubscriptionId,
        delivered: bool,
    },
    /// A delivery was acknowledged.
    Ack(SubscriptionId, u64),
    /// A delivery was negatively acknowledged.
    Nack(SubscriptionId, u64),
}

/// A [`BusDriver`] that forwards to an inner driver and journals every
/// operation.
pub struct RecordingDriver<M: Clone + Send + 'static> {
    inner: Arc<dyn BusDriver<M>>,
    journal: Mutex<Vec<BusOp>>,
}

impl<M: Clone + Send + 'static> RecordingDriver<M> {
    /// Record on top of an arbitrary inner driver.
    pub fn wrap(inner: Arc<dyn BusDriver<M>>) -> Self {
        RecordingDriver {
            inner,
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Record on top of a fresh in-memory [`Broker`].
    pub fn in_memory() -> Self {
        Self::wrap(Arc::new(Broker::new()))
    }

    /// Snapshot of the journal, oldest first.
    pub fn journal(&self) -> Vec<BusOp> {
        self.journal.lock().clone()
    }

    fn record(&self, op: BusOp) {
        let mut j = self.journal.lock();
        if j.len() >= JOURNAL_CAP {
            j.remove(0);
        }
        j.push(op);
    }
}

impl<M: Clone + Send + 'static> BusDriver<M> for RecordingDriver<M> {
    fn create_topic(&self, name: &str) {
        self.inner.create_topic(name);
        self.record(BusOp::CreateTopic(name.to_string()));
    }

    fn attach(
        &self,
        topic: &str,
        group: Option<&str>,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriptionId> {
        let id = self.inner.attach(topic, group, config)?;
        self.record(BusOp::Attach {
            topic: topic.to_string(),
            group: group.map(str::to_string),
        });
        Ok(id)
    }

    fn detach(&self, id: SubscriptionId) -> CssResult<()> {
        self.inner.detach(id)?;
        self.record(BusOp::Detach(id));
        Ok(())
    }

    fn close(&self, id: SubscriptionId) -> CssResult<()> {
        self.inner.close(id)?;
        self.record(BusOp::Close(id));
        Ok(())
    }

    fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome> {
        let outcome = self.inner.publish_opts(topic, message, opts)?;
        self.record(BusOp::Publish {
            topic: topic.to_string(),
            deduped: outcome.is_duplicate(),
        });
        Ok(outcome)
    }

    fn poll(&self, id: SubscriptionId, wait: Duration) -> CssResult<Option<Delivery<M>>> {
        let out = self.inner.poll(id, wait)?;
        self.record(BusOp::Poll {
            subscription: id,
            delivered: out.is_some(),
        });
        Ok(out)
    }

    fn ack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        self.inner.ack(id, delivery_id)?;
        self.record(BusOp::Ack(id, delivery_id));
        Ok(())
    }

    fn nack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        self.inner.nack(id, delivery_id)?;
        self.record(BusOp::Nack(id, delivery_id));
        Ok(())
    }

    fn snapshot(&self, member: Option<SubscriptionId>) -> BusSnapshot<M> {
        self.inner.snapshot(member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Bus;

    #[test]
    fn journal_captures_the_delivery_lifecycle() {
        let driver = Arc::new(RecordingDriver::<String>::in_memory());
        let bus = Bus::from_driver(driver.clone());
        bus.create_topic("t");
        let sub = bus
            .subscribe_group("t", "workers", SubscriptionConfig::default())
            .unwrap();
        bus.publish("t", "m".into(), None).unwrap();
        let d = sub.poll().unwrap().unwrap();
        sub.ack(d.delivery_id).unwrap();

        let journal = driver.journal();
        assert_eq!(journal[0], BusOp::CreateTopic("t".into()));
        assert_eq!(
            journal[1],
            BusOp::Attach {
                topic: "t".into(),
                group: Some("workers".into()),
            }
        );
        assert_eq!(
            journal[2],
            BusOp::Publish {
                topic: "t".into(),
                deduped: false,
            }
        );
        assert!(matches!(
            journal[3],
            BusOp::Poll {
                delivered: true,
                ..
            }
        ));
        assert!(matches!(journal[4], BusOp::Ack(_, _)));
    }

    #[test]
    fn journal_never_contains_payload_text() {
        let driver = Arc::new(RecordingDriver::<String>::in_memory());
        let bus = Bus::from_driver(driver.clone());
        bus.create_topic("t");
        let _sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        bus.publish("t", "FISCAL-CODE-XYZ sensitive payload".into(), None)
            .unwrap();
        let rendered = format!("{:?}", driver.journal());
        assert!(!rendered.contains("FISCAL-CODE-XYZ"));
    }

    #[test]
    fn recording_driver_dedups_through_the_inner_driver() {
        let driver = Arc::new(RecordingDriver::<u32>::in_memory());
        let bus = Bus::from_driver(driver.clone());
        bus.create_topic("t");
        let _sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        bus.publish_opts("t", 1, PublishOptions::new().dedup_key("k"))
            .unwrap();
        let dup = bus
            .publish_opts("t", 1, PublishOptions::new().dedup_key("k"))
            .unwrap();
        assert!(dup.is_duplicate());
        let journal = driver.journal();
        let dedup_flags: Vec<bool> = journal
            .iter()
            .filter_map(|op| match op {
                BusOp::Publish { deduped, .. } => Some(*deduped),
                _ => None,
            })
            .collect();
        assert_eq!(dedup_flags, vec![false, true]);
    }
}
