//! Durable storage of detail messages at the producer.

use css_event::{DetailMessage, EventSchema, InstanceNames};
use css_storage::{KvStore, LogBackend};
use css_types::{CssError, CssResult, SourceEventId};

/// Keyed, durable store of detail messages, indexed by source event
/// id. Each message is stored in the record form
/// ([`DetailMessage::encode_record`]); messages stored before that form
/// stay XML and read as they always did.
pub struct DetailStore<B: LogBackend> {
    store: KvStore<B>,
    /// The record being persisted, kept between persists.
    record: Vec<u8>,
}

impl<B: LogBackend> DetailStore<B> {
    /// Open the store over a backend, replaying existing messages.
    pub fn open(backend: B) -> CssResult<Self> {
        let (store, _torn) = KvStore::open(backend)?;
        Ok(DetailStore {
            store,
            record: Vec::new(),
        })
    }

    /// Persist a detail message of `schema`, whose
    /// [`EventSchema::instance_names`] are `names`. Fails on duplicate
    /// source event ids — details are immutable once notified.
    pub fn persist(
        &mut self,
        schema: &EventSchema,
        names: &InstanceNames,
        message: &DetailMessage,
    ) -> CssResult<()> {
        let k = key(message.src_event_id);
        if self.store.contains(&k) {
            return Err(CssError::AlreadyExists(format!(
                "detail message {} already persisted",
                message.src_event_id
            )));
        }
        self.record.clear();
        message.encode_record(schema, names, &mut self.record);
        self.store.put(&k, &self.record)?;
        self.store.sync()
    }

    /// The stored message for an id, as the bytes [`DetailStore::persist`]
    /// (or a build before the record form) wrote: one record read
    /// (CRC-checked). The gateway decodes them where they lie.
    pub(crate) fn stored(&self, id: SourceEventId) -> CssResult<Option<Vec<u8>>> {
        self.store.get(&key(id))
    }

    /// Highest source event id persisted, if any. Used after a restart
    /// to resume id generation past the recovered records.
    pub fn max_src_id(&self) -> Option<SourceEventId> {
        self.store
            .keys()
            .filter_map(|k| {
                std::str::from_utf8(k)
                    .ok()?
                    .strip_prefix("detail:")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map(SourceEventId)
    }

    /// Number of persisted messages.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

fn key(id: SourceEventId) -> Vec<u8> {
    format!("detail:{}", id.value()).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_event::{EventDetails, FieldDef, FieldKind, FieldValue};
    use css_storage::{FileBackend, MemBackend};
    use css_types::{ActorId, EventTypeId};

    fn schema() -> EventSchema {
        EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", ActorId(1))
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::optional("Result", FieldKind::Text).sensitive())
    }

    fn message(src: u64) -> DetailMessage {
        DetailMessage {
            src_event_id: SourceEventId(src),
            producer: ActorId(1),
            details: EventDetails::new(EventTypeId::v1("blood-test"))
                .with("PatientId", FieldValue::Integer(42))
                .with("Result", FieldValue::Text("negative".into())),
        }
    }

    /// What the store holds for `id`, decoded the way the gateway does.
    fn load<B: LogBackend>(store: &DetailStore<B>, id: u64) -> Option<DetailMessage> {
        let bytes = store.stored(SourceEventId(id)).unwrap()?;
        let s = schema();
        let stored = css_event::StoredDetail::open(&bytes).unwrap();
        let every = s.field_names().map(|_| true).collect();
        Some(stored.finish(&s, &s.instance_names(), &every).unwrap())
    }

    fn persist<B: LogBackend>(store: &mut DetailStore<B>, id: u64) -> CssResult<()> {
        let s = schema();
        store.persist(&s, &s.instance_names(), &message(id))
    }

    #[test]
    fn persist_load_roundtrip() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        persist(&mut store, 1).unwrap();
        assert_eq!(load(&store, 1), Some(message(1)));
        assert_eq!(load(&store, 2), None);
    }

    #[test]
    fn the_store_writes_the_record_form() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        persist(&mut store, 1).unwrap();
        let stored = store.stored(SourceEventId(1)).unwrap().unwrap();
        let s = schema();
        let mut expected = Vec::new();
        message(1).encode_record(&s, &s.instance_names(), &mut expected);
        assert_eq!(stored, expected);
        assert_eq!(stored[0], css_event::DETAIL_RECORD_V1);
    }

    #[test]
    fn duplicate_persist_rejected() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        persist(&mut store, 1).unwrap();
        assert!(matches!(
            persist(&mut store, 1),
            Err(CssError::AlreadyExists(_))
        ));
    }

    #[test]
    fn survives_reopen() {
        let dir = std::env::temp_dir().join(format!("css-gw-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("details.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = DetailStore::open(FileBackend::open(&path).unwrap()).unwrap();
            for i in 0..20 {
                persist(&mut store, i).unwrap();
            }
        }
        let store = DetailStore::open(FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(load(&store, 13), Some(message(13)));
        let _ = std::fs::remove_file(&path);
    }
}
