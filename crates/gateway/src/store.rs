//! Durable storage of detail messages at the producer.

use css_event::{DetailMessage, EventSchema};
use css_storage::{KvStore, LogBackend};
use css_types::{CssError, CssResult, SourceEventId};
use css_xml::StreamSink;

/// Keyed, durable store of detail messages (XML at rest), indexed by
/// source event id.
pub struct DetailStore<B: LogBackend> {
    store: KvStore<B>,
    /// The document being persisted, kept between persists.
    xml: String,
}

impl<B: LogBackend> DetailStore<B> {
    /// Open the store over a backend, replaying existing messages.
    pub fn open(backend: B) -> CssResult<Self> {
        let (store, _torn) = KvStore::open(backend)?;
        Ok(DetailStore {
            store,
            xml: String::new(),
        })
    }

    /// Persist a detail message. Fails on duplicate source event ids —
    /// details are immutable once notified.
    pub fn persist(&mut self, schema: &EventSchema, message: &DetailMessage) -> CssResult<()> {
        let k = key(message.src_event_id);
        if self.store.contains(&k) {
            return Err(CssError::AlreadyExists(format!(
                "detail message {} already persisted",
                message.src_event_id
            )));
        }
        self.xml.clear();
        message.encode(schema, &mut StreamSink::new(&mut self.xml));
        self.store.put(&k, self.xml.as_bytes())?;
        self.store.sync()
    }

    /// The stored document for an id, as the bytes [`DetailStore::persist`]
    /// wrote: one record read (CRC-checked). The gateway decodes them
    /// where they lie.
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
        let text = std::str::from_utf8(&bytes).unwrap();
        let decoder = css_event::DetailDecoder::open(css_xml::Reader::new(text)).unwrap();
        let s = schema();
        Some(decoder.finish(&s, &s.instance_names(), |_| true).unwrap())
    }

    #[test]
    fn persist_load_roundtrip() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        store.persist(&schema(), &message(1)).unwrap();
        assert_eq!(load(&store, 1), Some(message(1)));
        assert_eq!(load(&store, 2), None);
    }

    #[test]
    fn duplicate_persist_rejected() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        store.persist(&schema(), &message(1)).unwrap();
        assert!(matches!(
            store.persist(&schema(), &message(1)),
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
                store.persist(&schema(), &message(i)).unwrap();
            }
        }
        let store = DetailStore::open(FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(load(&store, 13), Some(message(13)));
        let _ = std::fs::remove_file(&path);
    }
}
