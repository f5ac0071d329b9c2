//! Durable storage of detail messages at the producer.

use css_event::{DetailMessage, EventSchema};
use css_storage::{KvStore, LogBackend};
use css_types::{CssError, CssResult, SourceEventId};
use css_xml::{Element, StreamSink};

/// Keyed, durable store of detail messages (XML at rest), indexed by
/// source event id.
pub struct DetailStore<B: LogBackend> {
    store: KvStore<B>,
}

impl<B: LogBackend> DetailStore<B> {
    /// Open the store over a backend, replaying existing messages.
    pub fn open(backend: B) -> CssResult<Self> {
        let (store, _torn) = KvStore::open(backend)?;
        Ok(DetailStore { store })
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
        let mut xml = String::with_capacity(512);
        message.encode(schema, &mut StreamSink::new(&mut xml));
        self.store.put(&k, xml.as_bytes())?;
        self.store.sync()
    }

    /// The stored document for an id: one record read (CRC-checked),
    /// one UTF-8 check, one XML parse. The gateway picks the schema off
    /// it and [`DetailMessage::from_xml`] decodes the same document.
    pub fn document(&self, id: SourceEventId) -> CssResult<Option<Element>> {
        let Some(bytes) = self.store.get(&key(id))? else {
            return Ok(None);
        };
        let text = String::from_utf8(bytes)
            .map_err(|e| CssError::Serialization(format!("detail message not UTF-8: {e}")))?;
        let doc = css_xml::parse(&text).map_err(|e| CssError::Serialization(e.to_string()))?;
        Ok(Some(doc))
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

    /// Bytes occupied on the backing log.
    pub fn log_bytes(&self) -> u64 {
        self.store.log_bytes()
    }
}

/// The raw event-type string of a stored document, readable without a
/// schema (it selects the schema the document is then decoded with).
pub(crate) fn stored_type(doc: &Element) -> Option<&str> {
    doc.elements().next()?.attribute("type")
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

    #[test]
    fn persist_load_roundtrip() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        store.persist(&schema(), &message(1)).unwrap();
        let doc = store.document(SourceEventId(1)).unwrap().unwrap();
        assert_eq!(
            DetailMessage::from_xml(&schema(), &doc).unwrap(),
            message(1)
        );
        assert!(store.document(SourceEventId(2)).unwrap().is_none());
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
    fn stored_type_readable_without_schema() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        store.persist(&schema(), &message(1)).unwrap();
        let doc = store.document(SourceEventId(1)).unwrap().unwrap();
        assert_eq!(stored_type(&doc), Some("blood-test@v1"));
        assert_eq!(stored_type(&Element::new("DetailMessage")), None);
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
        let doc = store.document(SourceEventId(13)).unwrap().unwrap();
        assert_eq!(
            DetailMessage::from_xml(&schema(), &doc).unwrap(),
            message(13)
        );
        let _ = std::fs::remove_file(&path);
    }
}
