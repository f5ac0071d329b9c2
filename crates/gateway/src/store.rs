//! Durable storage of detail messages at the producer.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write;

use css_event::{DetailMessage, EventSchema, InstanceNames};
use css_storage::{decode_put, encode_put, LogBackend, RecordLog, RecordPtr};
use css_types::{CssError, CssResult, SourceEventId};

/// Durable store of detail messages: a log of put records, one per
/// message under `detail:<source event id>`, indexed by that id. Each
/// message is stored in the record form
/// ([`DetailMessage::encode_record`]); messages stored before that form
/// stay XML and read as they always did.
///
/// Details are immutable once notified, so the log holds one record per
/// source event. A log holding what [`DetailStore::persist`] could not
/// have written — a second record for one event, a key that names no
/// event, a record that is no put — does not open, and the error names
/// it.
pub struct DetailStore<B: LogBackend> {
    log: RecordLog<B>,
    filed: Filed,
    /// The message and the put record being persisted, kept between
    /// persists.
    message: Vec<u8>,
    record: Vec<u8>,
}

/// Where each stored message lies — its record, and that record's
/// payload length so a read is one backend read — and the highest
/// source event id stored.
#[derive(Default)]
struct Filed {
    at: HashMap<SourceEventId, (RecordPtr, usize)>,
    max: Option<SourceEventId>,
}

impl Filed {
    /// File `id` at the record `write` puts down, unless a record is
    /// filed under it already: then `twice` is the error and `write`
    /// does not run. The one duplicate check, of replay and persist
    /// alike.
    fn claim(
        &mut self,
        id: SourceEventId,
        twice: impl FnOnce() -> CssError,
        write: impl FnOnce() -> CssResult<(RecordPtr, usize)>,
    ) -> CssResult<()> {
        let Entry::Vacant(slot) = self.at.entry(id) else {
            return Err(twice());
        };
        slot.insert(write()?);
        self.max = self.max.max(Some(id));
        Ok(())
    }
}

impl<B: LogBackend> DetailStore<B> {
    /// Open the store over a backend, replaying existing messages.
    pub fn open(backend: B) -> CssResult<Self> {
        let mut filed = Filed::default();
        let (log, _torn) = RecordLog::recover(backend, |ptr, payload| {
            let (key, _) = decode_put(payload)?;
            let id = source_event(key).ok_or_else(|| {
                CssError::Storage(format!(
                    "gateway log holds a record under {:?}, which names no detail message",
                    String::from_utf8_lossy(key)
                ))
            })?;
            let twice = || CssError::Storage(format!("gateway log holds {id} twice"));
            filed.claim(id, twice, || Ok((ptr, payload.len())))
        })?;
        Ok(DetailStore {
            log,
            filed,
            message: Vec::new(),
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
        let id = message.src_event_id;
        let twice = || CssError::AlreadyExists(format!("detail message {id} already persisted"));
        self.filed.claim(id, twice, || {
            // The message, then its key after it: the put record's two
            // parts, in one buffer.
            self.message.clear();
            message.encode_record(schema, names, &mut self.message);
            let at = self.message.len();
            write!(self.message, "detail:{}", id.value())?;
            let (value, key) = self.message.split_at(at);
            self.record.clear();
            encode_put(&mut self.record, key, value);
            Ok((self.log.append(&self.record)?, self.record.len()))
        })?;
        self.log.sync()
    }

    /// The put record stored for an id, with one record read
    /// (CRC-checked). The message is its value ([`decode_put`]).
    pub(crate) fn stored(&self, id: SourceEventId) -> CssResult<Option<Vec<u8>>> {
        self.filed
            .at
            .get(&id)
            .map(|&(ptr, len)| self.log.read_sized(ptr, len))
            .transpose()
    }

    /// Highest source event id persisted, if any. Used after a restart
    /// to resume id generation past the recovered records.
    pub fn max_src_id(&self) -> Option<SourceEventId> {
        self.filed.max
    }

    /// Number of persisted messages.
    pub fn len(&self) -> usize {
        self.filed.at.len()
    }
}

/// The source event a key names, if it is a key
/// [`DetailStore::persist`] writes: `detail:` and the id in decimal,
/// with no sign and no leading zero.
fn source_event(key: &[u8]) -> Option<SourceEventId> {
    let digits = std::str::from_utf8(key.strip_prefix(b"detail:")?).ok()?;
    let canonical = !digits.starts_with(['0', '+']) || digits == "0";
    digits.parse().ok().filter(|_| canonical).map(SourceEventId)
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
        let stored = css_event::StoredDetail::open(decode_put(&bytes).unwrap().1).unwrap();
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
        let record = store.stored(SourceEventId(1)).unwrap().unwrap();
        let s = schema();
        let mut expected = Vec::new();
        message(1).encode_record(&s, &s.instance_names(), &mut expected);
        let (_, stored) = decode_put(&record).unwrap();
        assert_eq!(stored, expected);
        assert_eq!(stored[0], css_event::DETAIL_RECORD_V1);
        // Under the key the source event's id names.
        let mut key = Vec::new();
        encode_put(&mut key, b"detail:1", &expected);
        assert_eq!(record, key);
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

    #[test]
    fn keys_name_source_events_as_persist_writes_them() {
        for id in [0, 7, 10, 4_096, u64::MAX] {
            let key = format!("detail:{id}");
            assert_eq!(source_event(key.as_bytes()), Some(SourceEventId(id)));
        }
        for key in [
            &b"detail:"[..],
            b"detail:+7",
            b"detail:07",
            b"detail:00",
            b"detail:-1",
            b"detail:7 ",
            b"detail:18446744073709551616",
            b"Detail:7",
            b"policy:1",
            b"",
        ] {
            assert_eq!(
                source_event(key),
                None,
                "{:?}",
                String::from_utf8_lossy(key)
            );
        }
    }

    /// The buffers are kept between persists: whatever came before, a
    /// persist adds one frame holding its own put record, and a reopen
    /// serves every message.
    #[test]
    fn each_persist_writes_exactly_its_own_record() {
        let mut store = DetailStore::open(MemBackend::new()).unwrap();
        let s = schema();
        let mut long = message(1);
        long.details
            .set("Result", FieldValue::Text("x".repeat(300)));
        store.persist(&s, &s.instance_names(), &long).unwrap();
        for id in [2, 1_000_000, 3] {
            let before = store.log.byte_len();
            persist(&mut store, id).unwrap();
            let mut record = Vec::new();
            message(id).encode_record(&s, &s.instance_names(), &mut record);
            let key = format!("detail:{id}");
            assert_eq!(
                store.log.byte_len() - before,
                (9 + 9 + key.len() + record.len()) as u64
            );
        }
        let store = DetailStore::open(store.log.into_backend()).unwrap();
        assert_eq!(load(&store, 1), Some(long));
        for id in [2, 1_000_000, 3] {
            assert_eq!(load(&store, id), Some(message(id)));
        }
        assert_eq!(store.max_src_id(), Some(SourceEventId(1_000_000)));
    }

    /// A read is one backend read, header and record together, before a
    /// reopen and after it; the reopen itself is one pass over the log.
    #[test]
    fn a_read_is_one_backend_read_and_a_reopen_one_pass() {
        let registry = css_telemetry::MetricsRegistry::new();
        let reads = || registry.snapshot().counter("storage.reads");
        let open = |backend| {
            DetailStore::open(css_storage::InstrumentedBackend::new(backend, &registry)).unwrap()
        };
        let mut store = open(MemBackend::new());
        for id in 1..=3 {
            persist(&mut store, id).unwrap();
        }
        let expect = |store: &DetailStore<_>| {
            for id in 1..=3 {
                let before = reads();
                assert!(store.stored(SourceEventId(id)).unwrap().is_some());
                assert_eq!(reads() - before, 1);
            }
        };
        expect(&store);
        let before = reads();
        let reopened = open(store.log.into_backend().into_inner());
        assert_eq!(reads() - before, 1);
        expect(&reopened);
    }
}
