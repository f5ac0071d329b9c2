//! The events index.
//!
//! The data controller "maintains an index of the events (events index
//! ...) as it stores all the notification messages published by the
//! producers ... The identifying information of the person specified in
//! the notification is stored in encrypted form to comply with the
//! privacy regulations." (Section 4)
//!
//! Each entry keeps:
//! - the person's identifying tuple **sealed** with the controller key,
//! - a keyed **lookup tag** (HMAC of the person id) so per-person
//!   inquiries don't require decrypting the whole index,
//! - the `eID → (producer, src_eID)` mapping the PIP resolves in
//!   Algorithm 1 step 1,
//! - the set of consumer organizations that were notified — possessing
//!   the notification is the prerequisite for a detail request.
//!
//! The index is **persisted** ([`EventsIndex::open`]): inserts and
//! notified-markers are appended to a `css-storage` record log (sealed
//! identity persisted as hex, never plaintext) and replayed on restart,
//! so a controller restart loses no notifications.

use std::collections::{BTreeMap, HashMap, HashSet};

use css_crypto::{Hex, HmacKey, SealedBox};
use css_event::NotificationMessage;
use css_storage::{split_records, LogBackend, MemBackend, RecordLog};
use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    SourceEventId, Timestamp,
};
use css_xml::{Reader, StreamSink, Token, XmlSink, XmlSource};

/// One stored notification, with identifying data encrypted at rest.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Global event id.
    pub global_id: GlobalEventId,
    /// Class of the event.
    pub event_type: EventTypeId,
    /// Sealed [`PersonIdentity`] bytes.
    pub sealed_identity: Vec<u8>,
    /// Keyed lookup tag for the person (HMAC over the person id).
    pub person_tag: [u8; 32],
    /// Event description (the *what*).
    pub description: String,
    /// When the event occurred.
    pub occurred_at: Timestamp,
    /// Producer of the event (the *where*).
    pub producer: ActorId,
    /// Producer-local id — the PIP mapping target.
    pub src_event_id: SourceEventId,
    /// Consumer organizations that received (or were authorized to see)
    /// the notification.
    pub notified: HashSet<ActorId>,
}

impl IndexEntry {
    /// Write the persisted form into `sink` — the one encoder. The
    /// sealed identity and the tag go out as hex digits, never as a
    /// `String` of their own.
    pub(crate) fn encode(&self, sink: &mut impl XmlSink) {
        sink.open("IndexEntry");
        sink.attr("eventId", self.global_id);
        sink.attr("type", &self.event_type);
        sink.attr("sealed", Hex(&self.sealed_identity));
        sink.attr("tag", Hex(&self.person_tag));
        sink.attr("occurredAt", self.occurred_at.as_millis());
        sink.attr("producer", self.producer);
        sink.attr("srcEventId", self.src_event_id);
        sink.leaf("What", &self.description);
        let mut notified: Vec<ActorId> = self.notified.iter().copied().collect();
        notified.sort();
        for actor in notified {
            sink.open("Notified");
            sink.attr("actor", actor);
            sink.close();
        }
        sink.close();
    }

    /// The tree-fed form of [`IndexRecord::decode`], for an entry.
    #[cfg(test)]
    pub(crate) fn from_xml(e: &css_xml::Element) -> CssResult<Self> {
        let mut src = css_xml::TreeSource::new(e);
        src.root()?;
        Self::decode(&mut src)
    }

    /// Read the entry whose root element `src` has just opened, to the
    /// end of the document.
    fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("IndexEntry: {msg}"));
        let (attrs, mut token) = src.attributes([
            "eventId",
            "type",
            "sealed",
            "tag",
            "occurredAt",
            "producer",
            "srcEventId",
        ])?;
        let mut description = None;
        let mut notified = Vec::new();
        loop {
            match token {
                Token::Open("What") if description.is_none() => {
                    description = Some(src.text_content()?.into_owned());
                }
                Token::Open("Notified") => {
                    let (marker, rest) = src.attributes(["actor"])?;
                    src.skip_rest(rest)?;
                    notified.push(
                        marker
                            .get("actor")
                            .ok_or_else(|| bad("Notified without actor".into()))
                            .and_then(|actor| {
                                actor
                                    .parse::<ActorId>()
                                    .map_err(|err| bad(format!("bad notified actor: {err}")))
                            }),
                    );
                }
                Token::Open(_) => src.skip_element()?,
                Token::Close | Token::Eof => break,
                Token::Attr(..) | Token::Text(_) => {}
            }
            token = src.next()?;
        }
        src.finish()?;
        let req = |attr: &str| {
            attrs
                .get(attr)
                .ok_or_else(|| bad(format!("missing {attr}")))
        };
        let sealed_identity =
            css_crypto::from_hex(req("sealed")?).ok_or_else(|| bad("bad sealed hex".into()))?;
        let tag_bytes =
            css_crypto::from_hex(req("tag")?).ok_or_else(|| bad("bad tag hex".into()))?;
        let person_tag: [u8; 32] = tag_bytes
            .try_into()
            .map_err(|_| bad("tag must be 32 bytes".into()))?;
        let notified = notified.into_iter().collect::<CssResult<_>>()?;
        Ok(IndexEntry {
            global_id: req("eventId")?
                .parse()
                .map_err(|err| bad(format!("bad eventId: {err}")))?,
            event_type: req("type")?
                .parse()
                .map_err(|err| bad(format!("bad type: {err}")))?,
            sealed_identity,
            person_tag,
            description: description.unwrap_or_default(),
            occurred_at: Timestamp(
                req("occurredAt")?
                    .parse()
                    .map_err(|err| bad(format!("bad occurredAt: {err}")))?,
            ),
            producer: req("producer")?
                .parse()
                .map_err(|err| bad(format!("bad producer: {err}")))?,
            src_event_id: req("srcEventId")?
                .parse()
                .map_err(|err| bad(format!("bad srcEventId: {err}")))?,
            notified,
        })
    }
}

/// One record of the index log: an entry, or the marker that adds a
/// consumer to the notified set of an entry persisted earlier.
enum IndexRecord {
    Entry(IndexEntry),
    Notified(GlobalEventId, ActorId),
}

impl IndexRecord {
    /// The one decoder of the index log: replay feeds it the stored text.
    fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        match src.root()? {
            "IndexEntry" => IndexEntry::decode(src).map(IndexRecord::Entry),
            "Notified" => {
                let bad = |msg: &str| CssError::Serialization(format!("Notified marker: {msg}"));
                let (attrs, rest) = src.attributes(["eventId", "actor"])?;
                src.skip_rest(rest)?;
                src.finish()?;
                let event: GlobalEventId = attrs
                    .get("eventId")
                    .ok_or_else(|| bad("missing eventId"))?
                    .parse()
                    .map_err(|e| bad(&format!("bad eventId: {e}")))?;
                let actor: ActorId = attrs
                    .get("actor")
                    .ok_or_else(|| bad("missing actor"))?
                    .parse()
                    .map_err(|e| bad(&format!("bad actor: {e}")))?;
                Ok(IndexRecord::Notified(event, actor))
            }
            other => Err(CssError::Serialization(format!(
                "unknown index record <{other}>"
            ))),
        }
    }
}

/// Write the standalone record that adds `actor` to the notified set
/// of an already persisted entry.
fn encode_notified_marker(event: GlobalEventId, actor: ActorId, sink: &mut impl XmlSink) {
    sink.open("Notified");
    sink.attr("eventId", event);
    sink.attr("actor", actor);
    sink.close();
}

/// Open the identity sealed into `entry`.
fn open_identity(sealer: &SealedBox, entry: &IndexEntry) -> CssResult<PersonIdentity> {
    let bytes = sealer
        .open(&entry.sealed_identity)
        .map_err(|e| CssError::Crypto(e.to_string()))?;
    PersonIdentity::from_bytes(&bytes)
        .ok_or_else(|| CssError::Crypto("sealed identity malformed".into()))
}

/// The full notification `entry` stands for, its identity opened.
fn notification_of(sealer: &SealedBox, entry: &IndexEntry) -> CssResult<NotificationMessage> {
    Ok(NotificationMessage {
        global_id: entry.global_id,
        event_type: entry.event_type.clone(),
        person: open_identity(sealer, entry)?,
        description: entry.description.clone(),
        occurred_at: entry.occurred_at,
        producer: entry.producer,
    })
}

/// What the index holds about a detail request, in the order
/// Algorithm 1 asks: the outcome of one visit to the event's entry.
#[derive(Debug)]
pub enum DetailResolution {
    /// The event is indexed under another class than the request
    /// declares: this one.
    TypeMismatch(EventTypeId),
    /// Neither the requester nor an organization enclosing it received
    /// the notification.
    NotNotified,
    /// Both preconditions hold.
    Resolved {
        /// The PIP mapping of Algorithm 1 step 1.
        producer: ActorId,
        /// The PIP mapping of Algorithm 1 step 1.
        src_event_id: SourceEventId,
        /// The data subject, unsealed for the consent check (or why
        /// the sealed identity would not open).
        subject: CssResult<PersonId>,
    },
}

/// The controller's index of all notifications, persisted on its backend.
pub struct EventsIndex<B: LogBackend = MemBackend> {
    sealer: SealedBox,
    tag_key: HmacKey,
    entries: HashMap<GlobalEventId, IndexEntry>,
    by_person_tag: HashMap<[u8; 32], Vec<GlobalEventId>>,
    by_type: HashMap<EventTypeId, Vec<GlobalEventId>>,
    /// Secondary time index: `events_between` becomes a range scan
    /// instead of a full-index sweep.
    by_time: BTreeMap<Timestamp, Vec<GlobalEventId>>,
    /// Largest indexed event id (assembly resumes numbering from here).
    max_id: Option<GlobalEventId>,
    storage: RecordLog<B>,
    /// The record being written, kept between writes.
    text: String,
}

/// The keyed-lookup-tag key derivation shared by every shard of an
/// index plane: identical master keys must yield identical person tags,
/// or per-person routing would scatter.
pub(crate) fn derive_tag_key(master_key: &[u8]) -> HmacKey {
    let mut tag_key = b"css-person-tag-v1:".to_vec();
    tag_key.extend_from_slice(master_key);
    HmacKey::new(&tag_key)
}

impl<B: LogBackend> EventsIndex<B> {
    /// Open an index on `backend` (a [`MemBackend`] for an in-memory
    /// one), sealing identities under keys derived from `master_key`
    /// and replaying any persisted entries and notified-markers.
    pub fn open(master_key: &[u8], backend: B) -> CssResult<Self> {
        Self::open_all(master_key, vec![backend], |_| 0)?
            .pop()
            .ok_or_else(|| CssError::Invalid("one backend must open one index".into()))
    }

    /// Open one index per backend — the shards of a plane — replaying
    /// every persisted entry into the index `owner` names for its person
    /// tag, which may differ from the backend it was read off: a plane
    /// that changed its shard count still recovers every event into the
    /// right partition. Every record is decoded in the one pass
    /// recovery makes over its log; entries are linked once every shard
    /// exists, then notified-markers, so markers resolve regardless of
    /// which backend they were read off.
    pub(crate) fn open_all(
        master_key: &[u8],
        backends: Vec<B>,
        owner: impl Fn(&[u8; 32]) -> usize,
    ) -> CssResult<Vec<Self>> {
        let mut shards = Vec::with_capacity(backends.len());
        let mut entries: Vec<IndexEntry> = Vec::new();
        let mut markers: Vec<(GlobalEventId, ActorId)> = Vec::new();
        for backend in backends {
            let (storage, _) = RecordLog::recover(backend, |_, payload| {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| CssError::Serialization(format!("index record not UTF-8: {e}")))?;
                match IndexRecord::decode(&mut Reader::new(text))? {
                    IndexRecord::Entry(entry) => entries.push(entry),
                    IndexRecord::Notified(event, actor) => markers.push((event, actor)),
                }
                Ok(())
            })?;
            shards.push(EventsIndex {
                sealer: SealedBox::new(master_key),
                tag_key: derive_tag_key(master_key),
                entries: HashMap::new(),
                by_person_tag: HashMap::new(),
                by_type: HashMap::new(),
                by_time: BTreeMap::new(),
                max_id: None,
                storage,
                text: String::new(),
            });
        }
        for entry in entries {
            shards[owner(&entry.person_tag)].link_entry(entry);
        }
        // Markers for unknown events are silently skipped.
        for (event, actor) in markers {
            for shard in &mut shards {
                if let Some(entry) = shard.entries.get_mut(&event) {
                    entry.notified.insert(actor);
                    break;
                }
            }
        }
        Ok(shards)
    }

    fn link_entry(&mut self, entry: IndexEntry) {
        self.by_person_tag
            .entry(entry.person_tag)
            .or_default()
            .push(entry.global_id);
        self.by_type
            .entry(entry.event_type.clone())
            .or_default()
            .push(entry.global_id);
        self.by_time
            .entry(entry.occurred_at)
            .or_default()
            .push(entry.global_id);
        if self.max_id.is_none_or(|m| entry.global_id > m) {
            self.max_id = Some(entry.global_id);
        }
        self.entries.insert(entry.global_id, entry);
    }

    fn tag(&self, person: PersonId) -> [u8; 32] {
        self.tag_key.mac(&person.value().to_le_bytes())
    }

    /// Store a notification, sealing the identifying fields.
    pub fn insert(
        &mut self,
        notification: &NotificationMessage,
        src_event_id: SourceEventId,
        notified: HashSet<ActorId>,
    ) -> CssResult<()> {
        let person_tag = self.tag(notification.person.id);
        self.insert_tagged(person_tag, notification, src_event_id, notified)
    }

    /// [`EventsIndex::insert`] for a caller that already holds the
    /// person's tag — the plane derives it to pick this shard.
    pub(crate) fn insert_tagged(
        &mut self,
        person_tag: [u8; 32],
        notification: &NotificationMessage,
        src_event_id: SourceEventId,
        notified: HashSet<ActorId>,
    ) -> CssResult<()> {
        let id = notification.global_id;
        if self.entries.contains_key(&id) {
            return Err(CssError::AlreadyExists(format!(
                "event {id} already indexed"
            )));
        }
        let sealed_identity = self
            .sealer
            .seal(id.value(), &notification.person.to_bytes());
        let entry = IndexEntry {
            global_id: id,
            event_type: notification.event_type.clone(),
            sealed_identity,
            person_tag,
            description: notification.description.clone(),
            occurred_at: notification.occurred_at,
            producer: notification.producer,
            src_event_id,
            notified,
        };
        self.text.clear();
        entry.encode(&mut StreamSink::new(&mut self.text));
        self.storage.append(self.text.as_bytes())?;
        self.link_entry(entry);
        Ok(())
    }

    /// The PIP mapping of Algorithm 1 step 1: `eID → (producer, src_eID)`.
    pub fn resolve_source(
        &self,
        id: GlobalEventId,
    ) -> CssResult<(ActorId, SourceEventId, EventTypeId)> {
        self.entries
            .get(&id)
            .map(|e| (e.producer, e.src_event_id, e.event_type.clone()))
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))
    }

    /// Raw entry access (controller-internal).
    pub fn entry(&self, id: GlobalEventId) -> Option<&IndexEntry> {
        self.entries.get(&id)
    }

    /// Record that `consumer` has been notified of event `id`.
    pub fn mark_notified(&mut self, id: GlobalEventId, consumer: ActorId) -> CssResult<()> {
        let Some(entry) = self.entries.get_mut(&id) else {
            return Err(CssError::NotFound(format!("event {id} not in index")));
        };
        if entry.notified.insert(consumer) {
            self.text.clear();
            encode_notified_marker(id, consumer, &mut StreamSink::new(&mut self.text));
            self.storage.append(self.text.as_bytes())?;
        }
        Ok(())
    }

    /// Whether `consumer` was notified of event `id`.
    pub fn was_notified(&self, id: GlobalEventId, consumer: ActorId) -> bool {
        self.entries
            .get(&id)
            .is_some_and(|e| e.notified.contains(&consumer))
    }

    /// Everything Algorithm 1 asks the index about one request, from
    /// one look at the event's entry: the PIP mapping, whether the
    /// indexed class is the `declared` one, whether `consumer` or one
    /// of its enclosing organizations (`ancestors`) was notified, and —
    /// only when both hold — the unsealed data subject. `None` when the
    /// event is not in this index.
    pub fn resolve_detail_request(
        &self,
        id: GlobalEventId,
        declared: &EventTypeId,
        consumer: ActorId,
        ancestors: &[ActorId],
    ) -> Option<DetailResolution> {
        let entry = self.entries.get(&id)?;
        Some(if entry.event_type != *declared {
            DetailResolution::TypeMismatch(entry.event_type.clone())
        } else if !std::iter::once(&consumer)
            .chain(ancestors)
            .any(|actor| entry.notified.contains(actor))
        {
            DetailResolution::NotNotified
        } else {
            DetailResolution::Resolved {
                producer: entry.producer,
                src_event_id: entry.src_event_id,
                subject: open_identity(&self.sealer, entry).map(|person| person.id),
            }
        })
    }

    /// Rebuild the full notification (decrypting the identity). Only the
    /// controller itself may do this, on behalf of authorized consumers.
    pub fn decrypt_notification(&self, id: GlobalEventId) -> CssResult<NotificationMessage> {
        let entry = self
            .entries
            .get(&id)
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))?;
        notification_of(&self.sealer, entry)
    }

    /// Event ids about one person (via the keyed tag; no decryption).
    pub fn events_of_person(&self, person: PersonId) -> Vec<GlobalEventId> {
        self.events_tagged(&self.tag(person))
    }

    /// Event ids filed under a person tag the caller already derived.
    pub(crate) fn events_tagged(&self, person_tag: &[u8; 32]) -> Vec<GlobalEventId> {
        self.by_person_tag
            .get(person_tag)
            .cloned()
            .unwrap_or_default()
    }

    /// Every notification filed under a person tag, identities opened.
    pub(crate) fn notifications_tagged(
        &self,
        person_tag: &[u8; 32],
    ) -> CssResult<Vec<NotificationMessage>> {
        let ids = self.by_person_tag.get(person_tag);
        ids.into_iter()
            .flatten()
            .filter_map(|id| self.entries.get(id))
            .map(|entry| notification_of(&self.sealer, entry))
            .collect()
    }

    /// Event ids of one class.
    pub fn events_of_type(&self, ty: &EventTypeId) -> Vec<GlobalEventId> {
        self.by_type.get(ty).cloned().unwrap_or_default()
    }

    /// Event ids in a time range (inclusive), any class — a range scan
    /// over the time index, touching only in-window entries.
    pub fn events_between(&self, from: Timestamp, to: Timestamp) -> Vec<GlobalEventId> {
        if from > to {
            return Vec::new();
        }
        let mut out: Vec<GlobalEventId> = self
            .by_time
            .range(from..=to)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        out.sort();
        out
    }

    /// Largest indexed event id, if any (O(1); assembly resumes global
    /// numbering from here without walking the index).
    pub fn max_event_id(&self) -> Option<GlobalEventId> {
        self.max_id
    }

    /// Resolve each candidate event once for an inquiry on behalf of
    /// `consumer`: one entry lookup covers the authorization check
    /// (`authorize` is asked per event class), the identity decryption
    /// and the notified-marking, instead of three separate map probes.
    /// Newly-set notified markers are persisted as one batch append.
    pub fn filter_authorized(
        &mut self,
        candidates: &[GlobalEventId],
        consumer: ActorId,
        mut authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<Vec<NotificationMessage>> {
        let mut out = Vec::new();
        // Markers stream into one buffer; each is the slice between
        // two ends.
        let mut markers = String::new();
        let mut marker_ends: Vec<usize> = Vec::new();
        for &id in candidates {
            let Some(entry) = self.entries.get_mut(&id) else {
                continue;
            };
            if !authorize(&entry.event_type) {
                continue;
            }
            out.push(notification_of(&self.sealer, entry)?);
            if entry.notified.insert(consumer) {
                encode_notified_marker(id, consumer, &mut StreamSink::new(&mut markers));
                marker_ends.push(markers.len());
            }
        }
        self.storage
            .append_batch(&split_records(markers.as_bytes(), &marker_ends))?;
        Ok(out)
    }

    /// Flush persisted records to stable storage.
    pub fn sync(&mut self) -> CssResult<()> {
        self.storage.sync()
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notif(id: u64, person: u64, ty: &str) -> NotificationMessage {
        NotificationMessage {
            global_id: GlobalEventId(id),
            event_type: EventTypeId::v1(ty),
            person: PersonIdentity {
                id: PersonId(person),
                fiscal_code: format!("FC{person}"),
                name: "Mario".into(),
                surname: "Rossi".into(),
            },
            description: "test event".into(),
            occurred_at: Timestamp(id * 100),
            producer: ActorId(1),
        }
    }

    fn index() -> EventsIndex<MemBackend> {
        EventsIndex::open(b"controller master key", MemBackend::new()).unwrap()
    }

    #[test]
    fn insert_and_resolve_source() {
        let mut idx = index();
        idx.insert(
            &notif(1, 7, "blood-test"),
            SourceEventId(91),
            HashSet::new(),
        )
        .unwrap();
        let (producer, src, ty) = idx.resolve_source(GlobalEventId(1)).unwrap();
        assert_eq!(producer, ActorId(1));
        assert_eq!(src, SourceEventId(91));
        assert_eq!(ty, EventTypeId::v1("blood-test"));
        assert!(idx.resolve_source(GlobalEventId(404)).is_err());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut idx = index();
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
            .unwrap();
        assert!(idx
            .insert(&notif(1, 7, "x"), SourceEventId(2), HashSet::new())
            .is_err());
    }

    #[test]
    fn identity_is_encrypted_at_rest() {
        let mut idx = index();
        let n = notif(1, 7, "blood-test");
        idx.insert(&n, SourceEventId(1), HashSet::new()).unwrap();
        let entry = idx.entry(GlobalEventId(1)).unwrap();
        let raw = n.person.to_bytes();
        // The sealed blob must not contain the plaintext identity.
        assert!(entry
            .sealed_identity
            .windows(raw.len())
            .all(|w| w != raw.as_slice()));
        // And the fiscal code string must not appear either.
        assert!(entry.sealed_identity.windows(3).all(|w| w != b"FC7"));
    }

    #[test]
    fn decrypt_notification_roundtrip() {
        let mut idx = index();
        let n = notif(3, 9, "autonomy-test");
        idx.insert(&n, SourceEventId(5), HashSet::new()).unwrap();
        assert_eq!(idx.decrypt_notification(GlobalEventId(3)).unwrap(), n);
    }

    #[test]
    fn person_lookup_without_decryption() {
        let mut idx = index();
        idx.insert(&notif(1, 7, "a"), SourceEventId(1), HashSet::new())
            .unwrap();
        idx.insert(&notif(2, 8, "a"), SourceEventId(2), HashSet::new())
            .unwrap();
        idx.insert(&notif(3, 7, "b"), SourceEventId(3), HashSet::new())
            .unwrap();
        let of7 = idx.events_of_person(PersonId(7));
        assert_eq!(of7, vec![GlobalEventId(1), GlobalEventId(3)]);
        assert!(idx.events_of_person(PersonId(99)).is_empty());
    }

    #[test]
    fn type_and_time_lookup() {
        let mut idx = index();
        for i in 1..=5 {
            idx.insert(
                &notif(i, i, if i % 2 == 0 { "even" } else { "odd" }),
                SourceEventId(i),
                HashSet::new(),
            )
            .unwrap();
        }
        assert_eq!(idx.events_of_type(&EventTypeId::v1("even")).len(), 2);
        let window = idx.events_between(Timestamp(200), Timestamp(400));
        assert_eq!(
            window,
            vec![GlobalEventId(2), GlobalEventId(3), GlobalEventId(4)]
        );
    }

    #[test]
    fn time_index_agrees_with_full_scan() {
        let mut idx = index();
        // Deliberately colliding timestamps: ids 1..=12 mapped onto four
        // instants, inserted out of id order.
        for (i, id) in [5u64, 1, 9, 3, 12, 7, 2, 11, 4, 8, 6, 10]
            .iter()
            .enumerate()
        {
            let mut n = notif(*id, *id, "x");
            n.occurred_at = Timestamp((i as u64 % 4) * 100);
            idx.insert(&n, SourceEventId(*id), HashSet::new()).unwrap();
        }
        let full_scan = |from: Timestamp, to: Timestamp| {
            let mut out: Vec<GlobalEventId> = (1..=12)
                .map(GlobalEventId)
                .filter(|id| {
                    let at = idx.entry(*id).unwrap().occurred_at;
                    at >= from && at <= to
                })
                .collect();
            out.sort();
            out
        };
        for (from, to) in [
            (Timestamp(0), Timestamp(u64::MAX)),
            (Timestamp(0), Timestamp(0)),
            (Timestamp(100), Timestamp(200)),
            (Timestamp(150), Timestamp(250)),
            (Timestamp(301), Timestamp(u64::MAX)),
        ] {
            assert_eq!(idx.events_between(from, to), full_scan(from, to));
        }
        // Inverted range: empty, not a panic.
        assert!(idx.events_between(Timestamp(10), Timestamp(5)).is_empty());
        assert_eq!(idx.max_event_id(), Some(GlobalEventId(12)));
    }

    #[test]
    fn filter_authorized_resolves_marks_and_persists_once() {
        let mut idx = EventsIndex::open(b"k", MemBackend::new()).unwrap();
        for id in 1..=3u64 {
            idx.insert(
                &notif(id, id, if id == 2 { "secret" } else { "open" }),
                SourceEventId(id),
                HashSet::new(),
            )
            .unwrap();
        }
        let candidates = [
            GlobalEventId(1),
            GlobalEventId(2),
            GlobalEventId(3),
            GlobalEventId(404),
        ];
        let open = EventTypeId::v1("open");
        let out = idx
            .filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].person.fiscal_code, "FC1");
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(!idx.was_notified(GlobalEventId(2), ActorId(5)));
        // Re-running adds no new markers (and so no new bytes).
        let bytes = idx.storage.byte_len();
        idx.filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        assert_eq!(idx.storage.byte_len(), bytes);
    }

    #[test]
    fn notified_tracking() {
        let mut idx = index();
        let mut initial = HashSet::new();
        initial.insert(ActorId(5));
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), initial)
            .unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(!idx.was_notified(GlobalEventId(1), ActorId(6)));
        idx.mark_notified(GlobalEventId(1), ActorId(6)).unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(6)));
        assert!(idx.mark_notified(GlobalEventId(404), ActorId(6)).is_err());
    }

    #[test]
    fn different_master_keys_isolate_indices() {
        let mut a = EventsIndex::open(b"key-a", MemBackend::new()).unwrap();
        let n = notif(1, 7, "x");
        a.insert(&n, SourceEventId(1), HashSet::new()).unwrap();
        let entry = a.entry(GlobalEventId(1)).unwrap().clone();
        // An index with a different key cannot open the sealed blob.
        let b = EventsIndex::open(b"key-b", MemBackend::new()).unwrap();
        assert!(b.sealer.open(&entry.sealed_identity).is_err());
    }

    #[test]
    fn disk_backed_index_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("css-index-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut idx =
                EventsIndex::open(b"master", css_storage::FileBackend::open(&path).unwrap())
                    .unwrap();
            let mut initial = HashSet::new();
            initial.insert(ActorId(5));
            idx.insert(&notif(1, 7, "blood-test"), SourceEventId(11), initial)
                .unwrap();
            idx.insert(
                &notif(2, 8, "blood-test"),
                SourceEventId(12),
                HashSet::new(),
            )
            .unwrap();
            idx.mark_notified(GlobalEventId(2), ActorId(6)).unwrap();
            idx.sync().unwrap();
        }
        let idx =
            EventsIndex::open(b"master", css_storage::FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(idx.len(), 2);
        // Full state recovered: PIP mapping, identity, notified set.
        let (_, src, _) = idx.resolve_source(GlobalEventId(1)).unwrap();
        assert_eq!(src, SourceEventId(11));
        let n = idx.decrypt_notification(GlobalEventId(1)).unwrap();
        assert_eq!(n.person.fiscal_code, "FC7");
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(idx.was_notified(GlobalEventId(2), ActorId(6)));
        assert_eq!(idx.events_of_person(PersonId(7)), vec![GlobalEventId(1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_with_wrong_key_cannot_decrypt_but_loads_structure() {
        let dir = std::env::temp_dir().join(format!("css-index2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut idx =
                EventsIndex::open(b"right-key", css_storage::FileBackend::open(&path).unwrap())
                    .unwrap();
            idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
                .unwrap();
            idx.sync().unwrap();
        }
        let idx = EventsIndex::open(b"wrong-key", css_storage::FileBackend::open(&path).unwrap())
            .unwrap();
        // Metadata is there (routing still possible)...
        assert_eq!(idx.len(), 1);
        // ...but identities stay opaque without the right key.
        assert!(idx.decrypt_notification(GlobalEventId(1)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_mark_notified_writes_once() {
        let mut idx = EventsIndex::open(b"k", MemBackend::new()).unwrap();
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
            .unwrap();
        idx.mark_notified(GlobalEventId(1), ActorId(5)).unwrap();
        let bytes_after_first = idx.storage.byte_len();
        idx.mark_notified(GlobalEventId(1), ActorId(5)).unwrap();
        assert_eq!(idx.storage.byte_len(), bytes_after_first);
    }

    fn streamed(encode: impl FnOnce(&mut StreamSink<'_>)) -> String {
        let mut out = String::new();
        encode(&mut StreamSink::new(&mut out));
        out
    }

    fn tree(encode: impl FnOnce(&mut css_xml::TreeSink)) -> String {
        css_xml::to_string(&css_xml::TreeSink::build(encode))
    }

    fn entry_with(description: &str, notified: &[u64]) -> IndexEntry {
        let mut person_tag = [0u8; 32];
        for (i, b) in person_tag.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(73) ^ 0xA5;
        }
        IndexEntry {
            global_id: GlobalEventId(1),
            event_type: EventTypeId::v1("lab-result"),
            sealed_identity: (0u8..110)
                .map(|i| i.wrapping_mul(37).wrapping_add(11))
                .collect(),
            person_tag,
            description: description.into(),
            occurred_at: Timestamp(1_700_000_000_000),
            producer: ActorId(1),
            src_event_id: SourceEventId(91),
            notified: notified.iter().copied().map(ActorId).collect(),
        }
    }

    /// Bytes `css_xml::to_string(&entry.to_xml())` (and the hand-built
    /// marker element) produced at the last commit that built the tree
    /// on the write path.
    #[test]
    fn encodings_match_pinned_bytes() {
        const SEALED_AND_TAG: &str = "sealed=\"0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc01264b7095badf04294e7398bde2072c51769bc0e50a2f54799ec3e80d32577ca1c6eb10355a7fa4c9ee13385d82a7cc\" tag=\"a5ec377e81c8135aed347f86c9105be2357c87ce1158e32a7d84cf1659e02b72\"";
        let bare = entry_with("", &[]);
        let fanned = IndexEntry {
            global_id: GlobalEventId(123_456_789_012),
            ..entry_with("check-up & <follow-up> \"soon\"", &[30, 4, 200])
        };
        let pinned = [
            format!("<IndexEntry eventId=\"evt-00000001\" type=\"lab-result@v1\" {SEALED_AND_TAG} occurredAt=\"1700000000000\" producer=\"act-00000001\" srcEventId=\"src-00000091\"><What></What></IndexEntry>"),
            format!("<IndexEntry eventId=\"evt-123456789012\" type=\"lab-result@v1\" {SEALED_AND_TAG} occurredAt=\"1700000000000\" producer=\"act-00000001\" srcEventId=\"src-00000091\"><What>check-up &amp; &lt;follow-up&gt; \"soon\"</What><Notified actor=\"act-00000004\"/><Notified actor=\"act-00000030\"/><Notified actor=\"act-00000200\"/></IndexEntry>"),
        ];
        for (entry, bytes) in [bare, fanned].iter().zip(pinned) {
            assert_eq!(streamed(|s| entry.encode(s)), bytes);
            assert_eq!(tree(|s| entry.encode(s)), bytes);
        }
        let marker = "<Notified eventId=\"evt-00000077\" actor=\"act-00000005\"/>";
        assert_eq!(
            streamed(|s| encode_notified_marker(GlobalEventId(77), ActorId(5), s)),
            marker
        );
        assert_eq!(
            tree(|s| encode_notified_marker(GlobalEventId(77), ActorId(5), s)),
            marker
        );
    }

    /// Every record of the committed at-rest fixtures decodes to the
    /// same value off the stored text as off the tree parsed from it.
    #[test]
    fn fixture_records_decode_alike_from_stream_and_tree() {
        fn describe(record: IndexRecord) -> String {
            match record {
                IndexRecord::Entry(e) => {
                    let mut notified: Vec<ActorId> = e.notified.iter().copied().collect();
                    notified.sort();
                    format!(
                        "{:?}",
                        IndexEntry {
                            notified: HashSet::new(),
                            ..e
                        }
                    ) + &format!("{notified:?}")
                }
                IndexRecord::Notified(event, actor) => format!("{event} {actor}"),
            }
        }
        let fixtures =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        let (mut entries, mut markers) = (0, 0);
        for file in [
            "at-rest-1/events-index.log",
            "at-rest-2/events-index.log",
            "at-rest-2/events-index-1.log",
        ] {
            // Recovery reads through a backend; give it the bytes in memory.
            let mut backend = MemBackend::new();
            backend
                .append(&std::fs::read(fixtures.join(file)).unwrap())
                .unwrap();
            let (_, truncated) = RecordLog::recover(backend, |_, payload| {
                let text = std::str::from_utf8(payload).unwrap();
                let streamed = IndexRecord::decode(&mut Reader::new(text)).unwrap();
                match &streamed {
                    IndexRecord::Entry(_) => entries += 1,
                    IndexRecord::Notified(..) => markers += 1,
                }
                let tree = css_xml::parse(text).unwrap();
                let from_tree = IndexRecord::decode(&mut css_xml::TreeSource::new(&tree)).unwrap();
                assert_eq!(describe(streamed), describe(from_tree), "{file}");
                Ok(())
            })
            .unwrap();
            assert_eq!(truncated, 0, "{file}");
        }
        // Three events, indexed once at one shard and once at two.
        assert_eq!(entries, 6);
        assert!(markers > 0);
    }

    #[test]
    fn malformed_index_records_keep_their_messages() {
        let decode = |text: &str| {
            IndexRecord::decode(&mut Reader::new(text))
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        let entry = streamed(|s| entry_with("x", &[4]).encode(s));
        for (text, message) in [
            ("<Other/>".to_string(), "unknown index record <Other>"),
            (
                "<Notified actor=\"act-00000001\"/>".to_string(),
                "Notified marker: missing eventId",
            ),
            (
                "<Notified eventId=\"evt-00000001\" actor=\"x\"/>".to_string(),
                "Notified marker: bad actor",
            ),
            (
                entry.replace(" sealed=\"", " sealed=\"zz"),
                "IndexEntry: bad sealed hex",
            ),
            (
                entry.replace(" tag=\"a5", " tag=\""),
                "IndexEntry: tag must be 32 bytes",
            ),
            // A bad notified child is reported before a bad event id,
            // after a bad tag: the order the fields were always checked in.
            (
                entry
                    .replace("evt-00000001", "evt")
                    .replace("<Notified actor=\"act-00000004\"/>", "<Notified/>"),
                "IndexEntry: Notified without actor",
            ),
            (
                entry.replace("evt-00000001", "evt"),
                "IndexEntry: bad eventId",
            ),
            (
                entry.replace(" producer=\"act-00000001\"", ""),
                "IndexEntry: missing producer",
            ),
            (entry.replace("</IndexEntry>", ""), "XML parse error"),
            (format!("{entry}<More/>"), "XML parse error"),
        ] {
            let got = decode(&text);
            assert!(got.contains(message), "{text}: {got}");
        }
    }

    proptest::proptest! {
        #[test]
        fn streamed_equals_tree_for_any_entry(
            (id, at, src) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            sealed in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            description in "[ -~]{0,40}",
            notified in proptest::collection::vec(0u64..1_000_000_000_000, 0..6),
        ) {
            let entry = IndexEntry {
                global_id: GlobalEventId(id),
                sealed_identity: sealed,
                occurred_at: Timestamp(at),
                src_event_id: SourceEventId(src),
                ..entry_with(&description, &notified)
            };
            let text = streamed(|s| entry.encode(s));
            proptest::prop_assert_eq!(&text, &tree(|s| entry.encode(s)));
            let back = IndexEntry::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
            proptest::prop_assert_eq!(back.sealed_identity, entry.sealed_identity);
            proptest::prop_assert_eq!(back.notified, entry.notified);
        }
    }
}
