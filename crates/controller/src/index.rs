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
//! - the `eID → (producer, src_eID)` mapping the PIP resolves in
//!   Algorithm 1 step 1,
//! - the consumer organizations that were notified — possessing the
//!   notification is the prerequisite for a detail request.
//!
//! Entries are held **by citizen**: one bucket per keyed lookup tag
//! (HMAC of the person id), holding that citizen's entries in the order
//! they were indexed, so a per-person inquiry walks one run of entries
//! and decrypts nothing it does not return. The tag is held once, as
//! the bucket's key. A bucket also comes to hold its data subject's
//! [`PersonId`] — never the sealed tuple — learned by the first detail
//! request that reaches it and checked against the tag, so a detail
//! request opens no ciphertext after that (see
//! [`EventsIndex::resolve_detail_request`]); the id is held in memory
//! only. The plane's owner table (`owners.rs`) says
//! where an event's entry lives, for detail requests, markers and
//! inquiries over id lists.
//!
//! The index is **persisted** ([`EventsIndex::open`]): inserts and
//! notified-markers are appended to a `css-storage` record log, in the
//! binary form ([`css_xml::BinarySink`]; the sealed identity as its
//! ciphertext bytes, never plaintext), and replayed on restart, so a
//! controller restart loses no notifications. A log written before the
//! binary form holds XML payloads (the sealed identity in hex) and
//! replays alike: [`css_xml::Stored`] dispatches on each payload's
//! first byte.
//!
//! A read that builds notifications opens each distinct sealed identity
//! once, and leaves entries whose identities opened equal sharing one
//! ciphertext in memory, so a citizen's later reads open it once; the
//! log keeps each entry's own.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use css_crypto::{HmacKey, SealedBox};
use css_event::NotificationMessage;
use css_storage::{LogBackend, MemBackend, RecordLog, RecordPtr};
use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    SourceEventId, Timestamp,
};
use css_xml::{Attributes, BinarySink, Names, Stored, Token, XmlSink, XmlSource};

use crate::owners::{Claim, OwnerTable, SourceClaim};

/// The consumers notified of an event: ascending, each once, searched
/// by binary search. A fan-out is a handful of consumers, so this is
/// the set's whole cost: one vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Notified(Vec<ActorId>);

impl Notified {
    /// Whether `actor` was notified.
    pub fn contains(&self, actor: &ActorId) -> bool {
        self.0.binary_search(actor).is_ok()
    }

    /// Add `actor`, unless it is there already.
    pub fn insert(&mut self, actor: ActorId) {
        if let Err(at) = self.0.binary_search(&actor) {
            self.0.insert(at, actor);
        }
    }

    /// The notified consumers, ascending.
    pub fn as_slice(&self) -> &[ActorId] {
        &self.0
    }
}

impl From<Vec<ActorId>> for Notified {
    /// Sorted and deduplicated in place: a list already ascending (a
    /// publish's receivers) costs one pass.
    fn from(mut actors: Vec<ActorId>) -> Self {
        actors.sort_unstable();
        actors.dedup();
        Notified(actors)
    }
}

impl FromIterator<ActorId> for Notified {
    fn from_iter<I: IntoIterator<Item = ActorId>>(actors: I) -> Self {
        Vec::from_iter(actors).into()
    }
}

/// One stored notification, with identifying data encrypted at rest.
/// The person tag it is filed under is its bucket's key, not a field.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Global event id.
    pub global_id: GlobalEventId,
    /// Class of the event.
    pub event_type: EventTypeId,
    /// Sealed [`PersonIdentity`] bytes: the ciphertext this entry was
    /// written with, or — once a read has opened it beside another
    /// entry's ciphertext of the same identity — that other ciphertext,
    /// shared. What is persisted is always the entry's own.
    pub sealed_identity: Arc<[u8]>,
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
    pub notified: Notified,
}

impl IndexEntry {
    /// Write the persisted form, filed under `person_tag`, into `sink`
    /// — the one encoder. The sealed identity and the tag go out as
    /// bytes (hex digits in the XML form), never as a `String` of their
    /// own.
    pub(crate) fn encode(&self, person_tag: &[u8; 32], sink: &mut impl XmlSink) {
        sink.open("IndexEntry");
        sink.attr_int("eventId", self.global_id);
        sink.attr("type", &self.event_type);
        sink.attr_bytes("sealed", &self.sealed_identity);
        sink.attr_bytes("tag", person_tag);
        sink.attr_int("occurredAt", self.occurred_at.as_millis());
        sink.attr_int("producer", self.producer);
        sink.attr_int("srcEventId", self.src_event_id);
        sink.leaf("What", &self.description);
        for &actor in self.notified.as_slice() {
            sink.open("Notified");
            sink.attr_int("actor", actor);
            sink.close();
        }
        sink.close();
    }

    /// The tree-fed form of [`IndexRecord::decode`], for an entry.
    #[cfg(test)]
    pub(crate) fn from_xml(e: &css_xml::Element) -> CssResult<([u8; 32], Self)> {
        let mut src = css_xml::TreeSource::new(e);
        src.root()?;
        Self::decode(&mut src)
    }

    /// Read the entry whose root element `src` has just opened, to the
    /// end of the document, with the tag it is filed under.
    fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<([u8; 32], Self)> {
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
                            .int::<ActorId>("actor")
                            .ok_or_else(|| bad("Notified without actor".into()))
                            .and_then(|actor| {
                                actor.map_err(|err| bad(format!("bad notified actor: {err}")))
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
        let missing = |attr: &str| bad(format!("missing {attr}"));
        let sealed_identity = Arc::from(
            attrs
                .bytes("sealed")
                .ok_or_else(|| missing("sealed"))?
                .ok_or_else(|| bad("bad sealed hex".into()))?
                .as_ref(),
        );
        let tag_bytes = attrs
            .bytes("tag")
            .ok_or_else(|| missing("tag"))?
            .ok_or_else(|| bad("bad tag hex".into()))?;
        let person_tag: [u8; 32] = tag_bytes
            .as_ref()
            .try_into()
            .map_err(|_| bad("tag must be 32 bytes".into()))?;
        let notified = notified.into_iter().collect::<CssResult<Notified>>()?;
        let global_id = int_attr(&attrs, "eventId", bad)?;
        let event_type =
            EventTypeId::from_canonical(attrs.get("type").ok_or_else(|| missing("type"))?)
                .map_err(|err| bad(format!("bad type: {err}")))?;
        let entry = IndexEntry {
            global_id,
            event_type,
            sealed_identity,
            description: description.unwrap_or_default(),
            occurred_at: Timestamp(int_attr(&attrs, "occurredAt", bad)?),
            producer: int_attr(&attrs, "producer", bad)?,
            src_event_id: int_attr(&attrs, "srcEventId", bad)?,
            notified,
        };
        Ok((person_tag, entry))
    }
}

/// Integer attribute `name`, or the error `bad` makes of its absence or
/// of its text.
fn int_attr<T, const N: usize>(
    attrs: &Attributes<'_, N>,
    name: &str,
    bad: impl Fn(String) -> CssError,
) -> CssResult<T>
where
    T: std::str::FromStr + From<u64>,
    T::Err: std::fmt::Display,
{
    let value = attrs
        .int(name)
        .ok_or_else(|| bad(format!("missing {name}")))?;
    value.map_err(|err| bad(format!("bad {name}: {err}")))
}

/// One record of the index log: an entry with the tag it is filed
/// under, or the marker that adds a consumer to the notified set of an
/// entry persisted earlier.
enum IndexRecord {
    Entry([u8; 32], IndexEntry),
    Notified(GlobalEventId, ActorId),
}

/// Every element and attribute name of the index log's records, in
/// binary code order: the dictionary of its binary payloads. It only
/// ever grows at the end.
const NAMES: Names = Names::new(&[
    "IndexEntry",
    "eventId",
    "type",
    "sealed",
    "tag",
    "occurredAt",
    "producer",
    "srcEventId",
    "What",
    "Notified",
    "actor",
]);

impl IndexRecord {
    /// The one decoder of the index log: replay feeds it the stored
    /// payload, text or binary.
    fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        match src.root()? {
            "IndexEntry" => {
                IndexEntry::decode(src).map(|(tag, entry)| IndexRecord::Entry(tag, entry))
            }
            "Notified" => {
                let bad = |msg| CssError::Serialization(format!("Notified marker: {msg}"));
                let (attrs, rest) = src.attributes(["eventId", "actor"])?;
                src.skip_rest(rest)?;
                src.finish()?;
                let event = int_attr(&attrs, "eventId", bad)?;
                Ok(IndexRecord::Notified(
                    event,
                    int_attr(&attrs, "actor", bad)?,
                ))
            }
            other => Err(CssError::Serialization(format!(
                "unknown index record <{other}>"
            ))),
        }
    }

    /// Decode one stored payload, in whichever form it was written.
    fn read(payload: &[u8]) -> CssResult<Self> {
        Self::decode(&mut Stored::open(payload, NAMES)?)
    }
}

/// Write the standalone record that adds `actor` to the notified set
/// of an already persisted entry.
fn encode_notified_marker(event: GlobalEventId, actor: ActorId, sink: &mut impl XmlSink) {
    sink.open("Notified");
    sink.attr_int("eventId", event);
    sink.attr_int("actor", actor);
    sink.close();
}

/// Open a sealed identity to its plaintext bytes.
fn open_plaintext(sealer: &SealedBox, sealed: &[u8]) -> CssResult<Vec<u8>> {
    sealer
        .open(sealed)
        .map_err(|e| CssError::Crypto(e.to_string()))
}

/// The error of an opened plaintext that encodes no identity.
fn malformed() -> CssError {
    CssError::Crypto("sealed identity malformed".into())
}

/// The identity an opened plaintext encodes.
fn identity_of(plaintext: &[u8]) -> CssResult<PersonIdentity> {
    PersonIdentity::from_bytes(plaintext).ok_or_else(malformed)
}

/// Open a sealed identity.
fn open_identity(sealer: &SealedBox, sealed: &[u8]) -> CssResult<PersonIdentity> {
    identity_of(&open_plaintext(sealer, sealed)?)
}

/// The full notification `entry` stands for, about `person`.
fn notification_of(entry: &IndexEntry, person: PersonIdentity) -> NotificationMessage {
    NotificationMessage {
        global_id: entry.global_id,
        event_type: entry.event_type.clone(),
        person,
        description: entry.description.clone(),
        occurred_at: entry.occurred_at,
        producer: entry.producer,
    }
}

/// The memo of one read call: it opens each distinct sealed identity at
/// most once and hands out clones of what it opened. An entry whose
/// ciphertext opens to a plaintext the call already opened is
/// re-pointed to the first ciphertext that opened to it, so a citizen's
/// entries come to share one `Arc` and every later call opens it once.
/// [`PersonIdentity::to_bytes`] is injective, so equal plaintexts are
/// identities equal in id, fiscal code, name and surname: a citizen
/// whose identity changed between publishes keeps one ciphertext per
/// variant. A ciphertext that fails its MAC fails the call before
/// anything is folded into it.
struct OpenOnce<'k> {
    sealer: &'k SealedBox,
    /// Every ciphertext opened, by address, with its slot. The memo
    /// holds a clone of each `Arc` it keys, so no keyed address is
    /// freed, and reused, while it lives.
    by_address: HashMap<*const u8, (Arc<[u8]>, usize)>,
    /// The slot of every distinct plaintext opened.
    by_plaintext: HashMap<Vec<u8>, usize>,
    /// Per slot: the first ciphertext that opened to it, and the identity.
    opened: Vec<(Arc<[u8]>, PersonIdentity)>,
    /// The slot the previous call answered. A citizen's folded entries
    /// share its first ciphertext, so a walk of their bucket finds it
    /// here by pointer, before any hashing.
    last: Option<usize>,
}

impl<'k> OpenOnce<'k> {
    fn new(sealer: &'k SealedBox) -> Self {
        OpenOnce {
            sealer,
            by_address: HashMap::new(),
            by_plaintext: HashMap::new(),
            opened: Vec::new(),
            last: None,
        }
    }

    /// The identity sealed in `sealed`, which is left pointing at the
    /// call's first ciphertext of that identity.
    fn open(&mut self, sealed: &mut Arc<[u8]>) -> CssResult<PersonIdentity> {
        let last = self
            .last
            .filter(|&slot| Arc::ptr_eq(sealed, &self.opened[slot].0));
        let address = Arc::as_ptr(sealed).cast::<u8>();
        let slot = match last.or_else(|| self.by_address.get(&address).map(|&(_, slot)| slot)) {
            Some(slot) => slot,
            None => {
                let plaintext = open_plaintext(self.sealer, sealed)?;
                let slot = match self.by_plaintext.get(&plaintext) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.opened.len();
                        self.opened.push((sealed.clone(), identity_of(&plaintext)?));
                        self.by_plaintext.insert(plaintext, slot);
                        slot
                    }
                };
                self.by_address.insert(address, (sealed.clone(), slot));
                slot
            }
        };
        self.last = Some(slot);
        let (first, identity) = &self.opened[slot];
        if !Arc::ptr_eq(sealed, first) {
            *sealed = first.clone();
        }
        Ok(identity.clone())
    }
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
        /// The data subject, for the consent check: its bucket's,
        /// learned once from a sealed identity (or why that identity
        /// would not open to the person the bucket is filed under).
        subject: CssResult<PersonId>,
    },
}

/// The entries a read walks: the bucket of one person tag, in place,
/// or the entries of listed ids, through the owner table (ids not
/// indexed on this shard are skipped).
pub(crate) enum Walk<'a> {
    Tagged(&'a [u8; 32]),
    Listed(&'a [GlobalEventId]),
}

/// The hasher of the bucket map. Its keys — HMAC person tags — are
/// minted by the controller, not chosen by a caller, so there is no
/// flooding for SipHash to resist: one multiply per word spreads them.
#[derive(Default)]
struct MintedHasher(u64);

impl Hasher for MintedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            self.0 = (self.0 ^ u64::from_le_bytes(padded)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
}

type Minted = BuildHasherDefault<MintedHasher>;

/// The controller's index of all notifications, persisted on its backend.
pub struct EventsIndex<B: LogBackend = MemBackend> {
    sealer: SealedBox,
    tag_key: HmacKey,
    /// This index's shard number in the owner table.
    shard: usize,
    /// Where every event of the plane lives, shared by its shards.
    owners: Arc<OwnerTable>,
    /// Per citizen, the entries filed under their tag, in the order
    /// they were linked. Entries are never removed, so a position is
    /// stable.
    buckets: Vec<Vec<IndexEntry>>,
    /// Per bucket, its data subject once a detail request has learned
    /// it (see [`EventsIndex::resolve_detail_request`]): held in memory
    /// only, never persisted.
    subjects: Vec<Option<PersonId>>,
    /// The bucket of each person tag: the one place a tag is held.
    bucket_of: HashMap<[u8; 32], u32, Minted>,
    by_type: HashMap<EventTypeId, Vec<GlobalEventId>>,
    /// Secondary time index, one key per entry: `events_between`
    /// becomes a range scan instead of a full-index sweep.
    by_time: BTreeSet<(Timestamp, GlobalEventId)>,
    storage: RecordLog<B>,
    /// The records being written, kept between writes — and, before an
    /// entry's record, the plaintext of the identity it seals.
    payloads: Vec<u8>,
    /// The sealed identity of the entry being inserted.
    sealed: Vec<u8>,
    /// Where each marker of a batch stops in `payloads`, and where its
    /// frame landed.
    ends: Vec<usize>,
    ptrs: Vec<RecordPtr>,
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
            .1
            .pop()
            .ok_or_else(|| CssError::Invalid("one backend must open one index".into()))
    }

    /// Open one index per backend — the shards of a plane, sharing one
    /// owner table — replaying every persisted entry into the index
    /// `owner` names for its person tag, which may differ from the
    /// backend it was read off: a plane that changed its shard count
    /// still recovers every event into the right partition. Every
    /// record is decoded in the one pass recovery makes over its log;
    /// entries are linked once every shard exists, through the claims a
    /// live insert makes, so a second entry for an event, or for a
    /// source event, on any backend, fails the open. Notified-markers
    /// follow, through the owner table, so a marker for an event no
    /// shard holds fails it too, as a live [`EventsIndex::mark_notified`]
    /// refuses to write one.
    pub(crate) fn open_all(
        master_key: &[u8],
        backends: Vec<B>,
        owner: impl Fn(&[u8; 32]) -> usize,
    ) -> CssResult<(Arc<OwnerTable>, Vec<Self>)> {
        let owners = Arc::new(OwnerTable::default());
        let mut shards = Vec::with_capacity(backends.len());
        let mut entries: Vec<([u8; 32], IndexEntry)> = Vec::new();
        let mut markers: Vec<(GlobalEventId, ActorId)> = Vec::new();
        for (shard, backend) in backends.into_iter().enumerate() {
            let (storage, _) = RecordLog::recover(backend, |_, payload| {
                match IndexRecord::read(payload)? {
                    IndexRecord::Entry(tag, entry) => entries.push((tag, entry)),
                    IndexRecord::Notified(event, actor) => markers.push((event, actor)),
                }
                Ok(())
            })?;
            shards.push(EventsIndex {
                sealer: SealedBox::new(master_key),
                tag_key: derive_tag_key(master_key),
                shard,
                owners: Arc::clone(&owners),
                buckets: Vec::new(),
                subjects: Vec::new(),
                bucket_of: HashMap::default(),
                by_type: HashMap::new(),
                by_time: BTreeSet::new(),
                storage,
                payloads: Vec::new(),
                sealed: Vec::new(),
                ends: Vec::new(),
                ptrs: Vec::new(),
            });
        }
        for (tag, entry) in entries {
            let id = entry.global_id;
            let shard = &mut shards[owner(&tag)];
            let twice = || CssError::Storage(format!("index log holds event {id} twice"));
            let claim = shard.claim(&tag, id)?.ok_or_else(twice)?;
            let refused = |e| CssError::Storage(format!("index log holds event {id}: {e}"));
            let source = owners.claim_source(entry.producer, entry.src_event_id);
            source.map_err(refused)?.link(id);
            shard.link_entry(tag, entry);
            owners.settle(claim, true);
        }
        for (event, actor) in markers {
            let owner = owners.get(event).map(|(shard, ..)| shard);
            let entry = owner.and_then(|shard| shards.get_mut(shard)?.locate_mut(event));
            let entry = entry.ok_or_else(|| {
                CssError::Storage(format!(
                    "index log marks event {event} notified, but holds no entry for it"
                ))
            })?;
            entry.notified.insert(actor);
        }
        Ok((owners, shards))
    }

    /// Claim event `id`'s slot in the owner table for an entry filed
    /// under `person_tag` here, at the place [`Self::link_entry`] will
    /// link it: `None` if the id is indexed already, on any shard.
    fn claim(&self, person_tag: &[u8; 32], id: GlobalEventId) -> CssResult<Option<Claim>> {
        let bucket = self.bucket_of.get(person_tag);
        let bucket = bucket.map_or(self.buckets.len(), |&bucket| bucket as usize);
        let position = self.buckets.get(bucket).map_or(0, Vec::len);
        self.owners.claim(id, (self.shard, bucket, position))
    }

    fn link_entry(&mut self, person_tag: [u8; 32], entry: IndexEntry) {
        self.by_type
            .entry(entry.event_type.clone())
            .or_default()
            .push(entry.global_id);
        self.by_time.insert((entry.occurred_at, entry.global_id));
        let fresh = self.buckets.len() as u32;
        let bucket = *self.bucket_of.entry(person_tag).or_insert(fresh);
        if bucket == fresh {
            self.buckets.push(Vec::new());
            self.subjects.push(None);
        }
        self.buckets[bucket as usize].push(entry);
    }

    /// Where event `id`'s entry sits here: its bucket and position, if
    /// the owner table places it on this shard.
    fn place(&self, id: GlobalEventId) -> Option<(usize, usize)> {
        let (shard, bucket, position) = self.owners.get(id)?;
        (shard == self.shard).then_some((bucket, position))
    }

    /// The entry of event `id`, through the owner table.
    fn locate(&self, id: GlobalEventId) -> Option<&IndexEntry> {
        let (bucket, at) = self.place(id)?;
        self.buckets.get(bucket)?.get(at)
    }

    fn locate_mut(&mut self, id: GlobalEventId) -> Option<&mut IndexEntry> {
        let (bucket, at) = self.place(id)?;
        self.buckets.get_mut(bucket)?.get_mut(at)
    }

    fn tag(&self, person: PersonId) -> [u8; 32] {
        self.tag_key.mac(&person.value().to_le_bytes())
    }

    /// Store a notification, sealing the identifying fields. The
    /// notified set is converted once, to the entry's sorted list. An
    /// id, or a source event of the producer, already indexed fails
    /// with [`CssError::AlreadyExists`].
    pub fn insert(
        &mut self,
        notification: &NotificationMessage,
        src_event_id: SourceEventId,
        notified: HashSet<ActorId>,
    ) -> CssResult<()> {
        let owners = Arc::clone(&self.owners);
        let source = owners.claim_source(notification.producer, src_event_id)?;
        let person_tag = self.tag(notification.person.id);
        let notified = notified.into_iter().collect();
        self.insert_tagged(person_tag, notification, source, notified)
    }

    /// [`EventsIndex::insert`] for a caller that already holds the
    /// person's tag — the plane derives it to pick this shard — and the
    /// claim of the notification's source event, which is linked with
    /// the entry or, if none is written, given back.
    pub(crate) fn insert_tagged(
        &mut self,
        person_tag: [u8; 32],
        notification: &NotificationMessage,
        source: SourceClaim<'_>,
        notified: Notified,
    ) -> CssResult<()> {
        let id = notification.global_id;
        let indexed = || CssError::AlreadyExists(format!("event {id} already indexed"));
        let claim = self.claim(&person_tag, id)?.ok_or_else(indexed)?;
        self.payloads.clear();
        notification.person.write_bytes(&mut self.payloads);
        self.sealed.clear();
        self.sealer
            .seal_into(id.value(), &self.payloads, &mut self.sealed);
        let sealed_identity = Arc::from(self.sealed.as_slice());
        let entry = IndexEntry {
            global_id: id,
            event_type: notification.event_type.clone(),
            sealed_identity,
            description: notification.description.clone(),
            occurred_at: notification.occurred_at,
            producer: notification.producer,
            src_event_id: source.src(),
            notified,
        };
        self.payloads.clear();
        entry.encode(&person_tag, &mut BinarySink::new(&mut self.payloads, NAMES));
        let written = self.storage.append(&self.payloads).map(|_| ());
        if written.is_ok() {
            self.link_entry(person_tag, entry);
            source.link(id);
        }
        self.owners.settle(claim, written.is_ok());
        written
    }

    /// The PIP mapping of Algorithm 1 step 1: `eID → (producer, src_eID)`.
    pub fn resolve_source(
        &self,
        id: GlobalEventId,
    ) -> CssResult<(ActorId, SourceEventId, EventTypeId)> {
        self.locate(id)
            .map(|e| (e.producer, e.src_event_id, e.event_type.clone()))
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))
    }

    /// Raw entry access.
    #[cfg(test)]
    pub(crate) fn entry(&self, id: GlobalEventId) -> Option<&IndexEntry> {
        self.locate(id)
    }

    /// Record that `consumer` has been notified of every event in
    /// `ids`: the markers it lacks are persisted as one batch append
    /// before any of them is set, so a failed write leaves the consumer
    /// notified of none of them. An id not in the index fails the call
    /// before anything is written.
    pub fn mark_notified(&mut self, ids: &[GlobalEventId], consumer: ActorId) -> CssResult<()> {
        // Markers are encoded into one buffer; each is the slice
        // between two ends.
        self.payloads.clear();
        self.ends.clear();
        for &id in ids {
            let Some(entry) = self.locate(id) else {
                return Err(CssError::NotFound(format!("event {id} not in index")));
            };
            if !entry.notified.contains(&consumer) {
                encode_notified_marker(
                    id,
                    consumer,
                    &mut BinarySink::new(&mut self.payloads, NAMES),
                );
                self.ends.push(self.payloads.len());
            }
        }
        self.storage
            .append_batch(&self.payloads, &self.ends, &mut self.ptrs)?;
        // Every id is located, so each is marked now: the ones that
        // lacked `consumer` are the ones just written.
        for &id in ids {
            if let Some(entry) = self.locate_mut(id) {
                entry.notified.insert(consumer);
            }
        }
        Ok(())
    }

    /// Whether `consumer` was notified of event `id`.
    pub fn was_notified(&self, id: GlobalEventId, consumer: ActorId) -> bool {
        self.locate(id)
            .is_some_and(|e| e.notified.contains(&consumer))
    }

    /// Everything Algorithm 1 asks the index about one request, from
    /// one look at the event's entry: the PIP mapping, whether the
    /// indexed class is the `declared` one, whether `consumer` or one
    /// of its enclosing organizations (`ancestors`) was notified, and —
    /// only when both hold — the data subject. `None` when the event is
    /// not in this index.
    ///
    /// The subject is its bucket's, learned once: the first request
    /// that reaches a bucket opens its entry's sealed identity and keeps
    /// the person id only if that id's keyed tag is the bucket's; every
    /// later request about the citizen opens nothing. An identity that
    /// does not open, or names someone the bucket is not filed under,
    /// fails the request naming the event, and nothing is kept.
    pub fn resolve_detail_request(
        &mut self,
        id: GlobalEventId,
        declared: &EventTypeId,
        consumer: ActorId,
        ancestors: &[ActorId],
    ) -> Option<DetailResolution> {
        let (bucket, at) = self.place(id)?;
        let entry = self.buckets.get(bucket)?.get(at)?;
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
                subject: self.subjects[bucket].map_or_else(|| self.learn(bucket, at, id), Ok),
            }
        })
    }

    /// The person the sealed identity of event `id` (entry `at` of
    /// `bucket`) names, kept as the bucket's subject if its keyed tag is
    /// the bucket's.
    fn learn(&mut self, bucket: usize, at: usize, id: GlobalEventId) -> CssResult<PersonId> {
        let failed = |why: &dyn std::fmt::Display| CssError::Crypto(format!("event {id}: {why}"));
        let opened = self.sealer.open(&self.buckets[bucket][at].sealed_identity);
        let opened = opened.map_err(|e| failed(&e))?;
        let person = PersonIdentity::id_from_bytes(&opened).ok_or_else(|| failed(&"malformed"))?;
        if self.bucket_of.get(&self.tag(person)) != Some(&(bucket as u32)) {
            return Err(failed(&"sealed identity is not the person its tag names"));
        }
        self.subjects[bucket] = Some(person);
        Ok(person)
    }

    /// Rebuild the full notification (decrypting the identity). Only the
    /// controller itself may do this, on behalf of authorized consumers.
    pub fn decrypt_notification(&self, id: GlobalEventId) -> CssResult<NotificationMessage> {
        let entry = self
            .locate(id)
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))?;
        Ok(notification_of(
            entry,
            open_identity(&self.sealer, &entry.sealed_identity)?,
        ))
    }

    /// Event ids about one person (via the keyed tag; no decryption).
    pub fn events_of_person(&self, person: PersonId) -> Vec<GlobalEventId> {
        let bucket = self.bucket_of.get(&self.tag(person));
        let entries = bucket.and_then(|&bucket| self.buckets.get(bucket as usize));
        entries.into_iter().flatten().map(|e| e.global_id).collect()
    }

    /// The notifications of the entries `walk` reaches that `keep`
    /// accepts, in walk order, each distinct identity opened once.
    /// Every read that builds notifications from several entries comes
    /// through here, and through one [`OpenOnce`] per call.
    pub(crate) fn notifications(
        &mut self,
        walk: Walk<'_>,
        mut keep: impl FnMut(&IndexEntry) -> bool,
    ) -> CssResult<Vec<NotificationMessage>> {
        let mut memo = OpenOnce::new(&self.sealer);
        let mut out = Vec::new();
        let mut visit = |entry: &mut IndexEntry| -> CssResult<()> {
            if keep(entry) {
                let person = memo.open(&mut entry.sealed_identity)?;
                out.push(notification_of(entry, person));
            }
            Ok(())
        };
        match walk {
            Walk::Tagged(tag) => {
                if let Some(&bucket) = self.bucket_of.get(tag) {
                    for entry in self.buckets.get_mut(bucket as usize).into_iter().flatten() {
                        visit(entry)?;
                    }
                }
            }
            Walk::Listed(ids) => {
                for &id in ids {
                    let place = self.place(id);
                    let entry = place.and_then(|(b, at)| self.buckets.get_mut(b)?.get_mut(at));
                    if let Some(entry) = entry {
                        visit(entry)?;
                    }
                }
            }
        }
        Ok(out)
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
            .range((from, GlobalEventId(0))..=(to, GlobalEventId(u64::MAX)))
            .map(|&(_, id)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Resolve each candidate event once for an inquiry on behalf of
    /// `consumer`: one entry lookup covers the authorization check
    /// (`authorize` is asked per event class) and the identity opening
    /// (each distinct identity opened once). Returns the notifications
    /// and the ids among them `consumer` is not yet marked notified of;
    /// nothing is marked here — the caller audits the inquiry, then
    /// hands those ids to [`EventsIndex::mark_notified`].
    pub fn filter_authorized(
        &mut self,
        candidates: &[GlobalEventId],
        consumer: ActorId,
        authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<(Vec<NotificationMessage>, Vec<GlobalEventId>)> {
        self.filter(Walk::Listed(candidates), consumer, authorize)
    }

    /// [`EventsIndex::filter_authorized`] over the entries `walk`
    /// reaches.
    pub(crate) fn filter(
        &mut self,
        walk: Walk<'_>,
        consumer: ActorId,
        mut authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<(Vec<NotificationMessage>, Vec<GlobalEventId>)> {
        let mut unmarked = Vec::new();
        let out = self.notifications(walk, |entry| {
            if !authorize(&entry.event_type) {
                return false;
            }
            if !entry.notified.contains(&consumer) {
                unmarked.push(entry.global_id);
            }
            true
        })?;
        Ok((out, unmarked))
    }

    /// Number of events indexed here: every entry is one key of the
    /// time index.
    pub fn len(&self) -> usize {
        self.by_time.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_xml::{Reader, StreamSink};

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
        assert_eq!(idx.owners.max_id(), Some(GlobalEventId(12)));
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
        let bytes = idx.storage.byte_len();
        let (out, unmarked) = idx
            .filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].person.fiscal_code, "FC1");
        assert_eq!(unmarked, vec![GlobalEventId(1), GlobalEventId(3)]);
        // The filter itself marks nothing and writes nothing.
        assert!(!idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert_eq!(idx.storage.byte_len(), bytes);
        idx.mark_notified(&unmarked, ActorId(5)).unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(!idx.was_notified(GlobalEventId(2), ActorId(5)));
        // Re-running owes no new markers (and so writes no new bytes).
        let bytes = idx.storage.byte_len();
        let (_, unmarked) = idx
            .filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        assert!(unmarked.is_empty());
        idx.mark_notified(&[GlobalEventId(1), GlobalEventId(3)], ActorId(5))
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
        idx.mark_notified(&[GlobalEventId(1)], ActorId(6)).unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(6)));
        // An unknown id fails the batch before any of it is marked.
        assert!(idx
            .mark_notified(&[GlobalEventId(1), GlobalEventId(404)], ActorId(7))
            .is_err());
        assert!(!idx.was_notified(GlobalEventId(1), ActorId(7)));
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
            idx.mark_notified(&[GlobalEventId(2)], ActorId(6)).unwrap();
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
        }
        let idx = EventsIndex::open(b"wrong-key", css_storage::FileBackend::open(&path).unwrap())
            .unwrap();
        // Metadata is there (routing still possible)...
        assert_eq!(idx.len(), 1);
        // ...but identities stay opaque without the right key.
        assert!(idx.decrypt_notification(GlobalEventId(1)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A log holding one event's entry twice does not open: the error
    /// names the event, wherever each copy is read off and routed. A
    /// replayed marker stays idempotent.
    #[test]
    fn a_replayed_duplicate_entry_fails_the_open() {
        let key = b"controller master key";
        let mut idx = index();
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
            .unwrap();
        let entry_len = idx.storage.byte_len() as usize;
        idx.mark_notified(&[GlobalEventId(1)], ActorId(5)).unwrap();
        let log = idx.storage.into_backend();
        let bytes = log.read_at(0, log.len() as usize).unwrap();
        let backend = |parts: &[&[u8]]| {
            let mut backend = MemBackend::new();
            for part in parts {
                backend.append(part).unwrap();
            }
            backend
        };
        let names_the_event = |opened: CssResult<()>| match opened {
            Err(CssError::Storage(m)) => m.contains("evt-00000001"),
            _ => false,
        };
        let twice = EventsIndex::open(key, backend(&[&bytes, &bytes]));
        assert!(names_the_event(twice.map(|_| ())));
        let routed = std::cell::Cell::new(0);
        let across =
            EventsIndex::open_all(key, vec![backend(&[&bytes]), backend(&[&bytes])], |_| {
                routed.set(routed.get() + 1);
                routed.get() - 1
            });
        assert!(names_the_event(across.map(|_| ())));
        let marker = &bytes[entry_len..];
        let idx = EventsIndex::open(key, backend(&[&bytes, marker, marker])).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.events_of_person(PersonId(7)), vec![GlobalEventId(1)]);
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
    }

    /// An entry planted with a valid CRC, carrying an indexed source
    /// event under a fresh id, fails the open, naming the source event
    /// and both ids, read off one backend or two.
    #[test]
    fn a_replayed_second_entry_for_a_source_event_fails_the_open() {
        let key = b"controller master key";
        let log_of = |id: u64| {
            let mut idx = index();
            idx.insert(&notif(id, 7, "x"), SourceEventId(91), HashSet::new())
                .unwrap();
            let log = idx.storage.into_backend();
            log.read_at(0, log.len() as usize).unwrap()
        };
        let backend = |parts: &[&Vec<u8>]| {
            let mut backend = MemBackend::new();
            for part in parts {
                backend.append(part).unwrap();
            }
            backend
        };
        let (indexed, planted) = (log_of(1), log_of(2));
        let names_both = |opened: CssResult<()>| match opened {
            Err(CssError::Storage(m)) => {
                let named = [
                    "src-00000091",
                    "act-00000001",
                    "evt-00000001",
                    "evt-00000002",
                ];
                assert!(named.iter().all(|part| m.contains(part)), "{m}");
            }
            other => panic!("opened: {other:?}"),
        };
        names_both(EventsIndex::open(key, backend(&[&indexed, &planted])).map(|_| ()));
        let across = vec![backend(&[&indexed]), backend(&[&planted])];
        names_both(EventsIndex::open_all(key, across, |_| 0).map(|_| ()));
        // Either entry alone opens, its source event claimed.
        let mut idx = EventsIndex::open(key, backend(&[&planted])).unwrap();
        let retried = idx.insert(&notif(3, 7, "x"), SourceEventId(91), HashSet::new());
        assert!(matches!(retried, Err(CssError::AlreadyExists(m)) if m.contains("evt-00000002")));
        assert_eq!(idx.len(), 1);
    }

    /// A notified-marker for an event no shard holds fails the open and
    /// names the event: a valid-CRC marker frame spliced into a log
    /// that never indexed its event.
    #[test]
    fn a_marker_for_an_event_in_no_shard_fails_the_open() {
        let key = b"controller master key";
        let log_of = |id: u64| {
            let mut idx = index();
            idx.insert(&notif(id, 7, "x"), SourceEventId(id), HashSet::new())
                .unwrap();
            let entry_len = idx.storage.byte_len() as usize;
            idx.mark_notified(&[GlobalEventId(id)], ActorId(5)).unwrap();
            let log = idx.storage.into_backend();
            let bytes = log.read_at(0, log.len() as usize).unwrap();
            (bytes[..entry_len].to_vec(), bytes[entry_len..].to_vec())
        };
        let (entry_1, marker_1) = log_of(1);
        let (_, marker_2) = log_of(2);
        let mut spliced = MemBackend::new();
        for part in [&entry_1, &marker_1, &marker_2] {
            spliced.append(part).unwrap();
        }
        match EventsIndex::open(key, spliced) {
            Err(CssError::Storage(m)) => {
                assert!(m.contains("evt-00000002") && m.contains("notified"), "{m}");
            }
            other => panic!("opened: {:?}", other.map(|idx| idx.len())),
        }
        // The same log without the stray marker opens.
        let mut whole = MemBackend::new();
        for part in [&entry_1, &marker_1] {
            whole.append(part).unwrap();
        }
        let idx = EventsIndex::open(key, whole).unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
    }

    #[test]
    fn duplicate_mark_notified_writes_once() {
        let mut idx = EventsIndex::open(b"k", MemBackend::new()).unwrap();
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
            .unwrap();
        idx.mark_notified(&[GlobalEventId(1)], ActorId(5)).unwrap();
        let bytes_after_first = idx.storage.byte_len();
        idx.mark_notified(&[GlobalEventId(1)], ActorId(5)).unwrap();
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

    /// The person tag the pinned entries are filed under.
    fn pinned_tag() -> [u8; 32] {
        let mut person_tag = [0u8; 32];
        for (i, b) in person_tag.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(73) ^ 0xA5;
        }
        person_tag
    }

    fn entry_with(description: &str, notified: &[u64]) -> IndexEntry {
        IndexEntry {
            global_id: GlobalEventId(1),
            event_type: EventTypeId::v1("lab-result"),
            sealed_identity: (0u8..110)
                .map(|i| i.wrapping_mul(37).wrapping_add(11))
                .collect(),
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
            assert_eq!(streamed(|s| entry.encode(&pinned_tag(), s)), bytes);
            assert_eq!(tree(|s| entry.encode(&pinned_tag(), s)), bytes);
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
                    IndexRecord::Entry(..) => entries += 1,
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
        let entry = streamed(|s| entry_with("x", &[4]).encode(&pinned_tag(), s));
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

    fn binary(encode: impl FnOnce(&mut BinarySink<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut BinarySink::new(&mut out, NAMES));
        out
    }

    /// A record as a comparable value.
    fn describe(record: IndexRecord) -> String {
        match record {
            IndexRecord::Entry(tag, e) => format!("{tag:?} {e:?}"),
            IndexRecord::Notified(event, actor) => format!("{event} {actor}"),
        }
    }

    /// Cut short anywhere, or with any one byte flipped, a stored
    /// binary entry or marker reads as an error or as another record —
    /// never as itself, and never as a panic.
    #[test]
    fn damaged_binary_records_never_read_as_themselves() {
        let entry = binary(|s| entry_with("check-up", &[4, 30]).encode(&pinned_tag(), s));
        let marker = binary(|s| encode_notified_marker(GlobalEventId(77), ActorId(300), s));
        for payload in [entry, marker] {
            let original = describe(IndexRecord::read(&payload).unwrap());
            for cut in 0..payload.len() {
                assert!(IndexRecord::read(&payload[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..payload.len() {
                for mask in 1..=255u8 {
                    let mut flipped = payload.clone();
                    flipped[at] ^= mask;
                    if let Ok(read) = IndexRecord::read(&flipped) {
                        assert_ne!(describe(read), original, "byte {at} ^ {mask:#04x}");
                    }
                }
            }
        }
    }

    /// A backend whose appends fail while the flag is up.
    #[derive(Default)]
    struct Failing {
        inner: MemBackend,
        fail: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl LogBackend for Failing {
        fn append(&mut self, data: &[u8]) -> CssResult<u64> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(CssError::Storage("injected".into()));
            }
            self.inner.append(data)
        }
        fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
            self.inner.read_at(offset, len)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&mut self) -> CssResult<()> {
            Ok(())
        }
        fn truncate(&mut self, len: u64) -> CssResult<()> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn a_marker_that_fails_to_persist_marks_nobody() {
        let backend = Failing::default();
        let fail = backend.fail.clone();
        let mut idx = EventsIndex::open(b"k", backend).unwrap();
        idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
            .unwrap();
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(idx.mark_notified(&[GlobalEventId(1)], ActorId(5)).is_err());
        let (_, unmarked) = idx
            .filter_authorized(&[GlobalEventId(1)], ActorId(6), |_| true)
            .unwrap();
        assert!(idx.mark_notified(&unmarked, ActorId(6)).is_err());
        assert!(!idx.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(!idx.was_notified(GlobalEventId(1), ActorId(6)));
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        idx.mark_notified(&[GlobalEventId(1)], ActorId(5)).unwrap();
        assert!(idx.was_notified(GlobalEventId(1), ActorId(5)));
    }

    /// An entry that fails to persist gives its id and its source event
    /// back: the retry is indexed.
    #[test]
    fn an_entry_that_fails_to_persist_claims_nothing() {
        let backend = Failing::default();
        let fail = backend.fail.clone();
        let mut idx = EventsIndex::open(b"k", backend).unwrap();
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let insert = |idx: &mut EventsIndex<Failing>| {
            idx.insert(&notif(1, 7, "x"), SourceEventId(1), HashSet::new())
        };
        assert!(matches!(insert(&mut idx), Err(CssError::Storage(_))));
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        insert(&mut idx).unwrap();
        assert_eq!(idx.len(), 1);
        assert!(matches!(insert(&mut idx), Err(CssError::AlreadyExists(_))));
    }

    /// `count` events about citizen 7, one identity, ids from 1.
    fn one_citizen(count: u64) -> (EventsIndex<MemBackend>, Vec<GlobalEventId>) {
        let mut idx = index();
        let ids: Vec<GlobalEventId> = (1..=count).map(GlobalEventId).collect();
        for id in &ids {
            idx.insert(
                &notif(id.value(), 7, "x"),
                SourceEventId(id.value()),
                HashSet::new(),
            )
            .unwrap();
        }
        (idx, ids)
    }

    fn sealed(idx: &EventsIndex<MemBackend>, ids: &[GlobalEventId]) -> Vec<Arc<[u8]>> {
        ids.iter()
            .map(|id| idx.entry(*id).unwrap().sealed_identity.clone())
            .collect()
    }

    fn all_distinct(sealed: &[Arc<[u8]>]) -> bool {
        sealed
            .iter()
            .enumerate()
            .all(|(i, a)| sealed[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)))
    }

    #[test]
    fn an_inquiry_folds_a_citizens_entries_into_one_ciphertext() {
        let (mut idx, ids) = one_citizen(40);
        // Written one ciphertext per event.
        assert!(all_distinct(&sealed(&idx, &ids)));
        let bytes = idx.storage.byte_len();
        let (out, _) = idx.filter_authorized(&ids, ActorId(5), |_| true).unwrap();
        let person = notif(1, 7, "x").person;
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|n| n.person == person));
        let folded = sealed(&idx, &ids);
        assert!(folded.iter().all(|s| Arc::ptr_eq(s, &folded[0])));
        // Folding is in memory only: nothing was written.
        assert_eq!(idx.storage.byte_len(), bytes);
        // A later read opens the one shared ciphertext and folds no further.
        let (again, _) = idx.filter_authorized(&ids, ActorId(6), |_| true).unwrap();
        assert!(again.iter().all(|n| n.person == person));
        assert!(sealed(&idx, &ids)
            .iter()
            .all(|s| Arc::ptr_eq(s, &folded[0])));
    }

    #[test]
    fn a_ciphertext_that_fails_its_mac_fails_the_read_and_takes_no_fold() {
        let (mut idx, ids) = one_citizen(3);
        let tampered = idx.locate_mut(ids[2]).unwrap();
        let mut bytes = tampered.sealed_identity.to_vec();
        bytes[0] ^= 1;
        tampered.sealed_identity = bytes.into();
        assert!(idx.filter_authorized(&ids, ActorId(5), |_| true).is_err());
        let after = sealed(&idx, &ids);
        assert!(!Arc::ptr_eq(&after[2], &after[0]));
        assert!(!Arc::ptr_eq(&after[2], &after[1]));

        // Under a wrong key nothing opens, and nothing is folded.
        let (mut idx, ids) = one_citizen(3);
        idx.sealer = SealedBox::new(b"wrong key");
        let tag = idx.tag(PersonId(7));
        assert!(idx.filter_authorized(&ids, ActorId(5), |_| true).is_err());
        assert!(idx.notifications(Walk::Tagged(&tag), |_| true).is_err());
        assert!(all_distinct(&sealed(&idx, &ids)));
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
                sealed_identity: sealed.into(),
                occurred_at: Timestamp(at),
                src_event_id: SourceEventId(src),
                ..entry_with(&description, &notified)
            };
            let text = streamed(|s| entry.encode(&pinned_tag(), s));
            proptest::prop_assert_eq!(&text, &tree(|s| entry.encode(&pinned_tag(), s)));
            let (tag, back) = IndexEntry::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
            proptest::prop_assert_eq!(tag, pinned_tag());
            proptest::prop_assert_eq!(&back.sealed_identity, &entry.sealed_identity);
            proptest::prop_assert_eq!(&back.notified, &entry.notified);
            // The binary form reads back as the XML form does, for the
            // entry and for a marker.
            proptest::prop_assert_eq!(
                describe(IndexRecord::read(&binary(|s| entry.encode(&pinned_tag(), s))).unwrap()),
                describe(IndexRecord::read(text.as_bytes()).unwrap())
            );
            let (event, actor) = (GlobalEventId(id), ActorId(src));
            let marker = binary(|s| encode_notified_marker(event, actor, s));
            let marker_text = streamed(|s| encode_notified_marker(event, actor, s));
            proptest::prop_assert_eq!(
                describe(IndexRecord::read(&marker).unwrap()),
                describe(IndexRecord::read(marker_text.as_bytes()).unwrap())
            );
        }
    }
}
