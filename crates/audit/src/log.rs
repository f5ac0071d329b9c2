//! One shard of the tamper-evident audit log.
//!
//! A record's bytes are held once, on its `css-storage` record log, in
//! the binary form ([`css_xml::BinarySink`]; a log written before that
//! holds XML payloads, and reads them alike — [`css_xml::Stored`]
//! dispatches on each payload's first byte). In memory the shard keeps,
//! per record, only the digest of its chain link
//! ([`css_crypto::chain_step`], the step of [`css_crypto::HashChain`]),
//! where its frame lies and how long its payload is — plus the
//! per-person posting list. A query reads the records it answers from
//! storage and decodes them.
//!
//! What open checks, in the one pass recovery makes over the log: every
//! frame's CRC, that every payload decodes, that sequence numbers
//! increase, and — given the shard's mark from the plane's anchor
//! ([`crate::anchor`]) — that every record up to the mark is whole and
//! chains to the mark's head: that pass is the verification. Only bytes
//! beyond the mark are a torn tail. What [`ShardLog::verify`] checks:
//! that the bytes on the backend **now** still chain to the digests
//! noted when each record was taken in.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use css_crypto::{chain_step, ChainVerifyError, HashChain};
use css_storage::{split_records, LogBackend, RecordLog, RecordPtr};
use css_types::{CssError, CssResult, PersonId};
use css_xml::{BinarySink, Stored};

use crate::anchor::Mark;
use crate::query::AuditQuery;
use crate::record::{AuditRecord, NAMES};

/// Append-only, hash-chained, persisted log holding one shard of an
/// [`crate::AuditShards`] plane.
///
/// Seq is drawn from the plane's shared [`AtomicU64`], which every
/// shard-local log allocates from. Each shard's stream is therefore
/// strictly increasing but *gappy* (the gaps live on sibling shards),
/// and recovery enforces monotonicity, advancing the shared counter
/// past the highest recovered seq.
pub(crate) struct ShardLog<B: LogBackend> {
    held: Held,
    storage: RecordLog<B>,
    sequencer: Arc<AtomicU64>,
    /// The payloads of the append in progress, kept between appends.
    payloads: Vec<u8>,
}

/// One record as the shard holds it in memory: the digest of its chain
/// link, and the frame on storage the digest was derived from — where
/// it lies and how long its payload is, which is what one sized read of
/// it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    digest: [u8; 32],
    ptr: RecordPtr,
    len: u32,
}

/// What the shard holds in memory about the records on its storage.
///
/// `by_person` is the posting list of the citizen's view ("who touched
/// my data"): for each data subject, the positions in `links` of the
/// records about them, ascending. It is derived state — rebuilt by
/// replay at open, never persisted — and is written only by
/// [`Held::push`], the one place a record enters `links`.
struct Held {
    /// Per record, in log order.
    links: Vec<Link>,
    /// The last link's digest; of the empty chain before the first.
    head: [u8; 32],
    by_person: HashMap<PersonId, Vec<u32>>,
    /// The seq of the last record.
    last_seq: Option<u64>,
}

impl Held {
    /// Take a record whose `payload` lies at `ptr` on storage (already,
    /// or as of this call): chain link, posting list. Append, group
    /// commit and replay all end here.
    fn push(&mut self, record: &AuditRecord, payload: &[u8], ptr: RecordPtr) {
        self.head = chain_step(&self.head, self.links.len() as u64, payload);
        let position = u32::try_from(self.links.len())
            .expect("one in-memory audit shard holds fewer than 2^32 records");
        if let Some(person) = record.person {
            self.by_person.entry(person).or_default().push(position);
        }
        self.links.push(Link {
            digest: self.head,
            ptr,
            len: u32::try_from(payload.len()).expect("a record frame holds under 4 GiB"),
        });
        self.last_seq = Some(record.seq);
    }
}

/// Decode one stored payload, in whichever form it was written.
fn decode(payload: &[u8]) -> CssResult<AuditRecord> {
    AuditRecord::decode(&mut Stored::open(payload, NAMES)?)
}

impl<B: LogBackend> ShardLog<B> {
    /// Open the shard log on `backend`, replaying existing records in
    /// one sequential pass: each is decoded and chained from the bytes
    /// the pass has just read. Recovery accepts the strictly-increasing
    /// (gappy) sequence a shard produces and advances `sequencer` past
    /// the highest recovered seq so restarts never reuse a number.
    ///
    /// Every control record ([`crate::AuditAction::is_control`]) the
    /// pass decodes is pushed onto `journal`, in log order.
    ///
    /// Fails if any persisted record is corrupt (frame CRC), malformed
    /// or out of sequence, or if the log does not hold `mark`'s records
    /// whole, chaining to its head.
    pub(crate) fn open(
        backend: B,
        sequencer: Arc<AtomicU64>,
        mark: Option<Mark>,
        journal: &mut Vec<AuditRecord>,
    ) -> CssResult<Self> {
        let mut held = Held {
            links: Vec::new(),
            head: HashChain::new().head(),
            by_person: HashMap::new(),
            last_seq: None,
        };
        let anchored = mark.map_or(0, |mark| mark.count);
        let (storage, _) = RecordLog::recover_anchored(backend, anchored, |ptr, payload| {
            let record = decode(payload)?;
            if let Some(prev) = held.last_seq {
                if record.seq <= prev {
                    return Err(CssError::Storage(format!(
                        "audit shard sequence not increasing: {} after {prev}",
                        record.seq
                    )));
                }
            }
            sequencer.fetch_max(record.seq + 1, Ordering::AcqRel);
            held.push(&record, payload, ptr);
            if record.action.is_control() {
                journal.push(record);
            }
            Ok(())
        })?;
        if let Some(mark) = mark {
            let at_mark = match mark.count.checked_sub(1) {
                Some(last) => held.links[last as usize].digest,
                None => HashChain::new().head(),
            };
            if at_mark != mark.head {
                return Err(CssError::Crypto(
                    ChainVerifyError::HashMismatch { seq: mark.count }.to_string(),
                ));
            }
        }
        Ok(ShardLog {
            held,
            storage,
            sequencer,
            payloads: Vec::new(),
        })
    }

    /// Append a record, assigning its sequence number. Returns the seq.
    pub(crate) fn append(&mut self, mut record: AuditRecord) -> CssResult<u64> {
        record.seq = self.sequencer.fetch_add(1, Ordering::AcqRel);
        self.payloads.clear();
        record.encode(&mut BinarySink::new(&mut self.payloads, NAMES));
        let ptr = self.storage.append(&self.payloads)?;
        self.held.push(&record, &self.payloads, ptr);
        Ok(record.seq)
    }

    /// Append several records as one group commit, assigning their
    /// sequence numbers. Returns the seq of the first record.
    ///
    /// The persisted frames are byte-identical to sequential
    /// [`ShardLog::append`] calls — recovery cannot tell them apart —
    /// but the storage backend sees a single write for the whole batch.
    /// The publish path uses this for the per-consumer Delivery fan-out.
    pub(crate) fn append_batch(
        &mut self,
        records: impl IntoIterator<Item = AuditRecord>,
    ) -> CssResult<u64> {
        let mut records: Vec<AuditRecord> = records.into_iter().collect();
        let first_seq = self
            .sequencer
            .fetch_add(records.len() as u64, Ordering::AcqRel);
        if records.is_empty() {
            return Ok(first_seq);
        }
        // Every record is encoded into one buffer; a payload is the
        // slice between two record ends.
        self.payloads.clear();
        let mut ends = Vec::with_capacity(records.len());
        for (i, record) in records.iter_mut().enumerate() {
            record.seq = first_seq + i as u64;
            record.encode(&mut BinarySink::new(&mut self.payloads, NAMES));
            ends.push(self.payloads.len());
        }
        let payloads = split_records(&self.payloads, &ends);
        let ptrs = self.storage.append_batch(&payloads)?;
        for ((record, payload), ptr) in records.iter().zip(payloads).zip(ptrs) {
            self.held.push(record, payload, ptr);
        }
        Ok(first_seq)
    }

    /// Flush persisted records to stable storage.
    pub(crate) fn sync(&mut self) -> CssResult<()> {
        self.storage.sync()
    }

    /// The chain head covering the whole shard log.
    pub(crate) fn head(&self) -> [u8; 32] {
        self.held.head
    }

    /// The shard's mark as it stands: its record count and head.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            count: self.held.links.len() as u64,
            head: self.held.head,
        }
    }

    /// Re-derive every chain link from the bytes on storage, in one
    /// sequential pass, and compare it with the digest noted when the
    /// record was taken in. A frame that no longer passes its CRC is a
    /// storage error; one that passes but chains to another digest — a
    /// payload rewritten with its checksum repaired — is a broken
    /// chain, as is a log holding other records than were taken in.
    /// Either way `head()` is left as it was.
    pub(crate) fn verify(&self) -> CssResult<()> {
        let broken =
            |seq| CssError::Crypto(ChainVerifyError::HashMismatch { seq: seq as u64 }.to_string());
        let mut prev = HashChain::new().head();
        let mut checked = 0;
        self.storage.scan(|ptr, payload| {
            let digest = chain_step(&prev, checked as u64, payload);
            let link = Link {
                digest,
                ptr,
                len: payload.len() as u32,
            };
            if self.held.links.get(checked) != Some(&link) {
                return Err(broken(checked));
            }
            prev = digest;
            checked += 1;
            Ok(())
        })?;
        if checked < self.held.links.len() {
            return Err(broken(checked));
        }
        Ok(())
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.held.links.len()
    }

    /// Run an inquiry over the shard, in log order, reading every
    /// record it answers from storage. A query naming a data subject
    /// walks that person's posting list — one read and one decode per
    /// record about them — and applies the remaining dimensions; any
    /// other query is a decoding scan of the whole shard.
    pub(crate) fn query(&self, q: &AuditQuery) -> CssResult<Vec<AuditRecord>> {
        let mut out = Vec::new();
        let mut take = |record: AuditRecord| {
            if q.matches(&record) {
                out.push(record);
            }
        };
        match q.subject() {
            Some(person) => {
                for &position in self.held.by_person.get(&person).into_iter().flatten() {
                    let link = &self.held.links[position as usize];
                    take(decode(
                        &self.storage.read_sized(link.ptr, link.len as usize)?,
                    )?);
                }
            }
            None => self.storage.scan(|_, payload| {
                take(decode(payload)?);
                Ok(())
            })?,
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AuditAction;
    use css_storage::{FileBackend, MemBackend};
    use css_types::{ActorId, GlobalEventId, PersonId, Timestamp};

    fn rec(i: u64) -> AuditRecord {
        AuditRecord::new(Timestamp(i * 10), ActorId(i % 3 + 1), AuditAction::Publish)
            .event(GlobalEventId(i))
    }

    fn open<B: LogBackend>(backend: B) -> CssResult<ShardLog<B>> {
        ShardLog::open(backend, Arc::new(AtomicU64::new(0)), None, &mut Vec::new())
    }

    #[test]
    fn append_assigns_sequence() {
        let mut log = open(MemBackend::new()).unwrap();
        assert_eq!(log.append(rec(0)).unwrap(), 0);
        assert_eq!(log.append(rec(1)).unwrap(), 1);
        assert_eq!(log.query(&AuditQuery::new()).unwrap()[1].seq, 1);
        log.verify().unwrap();
    }

    #[test]
    fn head_changes_with_each_append() {
        let mut log = open(MemBackend::new()).unwrap();
        let h0 = log.head();
        log.append(rec(0)).unwrap();
        let h1 = log.head();
        log.append(rec(1)).unwrap();
        assert_ne!(h0, h1);
        assert_ne!(h1, log.head());
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let mut sequential = open(MemBackend::new()).unwrap();
        for i in 0..6 {
            sequential.append(rec(i)).unwrap();
        }
        let mut batched = open(MemBackend::new()).unwrap();
        batched.append(rec(0)).unwrap();
        let first = batched.append_batch((1..6).map(rec)).unwrap();
        assert_eq!(first, 1);
        assert_eq!(batched.len(), 6);
        assert_eq!(batched.head(), sequential.head());
        batched.verify().unwrap();
        // Reopen replays batched frames exactly like sequential ones.
        let reopened = open(batched.storage.into_backend()).unwrap();
        assert_eq!(reopened.len(), 6);
        assert_eq!(reopened.head(), sequential.head());
        assert_eq!(reopened.query(&AuditQuery::new()).unwrap()[4].seq, 4);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut log = open(MemBackend::new()).unwrap();
        log.append(rec(0)).unwrap();
        let head = log.head();
        assert_eq!(log.append_batch(std::iter::empty()).unwrap(), 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.head(), head);
    }

    #[test]
    fn persisted_log_reloads_and_verifies() {
        let mut log = open(MemBackend::new()).unwrap();
        for i in 0..10 {
            log.append(rec(i)).unwrap();
        }
        let head = log.head();
        let reopened = open(log.storage.into_backend()).unwrap();
        assert_eq!(reopened.len(), 10);
        assert_eq!(reopened.head(), head);
        // The plane's counter resumes past the highest recovered seq.
        assert_eq!(reopened.sequencer.load(Ordering::Acquire), 10);
    }

    #[test]
    fn non_increasing_sequence_rejected_at_open() {
        let mut log = open(MemBackend::new()).unwrap();
        log.append(rec(0)).unwrap();
        log.sequencer.store(0, Ordering::Release);
        log.append(rec(1)).unwrap();
        assert!(open(log.storage.into_backend()).is_err());
    }

    #[test]
    fn tampered_persistence_detected_at_open() {
        let dir = std::env::temp_dir().join(format!("css-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = open(FileBackend::open(&path).unwrap()).unwrap();
            for i in 0..5 {
                log.append(rec(i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Tamper: flip a payload byte of the first record (a frame is
        // magic, len (4), crc (4), payload). Its CRC no longer holds,
        // and it is not the last record, so it is no torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9 + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(open(FileBackend::open(&path).unwrap()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A memory backend whose bytes the test still reaches while a
    /// log owns it — what an attacker with the disk has.
    #[derive(Clone, Default)]
    struct SharedBackend(Arc<parking_lot::Mutex<Vec<u8>>>);

    impl LogBackend for SharedBackend {
        fn append(&mut self, data: &[u8]) -> CssResult<u64> {
            let mut bytes = self.0.lock();
            let at = bytes.len() as u64;
            bytes.extend_from_slice(data);
            Ok(at)
        }
        fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
            let bytes = self.0.lock();
            bytes
                .get(offset as usize..offset as usize + len)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| CssError::Storage("read past end".into()))
        }
        fn len(&self) -> u64 {
            self.0.lock().len() as u64
        }
        fn sync(&mut self) -> CssResult<()> {
            Ok(())
        }
        fn truncate(&mut self, len: u64) -> CssResult<()> {
            self.0.lock().truncate(len as usize);
            Ok(())
        }
    }

    #[test]
    fn verify_reads_the_stored_bytes_of_a_live_log() {
        let backend = SharedBackend::default();
        let mut log = open(backend.clone()).unwrap();
        log.append(rec(0)).unwrap();
        log.append_batch((1..5).map(rec)).unwrap();
        log.verify().unwrap();
        let head = log.head();
        // Rewrite one byte of record 2's payload in place, under the
        // running process. Frame: magic, len (4), crc (4), payload.
        let at = log.held.links[2].ptr.0 as usize;
        let payload_len = {
            let mut bytes = backend.0.lock();
            bytes[at + 9 + 3] ^= 0x01;
            u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize
        };
        // The frame checksum notices that much ...
        assert!(matches!(log.verify(), Err(CssError::Storage(_))));
        // ... and once it is repaired, only the chain does: the digest
        // noted at append no longer derives from what is stored.
        {
            let mut bytes = backend.0.lock();
            let crc = css_storage::crc::crc32(&bytes[at + 9..at + 9 + payload_len]);
            bytes[at + 5..at + 9].copy_from_slice(&crc.to_le_bytes());
        }
        match log.verify() {
            Err(CssError::Crypto(why)) => assert_eq!(why, "hash chain broken at link 2"),
            other => panic!("a rewritten payload verified: {other:?}"),
        }
        assert_eq!(log.head(), head);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn open_reads_the_log_once_and_that_read_is_the_verification() {
        let mut log = open(MemBackend::new()).unwrap();
        log.append(rec(0)).unwrap();
        log.append_batch((1..40).map(rec)).unwrap();
        let mark = log.mark();
        let stored = log.storage.byte_len();
        let bytes = log
            .storage
            .into_backend()
            .read_at(0, stored as usize)
            .unwrap();
        let registry = css_telemetry::MetricsRegistry::new();
        let read = || registry.snapshot().counter("storage.read_bytes");
        let reopen = |mark| {
            let mut backend = MemBackend::new();
            backend.append(&bytes).unwrap();
            let backend = css_storage::InstrumentedBackend::new(backend, &registry);
            ShardLog::open(
                backend,
                Arc::new(AtomicU64::new(0)),
                Some(mark),
                &mut Vec::new(),
            )
        };
        // Recovery (every frame's CRC, the torn tail), replay and the
        // check against the mark are one sequential pass: each record is
        // decoded and chained from the bytes the pass has just checked,
        // and nothing after that re-reads or re-hashes them.
        let reopened = reopen(mark).unwrap();
        assert_eq!(read(), stored);
        assert_eq!(reopened.mark(), mark);
        // A mark the stored bytes do not chain to fails that same pass,
        // and so does one beyond them.
        let elsewhere = Mark {
            head: [0x5A; 32],
            ..mark
        };
        assert!(matches!(reopen(elsewhere), Err(CssError::Crypto(_))));
        let ahead = Mark {
            count: mark.count + 1,
            ..mark
        };
        assert!(matches!(reopen(ahead), Err(CssError::Storage(_))));
        assert_eq!(read(), 3 * stored);
        // Verifying a live log is the one pass that reads them again.
        reopen(mark).unwrap().verify().unwrap();
        assert_eq!(read(), 5 * stored);
    }

    #[test]
    fn query_filters_records() {
        let mut log = open(MemBackend::new()).unwrap();
        for i in 0..9 {
            log.append(rec(i)).unwrap();
        }
        let q = AuditQuery::new().actor(ActorId(1));
        assert_eq!(log.query(&q).unwrap().len(), 3);
        assert_eq!(log.query(&AuditQuery::new()).unwrap().len(), 9);
    }

    /// What a query answers is read off storage: a person's records one
    /// sized read apiece, anything else one scan; and it is what was
    /// appended.
    #[test]
    fn queries_read_the_records_they_answer_from_storage() {
        let registry = css_telemetry::MetricsRegistry::new();
        let mut log = open(css_storage::InstrumentedBackend::new(
            MemBackend::new(),
            &registry,
        ))
        .unwrap();
        let mut appended = Vec::new();
        for i in 0..12 {
            let mut record = rec(i).person(PersonId(i % 3));
            record.seq = log.append(record.clone()).unwrap();
            appended.push(record);
        }
        let reads = || registry.snapshot().histogram("storage.read").unwrap().count;
        let before = reads();
        let about_one = log.query(&AuditQuery::new().person(PersonId(1))).unwrap();
        assert_eq!(reads() - before, 4);
        let expected: Vec<_> = appended
            .iter()
            .filter(|r| r.person == Some(PersonId(1)))
            .cloned()
            .collect();
        assert_eq!(about_one, expected);
        let before = reads();
        assert_eq!(log.query(&AuditQuery::new()).unwrap(), appended);
        assert_eq!(reads() - before, 1);
    }

    /// A shard written before the binary form holds XML payloads: it
    /// opens, chains, verifies, takes binary appends and answers
    /// queries over both, before and after another reopen.
    #[test]
    fn a_log_of_xml_payloads_opens_appends_and_reads_alike() {
        let backend = SharedBackend::default();
        let mut legacy = RecordLog::new(backend.clone());
        let mut chain = HashChain::new();
        let mut appended = Vec::new();
        for i in 0..3 {
            let mut record = rec(i).with_detail("a \"quoted\" <detail> & more");
            record.seq = i;
            let mut text = String::new();
            record.encode(&mut css_xml::StreamSink::new(&mut text));
            legacy.append(text.as_bytes()).unwrap();
            chain.append(text.into_bytes());
            appended.push(record);
        }
        let mut log = open(backend.clone()).unwrap();
        assert_eq!(log.head(), chain.head());
        log.verify().unwrap();
        for i in 3..6 {
            let mut record = rec(i);
            record.seq = log.append(record.clone()).unwrap();
            appended.push(record);
        }
        assert_eq!(log.query(&AuditQuery::new()).unwrap(), appended);
        let head = log.head();
        drop(log);
        let reopened = open(backend.clone()).unwrap();
        assert_eq!(reopened.head(), head);
        reopened.verify().unwrap();
        assert_eq!(reopened.query(&AuditQuery::new()).unwrap(), appended);
        // The first three payloads are text, the last three binary.
        let bytes = backend.0.lock().clone();
        let firsts: Vec<u8> = reopened
            .held
            .links
            .iter()
            .map(|link| bytes[link.ptr.0 as usize + 9])
            .collect();
        assert_eq!(firsts, [b'<', b'<', b'<', 1, 1, 1]);
    }
}
