//! One shard of the tamper-evident audit log.
//!
//! A record's bytes are held once, on its `css-storage` record log;
//! in memory the shard keeps the decoded record, the digest of its
//! chain link ([`css_crypto::chain_step`], the step of
//! [`css_crypto::HashChain`]) and where its frame lies.
//!
//! What open checks, in the one pass recovery makes over the log: every
//! frame's CRC, that every payload decodes, and that sequence numbers
//! increase. It *derives*
//! the chain from the bytes it finds, so the head it arrives at
//! vouches for nothing by itself — compare it with a head noted before
//! the restart (an anchor the log carries across restarts is ROADMAP
//! item 1). What [`ShardLog::verify`] checks: that the bytes on the
//! backend **now** still chain to the digests noted when each record
//! was taken in.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use css_crypto::{chain_step, ChainVerifyError, HashChain};
use css_storage::{split_records, LogBackend, RecordLog, RecordPtr};
use css_types::{CssError, CssResult, PersonId};
use css_xml::{Reader, StreamSink};

use crate::query::AuditQuery;
use crate::record::AuditRecord;

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
    /// The text of the append in progress, kept between appends.
    text: String,
}

/// What the shard holds in memory about the records on its storage.
///
/// `by_person` is the posting list of the citizen's view ("who touched
/// my data"): for each data subject, the positions in `records` of the
/// records about them, ascending. It is derived state — rebuilt by
/// replay at open, never persisted — and is written only by
/// [`Held::push`], the one place a record enters `records`.
struct Held {
    /// Per record, in log order: the digest of its chain link and the
    /// frame on storage the digest was derived from.
    links: Vec<([u8; 32], RecordPtr)>,
    /// The last link's digest; of the empty chain before the first.
    head: [u8; 32],
    records: Vec<AuditRecord>,
    by_person: HashMap<PersonId, Vec<u32>>,
}

impl Held {
    /// Take a record whose `payload` lies at `ptr` on storage (already,
    /// or as of this call): chain link, record vector, posting list.
    /// Append, group commit and replay all end here.
    fn push(&mut self, record: AuditRecord, payload: &[u8], ptr: RecordPtr) {
        self.head = chain_step(&self.head, self.links.len() as u64, payload);
        self.links.push((self.head, ptr));
        if let Some(person) = record.person {
            let position = u32::try_from(self.records.len())
                .expect("one in-memory audit shard holds fewer than 2^32 records");
            self.by_person.entry(person).or_default().push(position);
        }
        self.records.push(record);
    }
}

impl<B: LogBackend> ShardLog<B> {
    /// Open the shard log on `backend`, replaying existing records in
    /// one sequential pass: each is decoded and chained from the bytes
    /// the pass has just read. Recovery accepts the strictly-increasing
    /// (gappy) sequence a shard produces and advances `sequencer` past
    /// the highest recovered seq so restarts never reuse a number.
    ///
    /// Fails if any persisted record is corrupt (frame CRC), malformed
    /// or out of sequence.
    pub(crate) fn open(backend: B, sequencer: Arc<AtomicU64>) -> CssResult<Self> {
        let mut held = Held {
            links: Vec::new(),
            head: HashChain::new().head(),
            records: Vec::new(),
            by_person: HashMap::new(),
        };
        let (storage, _) = RecordLog::recover(backend, |ptr, payload| {
            let text = std::str::from_utf8(payload)
                .map_err(|e| CssError::Serialization(format!("audit record not UTF-8: {e}")))?;
            let record = AuditRecord::decode(&mut Reader::new(text))?;
            if let Some(prev) = held.records.last() {
                if record.seq <= prev.seq {
                    return Err(CssError::Storage(format!(
                        "audit shard sequence not increasing: {} after {}",
                        record.seq, prev.seq
                    )));
                }
            }
            sequencer.fetch_max(record.seq + 1, Ordering::AcqRel);
            held.push(record, payload, ptr);
            Ok(())
        })?;
        Ok(ShardLog {
            held,
            storage,
            sequencer,
            text: String::new(),
        })
    }

    /// Append a record, assigning its sequence number. Returns the seq.
    pub(crate) fn append(&mut self, mut record: AuditRecord) -> CssResult<u64> {
        record.seq = self.sequencer.fetch_add(1, Ordering::AcqRel);
        self.text.clear();
        record.encode(&mut StreamSink::new(&mut self.text));
        let ptr = self.storage.append(self.text.as_bytes())?;
        let seq = record.seq;
        self.held.push(record, self.text.as_bytes(), ptr);
        Ok(seq)
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
        // Every record streams into one buffer; a payload is the slice
        // between two record ends.
        self.text.clear();
        let mut ends = Vec::with_capacity(records.len());
        for (i, record) in records.iter_mut().enumerate() {
            record.seq = first_seq + i as u64;
            record.encode(&mut StreamSink::new(&mut self.text));
            ends.push(self.text.len());
        }
        let payloads = split_records(self.text.as_bytes(), &ends);
        let ptrs = self.storage.append_batch(&payloads)?;
        for ((record, payload), ptr) in records.into_iter().zip(payloads).zip(ptrs) {
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
            let link = chain_step(&prev, checked as u64, payload);
            if self.held.links.get(checked) != Some(&(link, ptr)) {
                return Err(broken(checked));
            }
            prev = link;
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
        self.held.records.len()
    }

    /// Run an inquiry over the shard, in log order. A query naming a
    /// data subject walks that person's posting list — O(records about
    /// them) — and applies the remaining dimensions; any other query
    /// scans the shard.
    pub(crate) fn query(&self, q: &AuditQuery) -> Vec<&AuditRecord> {
        let records = &self.held.records;
        match q.subject() {
            Some(person) => self
                .held
                .by_person
                .get(&person)
                .into_iter()
                .flatten()
                .map(|&position| &records[position as usize])
                .filter(|r| q.matches(r))
                .collect(),
            None => records.iter().filter(|r| q.matches(r)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AuditAction;
    use css_storage::{FileBackend, MemBackend};
    use css_types::{ActorId, GlobalEventId, Timestamp};

    fn rec(i: u64) -> AuditRecord {
        AuditRecord::new(Timestamp(i * 10), ActorId(i % 3 + 1), AuditAction::Publish)
            .event(GlobalEventId(i))
    }

    fn open<B: LogBackend>(backend: B) -> CssResult<ShardLog<B>> {
        ShardLog::open(backend, Arc::new(AtomicU64::new(0)))
    }

    #[test]
    fn append_assigns_sequence() {
        let mut log = open(MemBackend::new()).unwrap();
        assert_eq!(log.append(rec(0)).unwrap(), 0);
        assert_eq!(log.append(rec(1)).unwrap(), 1);
        assert_eq!(log.held.records[1].seq, 1);
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
        assert_eq!(reopened.held.records[4].seq, 4);
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
        // Tamper: change an actor id inside the file, keeping the CRC
        // valid is impossible, so recovery or parse will fail; flip a
        // payload byte that is part of the XML text.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes
            .windows(4)
            .position(|w| w == b"seq=")
            .expect("record text present");
        bytes[pos + 5] ^= 0x01;
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
        let (_, frame) = log.held.links[2];
        let at = frame.0 as usize;
        let payload_len = {
            let mut bytes = backend.0.lock();
            bytes[at + 9 + 20] ^= 0x01;
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
    fn open_reads_the_log_once_and_verify_once_more() {
        let mut log = open(MemBackend::new()).unwrap();
        log.append(rec(0)).unwrap();
        log.append_batch((1..40).map(rec)).unwrap();
        let head = log.head();
        let backend = log.storage.into_backend();
        let stored = backend.len();
        let registry = css_telemetry::MetricsRegistry::new();
        let read = || registry.snapshot().counter("storage.read_bytes");
        // Recovery (every frame's CRC, the torn tail) and replay are
        // one sequential pass: each record is decoded and chained from
        // the bytes the pass has just checked, and nothing after that
        // re-reads or re-hashes them.
        let reopened = open(css_storage::InstrumentedBackend::new(backend, &registry)).unwrap();
        assert_eq!(read(), stored);
        assert_eq!(reopened.head(), head);
        // Verification is the pass that reads the stored bytes again.
        reopened.verify().unwrap();
        assert_eq!(read(), 2 * stored);
    }

    #[test]
    fn query_filters_records() {
        let mut log = open(MemBackend::new()).unwrap();
        for i in 0..9 {
            log.append(rec(i)).unwrap();
        }
        let q = AuditQuery::new().actor(ActorId(1));
        assert_eq!(log.query(&q).len(), 3);
        assert_eq!(log.query(&AuditQuery::new()).len(), 9);
    }
}
