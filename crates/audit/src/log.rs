//! One shard of the tamper-evident audit log.
//!
//! Records are appended to a [`css_crypto::HashChain`] and to a
//! `css-storage` record log. Reloading verifies the whole chain, so any
//! offline modification of the persisted log is detected at open time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use css_crypto::HashChain;
use css_storage::{split_records, LogBackend, RecordLog};
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
///
/// `by_person` is the posting list of the citizen's view ("who touched
/// my data"): for each data subject, the positions in `records` of the
/// records about them, ascending. It is derived state — rebuilt by
/// replay at open, never persisted — and is written only by
/// [`ShardLog::push`], the one place a record enters `records`.
pub(crate) struct ShardLog<B: LogBackend> {
    chain: HashChain,
    records: Vec<AuditRecord>,
    by_person: HashMap<PersonId, Vec<u32>>,
    storage: RecordLog<B>,
    sequencer: Arc<AtomicU64>,
}

impl<B: LogBackend> ShardLog<B> {
    /// Open the shard log on `backend`, replaying and verifying existing
    /// records. Recovery accepts the strictly-increasing (gappy)
    /// sequence a shard produces and advances `sequencer` past the
    /// highest recovered seq so restarts never reuse a number.
    ///
    /// Fails if any persisted record is malformed or if the rebuilt
    /// chain does not verify (evidence of offline tampering).
    pub(crate) fn open(backend: B, sequencer: Arc<AtomicU64>) -> CssResult<Self> {
        let (storage, outcome) = RecordLog::recover(backend)?;
        let mut log = ShardLog {
            chain: HashChain::new(),
            records: Vec::with_capacity(outcome.records.len()),
            by_person: HashMap::new(),
            storage,
            sequencer,
        };
        for ptr in &outcome.records {
            let payload = log.storage.read(*ptr)?;
            let text = std::str::from_utf8(&payload)
                .map_err(|e| CssError::Serialization(format!("audit record not UTF-8: {e}")))?;
            let record = AuditRecord::decode(&mut Reader::new(text))?;
            if let Some(prev) = log.records.last() {
                if record.seq <= prev.seq {
                    return Err(CssError::Storage(format!(
                        "audit shard sequence not increasing: {} after {}",
                        record.seq, prev.seq
                    )));
                }
            }
            log.sequencer.fetch_max(record.seq + 1, Ordering::AcqRel);
            log.push(record, payload);
        }
        log.verify()?;
        Ok(log)
    }

    /// Take a record whose `payload` is (already, or as of this call)
    /// on storage into the in-memory state: chain link, record vector,
    /// posting list. Append, group commit and replay all end here.
    fn push(&mut self, record: AuditRecord, payload: Vec<u8>) {
        self.chain.append(payload);
        if let Some(person) = record.person {
            let position = u32::try_from(self.records.len())
                .expect("one in-memory audit shard holds fewer than 2^32 records");
            self.by_person.entry(person).or_default().push(position);
        }
        self.records.push(record);
    }

    /// Append a record, assigning its sequence number. Returns the seq.
    pub(crate) fn append(&mut self, mut record: AuditRecord) -> CssResult<u64> {
        record.seq = self.sequencer.fetch_add(1, Ordering::AcqRel);
        let mut text = String::with_capacity(256);
        record.encode(&mut StreamSink::new(&mut text));
        let payload = text.into_bytes();
        self.storage.append(&payload)?;
        let seq = record.seq;
        self.push(record, payload);
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
        let mut text = String::with_capacity(256 * records.len());
        let mut ends = Vec::with_capacity(records.len());
        for (i, record) in records.iter_mut().enumerate() {
            record.seq = first_seq + i as u64;
            record.encode(&mut StreamSink::new(&mut text));
            ends.push(text.len());
        }
        let payloads = split_records(text.as_bytes(), &ends);
        self.storage.append_batch(&payloads)?;
        for (record, payload) in records.into_iter().zip(payloads) {
            self.push(record, payload.to_vec());
        }
        Ok(first_seq)
    }

    /// Flush persisted records to stable storage.
    pub(crate) fn sync(&mut self) -> CssResult<()> {
        self.storage.sync()
    }

    /// The chain head covering the whole shard log.
    pub(crate) fn head(&self) -> [u8; 32] {
        self.chain.head()
    }

    /// Re-derive and check every chain link.
    pub(crate) fn verify(&self) -> CssResult<()> {
        self.chain
            .verify()
            .map_err(|e| CssError::Crypto(e.to_string()))
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Run an inquiry over the shard, in log order. A query naming a
    /// data subject walks that person's posting list — O(records about
    /// them) — and applies the remaining dimensions; any other query
    /// scans the shard.
    pub(crate) fn query(&self, q: &AuditQuery) -> Vec<&AuditRecord> {
        match q.subject() {
            Some(person) => self
                .by_person
                .get(&person)
                .into_iter()
                .flatten()
                .map(|&position| &self.records[position as usize])
                .filter(|r| q.matches(r))
                .collect(),
            None => self.records.iter().filter(|r| q.matches(r)).collect(),
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
        assert_eq!(log.records[1].seq, 1);
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
        assert_eq!(reopened.records[4].seq, 4);
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
