//! The sharded audit plane.
//!
//! One audit log serializes every publish, inquiry, and detail request
//! behind a single lock — the same bottleneck the sharded events index
//! removes from the data plane. [`AuditShards`] partitions the log into
//! N shard-local logs, each behind its own mutex, routed by
//! the record's data subject (falling back to the acting party for
//! records without a person dimension). A publish group commit carries
//! one person, so the whole batch lands on one shard as a single
//! storage write — group-commit semantics survive sharding.
//!
//! Sequence numbers come from one shared [`AtomicU64`]: the global
//! order of the log is preserved (merge-sort by seq), each shard's
//! stream is strictly increasing, and the tamper-evident hash chain
//! still covers every shard — the combined head binds all shard heads.
//! A persisted plane carries an anchor (`audit-anchor.log`): after each
//! commit the shard's mark is appended to it, outside the shard's lock.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::Mutex;

use css_storage::LogBackend;
use css_types::{lock_order, CssError, CssResult};

use crate::anchor::Anchor;
use crate::log::ShardLog;
use crate::query::AuditQuery;
use crate::record::AuditRecord;
use crate::report::AuditReport;

/// N shard-local audit logs sharing one global sequence counter.
pub struct AuditShards<B: LogBackend> {
    shards: Vec<Mutex<ShardLog<B>>>,
    sequencer: Arc<AtomicU64>,
    /// The plane's anchor, when it has one: a leaf lock, taken with no
    /// shard held.
    anchor: Option<Mutex<Anchor<B>>>,
}

impl<B: LogBackend> AuditShards<B> {
    /// Open a plane without an anchor (see
    /// [`AuditShards::open_anchored`]): its chain is derived from what
    /// its backends hold, not checked against anything.
    pub fn open(backends: Vec<B>) -> CssResult<Self> {
        Ok(Self::open_anchored(backends, None)?.0)
    }

    /// Open the plane, one shard per backend: the shard count **is**
    /// `backends.len()` (a one-element vector is the unsharded log, a
    /// [`css_storage::MemBackend`] an in-memory one). Replays each
    /// shard — frame checksums, the record decoder, increasing seq —
    /// and advances the shared sequencer past the highest recovered
    /// seq. With an `anchor`, each shard must hold its mark's records
    /// whole, chaining to the mark's head; a shard holding records its
    /// mark does not cover yet (a directory written before the anchor,
    /// or a commit whose mark a crash cut off) is marked now.
    ///
    /// Returns the plane and its control journal: every policy and
    /// consent change record in global seq order, taken from the same
    /// one pass over each shard.
    pub fn open_anchored(
        backends: Vec<B>,
        anchor: Option<B>,
    ) -> CssResult<(Self, Vec<AuditRecord>)> {
        if backends.is_empty() {
            return Err(CssError::Invalid(
                "audit shards need at least one backend".into(),
            ));
        }
        let (mut anchor, marks) = match anchor {
            Some(backend) => {
                let (anchor, marks) = Anchor::open(backend)?;
                (Some(anchor), marks)
            }
            None => (None, Default::default()),
        };
        if let Some(beyond) = marks.keys().find(|&&shard| shard >= backends.len()) {
            return Err(CssError::Invalid(format!(
                "the audit anchor marks shard {beyond}, but {} shards were opened",
                backends.len()
            )));
        }
        let sequencer = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(backends.len());
        let mut journal = Vec::new();
        for (i, backend) in backends.into_iter().enumerate() {
            let mark = marks.get(&i).copied();
            let shard = ShardLog::open(backend, sequencer.clone(), mark, &mut journal)?;
            if let Some(anchor) = &mut anchor {
                if shard.mark().count > mark.map_or(0, |m| m.count) {
                    anchor.append(i, shard.mark())?;
                }
            }
            shards.push(Mutex::ranked("audit shard", lock_order::AUDIT_SHARD, shard));
        }
        journal.sort_by_key(|r| r.seq);
        let anchor = anchor.map(Mutex::new);
        Ok((
            AuditShards {
                shards,
                sequencer,
                anchor,
            },
            journal,
        ))
    }

    /// How many shards the plane runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a record routes to: by data subject when the record
    /// has a person dimension, by acting party otherwise.
    fn shard_of(&self, record: &AuditRecord) -> usize {
        let key = record
            .person
            .map(|p| p.value())
            .unwrap_or_else(|| record.actor.value());
        css_types::shard_of(key, self.shards.len())
    }

    /// Append one record to its shard. Returns the global seq.
    pub fn append(&self, record: AuditRecord) -> CssResult<u64> {
        self.write(self.shard_of(&record), |shard| shard.append(record))
    }

    /// Append one record and sync its shard before returning: the
    /// commit of a control change, which applies only once its record
    /// is on stable storage. Returns the global seq.
    ///
    /// A sync that fails leaves the record on its shard unacknowledged,
    /// as a crash between the sync and the reply would: the change is
    /// not applied now, and is at the next open if the record survived.
    pub fn commit(&self, record: AuditRecord) -> CssResult<u64> {
        self.write(self.shard_of(&record), |shard| {
            let seq = shard.append(record)?;
            shard.sync()?;
            Ok(seq)
        })
    }

    /// Append a batch as one group commit on the first record's shard
    /// (a publish batch carries a single data subject, so the routing
    /// key is the same for every record in it). Returns the first seq.
    pub fn append_batch(&self, records: Vec<AuditRecord>) -> CssResult<u64> {
        let Some(first) = records.first() else {
            return Ok(self.sequencer.load(std::sync::atomic::Ordering::Acquire));
        };
        self.write(self.shard_of(first), |shard| shard.append_batch(records))
    }

    /// Run `write` on shard `i` under its lock, then append the shard's
    /// mark to the anchor, if the plane has one: the mark is taken under
    /// the shard's lock once the write has returned, and written after
    /// that lock is released.
    fn write(
        &self,
        i: usize,
        write: impl FnOnce(&mut ShardLog<B>) -> CssResult<u64>,
    ) -> CssResult<u64> {
        let (seq, mark) = {
            let mut shard = self.shards[i].lock();
            (write(&mut shard)?, shard.mark())
        };
        if let Some(anchor) = &self.anchor {
            anchor.lock().append(i, mark)?;
        }
        Ok(seq)
    }

    /// Run an inquiry across every shard, merged into global seq order.
    ///
    /// A query naming a data subject costs O(records about them): each
    /// shard answers from that person's posting list, one storage read
    /// per record (every shard is asked, since a plane reopened at
    /// another shard count keeps old records where they were written).
    /// Any other query is a decoding scan of every shard. Either way a
    /// shard's records are read under its mutex, and an acknowledged
    /// record that no longer reads back — an I/O error, a frame that
    /// fails its checksum or its decoder — fails the inquiry.
    pub fn query(&self, q: &AuditQuery) -> CssResult<Vec<AuditRecord>> {
        let mut out: Vec<AuditRecord> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(shard.query(q)?);
        }
        out.sort_by_key(|r| r.seq);
        Ok(out)
    }

    /// Aggregate report over the records matching `q`, all shards.
    pub fn report(&self, q: &AuditQuery) -> CssResult<AuditReport> {
        Ok(AuditReport::from_records(self.query(q)?.iter()))
    }

    /// Every record, merged into global seq order.
    pub fn records(&self) -> CssResult<Vec<AuditRecord>> {
        self.query(&AuditQuery::new())
    }

    /// The digest pinning the whole plane's state — hand it to an
    /// external auditor. With one shard this is that shard's chain head
    /// (a plain [`css_crypto::HashChain`] over the payloads); with
    /// several it is the hash over the concatenated shard heads, so any
    /// offline modification of any shard changes the combined head.
    /// Both values are pinned by auditors of existing deployments.
    pub fn head(&self) -> [u8; 32] {
        if self.shards.len() == 1 {
            return self.shards[0].lock().head();
        }
        let mut all = Vec::with_capacity(self.shards.len() * 32);
        for shard in &self.shards {
            all.extend_from_slice(&shard.lock().head());
        }
        css_crypto::sha256(&all)
    }

    /// Re-derive every chain link of every shard from the bytes its
    /// backend holds now and check it against the digest noted when
    /// the record was appended (or replayed).
    pub fn verify(&self) -> CssResult<()> {
        for shard in &self.shards {
            shard.lock().verify()?;
        }
        Ok(())
    }

    /// Total records across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records per shard — the balance picture an operator watches.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AuditAction;
    use css_storage::MemBackend;
    use css_types::{ActorId, PersonId, Timestamp};

    fn rec(i: u64, person: u64) -> AuditRecord {
        AuditRecord::new(Timestamp(i * 10), ActorId(i % 3 + 1), AuditAction::Publish)
            .person(PersonId(person))
    }

    fn plane(n: usize) -> AuditShards<MemBackend> {
        AuditShards::open((0..n).map(|_| MemBackend::new()).collect()).unwrap()
    }

    #[test]
    fn no_backends_is_an_error() {
        assert!(AuditShards::<MemBackend>::open(Vec::new()).is_err());
    }

    #[test]
    fn appends_route_by_person_and_merge_in_seq_order() {
        let shards = plane(4);
        for i in 0..32 {
            shards.append(rec(i, i)).unwrap();
        }
        assert_eq!(shards.len(), 32);
        // At least two shards got records (spread hash over 0..32).
        let busy = shards.shard_lens().iter().filter(|&&n| n > 0).count();
        assert!(busy >= 2, "expected spread, got {:?}", shards.shard_lens());
        // Merged view is densely seq-ordered.
        let merged = shards.records().unwrap();
        let seqs: Vec<u64> = merged.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..32).collect::<Vec<_>>());
        shards.verify().unwrap();
    }

    #[test]
    fn same_person_batch_lands_on_one_shard_contiguously() {
        let shards = plane(4);
        shards.append(rec(0, 1)).unwrap();
        let first = shards
            .append_batch((0..5).map(|i| rec(i, 7)).collect())
            .unwrap();
        assert_eq!(first, 1);
        let batch = shards
            .query(&AuditQuery::new().person(PersonId(7)))
            .unwrap();
        assert_eq!(batch.len(), 5);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn one_shard_head_is_the_hash_chain_over_the_payloads() {
        let shards = plane(1);
        let mut chain = css_crypto::HashChain::new();
        assert_eq!(shards.head(), chain.head());
        for i in 0..6 {
            let seq = shards.append(rec(i, i)).unwrap();
            let mut expected = rec(i, i);
            expected.seq = seq;
            let mut payload = Vec::new();
            expected.encode(&mut css_xml::BinarySink::new(
                &mut payload,
                crate::record::NAMES,
            ));
            chain.append(payload);
            assert_eq!(shards.head(), chain.head());
        }
    }

    #[test]
    fn multi_shard_head_detects_any_shard_change() {
        let a = plane(4);
        let b = plane(4);
        for i in 0..8 {
            a.append(rec(i, i)).unwrap();
            b.append(rec(i, i)).unwrap();
        }
        assert_eq!(a.head(), b.head());
        b.append(rec(99, 3)).unwrap();
        assert_ne!(a.head(), b.head());
    }

    #[test]
    fn empty_batch_allocates_nothing() {
        let shards = plane(2);
        shards.append(rec(0, 0)).unwrap();
        let head = shards.head();
        assert_eq!(shards.append_batch(Vec::new()).unwrap(), 1);
        assert_eq!((shards.len(), shards.head()), (1, head));
        assert_eq!(shards.append(rec(1, 1)).unwrap(), 1);
    }

    #[test]
    fn query_and_report_cover_every_shard() {
        let shards = plane(2);
        for i in 0..9 {
            shards.append(rec(i, i)).unwrap();
        }
        let hits = shards.query(&AuditQuery::new().actor(ActorId(1))).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(shards.report(&AuditQuery::new()).unwrap().total, 9);
    }
}
