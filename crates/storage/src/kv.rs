//! A keyed store over the record log.
//!
//! Every mutation is appended to the log (`put` / `delete` records); an
//! in-memory index maps live keys to the log offset of their latest
//! value. Opening a store replays the log to rebuild the index, which
//! is the crash-recovery story: anything appended (and synced) before a
//! crash is recovered, a torn final append is dropped.

use std::collections::HashMap;

use crate::backend::LogBackend;
use crate::log::{split_records, RecordLog, RecordPtr};

use css_types::{CssError, CssResult};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Where a live key's latest record sits and how long its payload
/// is: with the length known, a `get` is one backend read (header and
/// payload together) instead of a header read that learns it first.
#[derive(Clone, Copy)]
struct Slot {
    ptr: RecordPtr,
    payload_len: u32,
}

impl Slot {
    /// The slot of a `payload_len`-byte record stored at `ptr`. Record
    /// lengths are `u32` on disk, so the cast keeps what the frame
    /// header holds.
    fn of(ptr: RecordPtr, payload_len: usize) -> Self {
        Slot {
            ptr,
            payload_len: payload_len as u32,
        }
    }
}

/// Keyed store with log-structured persistence.
pub struct KvStore<B: LogBackend> {
    log: RecordLog<B>,
    index: HashMap<Vec<u8>, Slot>,
    /// The records of the mutation in progress, encoded back to back;
    /// kept between mutations, cleared before each.
    records: Vec<u8>,
}

impl<B: LogBackend> KvStore<B> {
    /// Open a store over a backend, replaying any existing log.
    ///
    /// Returns the store plus the number of torn-tail bytes dropped
    /// during recovery (0 on a clean open).
    pub fn open(backend: B) -> CssResult<(Self, u64)> {
        let mut index = HashMap::new();
        let (log, truncated) = RecordLog::recover(backend, |ptr, payload| {
            let (op, key, _) = decode(payload)?;
            match op {
                OP_PUT => {
                    index.insert(key.to_vec(), Slot::of(ptr, payload.len()));
                }
                OP_DELETE => {
                    index.remove(key);
                }
                other => {
                    return Err(CssError::Storage(format!("unknown kv opcode {other}")));
                }
            }
            Ok(())
        })?;
        Ok((
            KvStore {
                log,
                index,
                records: Vec::new(),
            },
            truncated,
        ))
    }

    /// Insert or replace a value.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> CssResult<()> {
        self.records.clear();
        encode_into(&mut self.records, OP_PUT, key, value);
        let ptr = self.log.append(&self.records)?;
        self.index
            .insert(key.to_vec(), Slot::of(ptr, self.records.len()));
        Ok(())
    }

    /// Insert or replace several values as one group commit.
    ///
    /// All records are framed into a single backend write (see
    /// [`RecordLog::append_batch`]); callers that need durability sync
    /// once at the batch boundary instead of once per key. Later pairs
    /// win when the batch repeats a key, matching sequential `put`s.
    pub fn put_batch(&mut self, pairs: &[(&[u8], &[u8])]) -> CssResult<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.records.clear();
        let mut ends = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            encode_into(&mut self.records, OP_PUT, key, value);
            ends.push(self.records.len());
        }
        let ptrs = self
            .log
            .append_batch(&split_records(&self.records, &ends))?;
        let mut start = 0;
        for (((key, _), ptr), end) in pairs.iter().zip(ptrs).zip(ends) {
            self.index.insert(key.to_vec(), Slot::of(ptr, end - start));
            start = end;
        }
        Ok(())
    }

    /// Fetch a value: the one buffer the record read produced, with
    /// what precedes the value in it dropped.
    pub fn get(&self, key: &[u8]) -> CssResult<Option<Vec<u8>>> {
        match self.index.get(key) {
            None => Ok(None),
            Some(slot) => {
                let mut record = self.log.read_sized(slot.ptr, slot.payload_len as usize)?;
                let (_, _, value) = decode(&record)?;
                let value_start = record.len() - value.len();
                record.drain(..value_start);
                Ok(Some(record))
            }
        }
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Remove a key. Returns whether it was present.
    pub fn delete(&mut self, key: &[u8]) -> CssResult<bool> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        self.records.clear();
        encode_into(&mut self.records, OP_DELETE, key, b"");
        self.log.append(&self.records)?;
        self.index.remove(key);
        Ok(true)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterate over live keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.index.keys().map(Vec::as_slice)
    }

    /// Flush the log to stable storage.
    pub fn sync(&mut self) -> CssResult<()> {
        self.log.sync()
    }

    /// Bytes currently occupied by the log (live + garbage).
    pub fn log_bytes(&self) -> u64 {
        self.log.byte_len()
    }
}

/// Append the record of one mutation to `out`.
fn encode_into(out: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8]) {
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Opcode, key and value of a record, borrowed from it.
fn decode(payload: &[u8]) -> CssResult<(u8, &[u8], &[u8])> {
    let err = || CssError::Storage("malformed kv record".into());
    if payload.len() < 9 {
        return Err(err());
    }
    let op = payload[0];
    let klen = crate::le_u32(&payload[1..5]).ok_or_else(err)? as usize;
    if payload.len() < 5 + klen + 4 {
        return Err(err());
    }
    let key = &payload[5..5 + klen];
    let vstart = 5 + klen + 4;
    let vlen = crate::le_u32(&payload[5 + klen..vstart]).ok_or_else(err)? as usize;
    if payload.len() != vstart + vlen {
        return Err(err());
    }
    Ok((op, key, &payload[vstart..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, MemBackend};

    fn mem() -> KvStore<MemBackend> {
        KvStore::open(MemBackend::new()).unwrap().0
    }

    #[test]
    fn put_get_delete() {
        let mut kv = mem();
        kv.put(b"k1", b"v1").unwrap();
        kv.put(b"k2", b"v2").unwrap();
        assert_eq!(kv.get(b"k1").unwrap().unwrap(), b"v1");
        assert_eq!(kv.len(), 2);
        assert!(kv.delete(b"k1").unwrap());
        assert!(!kv.delete(b"k1").unwrap());
        assert_eq!(kv.get(b"k1").unwrap(), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn get_is_one_backend_read_however_the_key_was_written() {
        let registry = css_telemetry::MetricsRegistry::new();
        let reads = || {
            registry
                .snapshot()
                .histogram("storage.read")
                .map_or(0, |h| h.count)
        };
        let open = |backend| {
            KvStore::open(crate::InstrumentedBackend::new(backend, &registry))
                .unwrap()
                .0
        };
        let mut kv = open(MemBackend::new());
        kv.put(b"put", b"one").unwrap();
        kv.put_batch(&[(b"batch-a", b"two"), (b"batch-b", b"")])
            .unwrap();
        kv.put(b"put", b"one, replaced by a longer value").unwrap();
        let expect = |kv: &KvStore<_>| {
            for (key, value) in [
                (&b"put"[..], &b"one, replaced by a longer value"[..]),
                (b"batch-a", b"two"),
                (b"batch-b", b""),
            ] {
                let before = reads();
                assert_eq!(kv.get(key).unwrap().unwrap(), value);
                assert_eq!(reads() - before, 1);
            }
        };
        expect(&kv);
        // The lengths are rebuilt by replay — one pass over the log, not
        // a read or two per record.
        let before = reads();
        let replayed = open(kv.log.into_backend().into_inner());
        assert_eq!(reads() - before, 1);
        expect(&replayed);
    }

    #[test]
    fn each_mutation_writes_exactly_its_own_record() {
        // The record buffer is kept between mutations: whatever came
        // before, a mutation adds frame header + its own record.
        let mut kv = mem();
        let record = |key: &[u8], value: &[u8]| (9 + 9 + key.len() + value.len()) as u64;
        let long = vec![7u8; 200];
        kv.put(b"long", &long).unwrap();
        let before = kv.log_bytes();
        kv.put(b"k", b"v").unwrap();
        assert_eq!(kv.log_bytes() - before, record(b"k", b"v"));
        let before = kv.log_bytes();
        kv.put_batch(&[(b"a", b"1"), (b"bb", b"")]).unwrap();
        assert_eq!(
            kv.log_bytes() - before,
            record(b"a", b"1") + record(b"bb", b"")
        );
        let before = kv.log_bytes();
        assert!(kv.delete(b"k").unwrap());
        assert_eq!(kv.log_bytes() - before, record(b"k", b""));
        let (replayed, torn) = KvStore::open(kv.log.into_backend()).unwrap();
        assert_eq!(torn, 0);
        for (key, value) in [
            (&b"long"[..], Some(&long[..])),
            (b"k", None),
            (b"a", Some(b"1")),
            (b"bb", Some(b"")),
        ] {
            assert_eq!(replayed.get(key).unwrap().as_deref(), value);
        }
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut kv = mem();
        kv.put(b"k", b"old").unwrap();
        kv.put(b"k", b"new").unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"new");
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn replay_rebuilds_index() {
        let mut kv = mem();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        kv.put(b"a", b"3").unwrap();
        kv.delete(b"b").unwrap();
        kv.put(b"c", b"4").unwrap();
        let backend = kv.log.into_backend();
        let (kv, torn) = KvStore::open(backend).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"3");
        assert_eq!(kv.get(b"b").unwrap(), None);
        assert_eq!(kv.get(b"c").unwrap().unwrap(), b"4");
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn torn_tail_dropped_on_open() {
        let mut kv = mem();
        kv.put(b"safe", b"value").unwrap();
        kv.put(b"torn", b"lost").unwrap();
        let mut backend = kv.log.into_backend();
        let len = LogBackend::len(&backend);
        backend.truncate(len - 3).unwrap();
        let (kv, torn) = KvStore::open(backend).unwrap();
        assert!(torn > 0);
        assert_eq!(kv.get(b"safe").unwrap().unwrap(), b"value");
        assert_eq!(kv.get(b"torn").unwrap(), None);
    }

    #[test]
    fn put_batch_matches_sequential_puts() {
        let mut seq = mem();
        seq.put(b"a", b"1").unwrap();
        seq.put(b"b", b"2").unwrap();
        seq.put(b"a", b"3").unwrap();
        let mut batched = mem();
        batched
            .put_batch(&[(b"a", b"1"), (b"b", b"2"), (b"a", b"3")])
            .unwrap();
        assert_eq!(batched.log_bytes(), seq.log_bytes());
        assert_eq!(batched.get(b"a").unwrap().unwrap(), b"3");
        assert_eq!(batched.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(batched.len(), 2);
        // Replay sees the same live set.
        let (reopened, torn) = KvStore::open(batched.log.into_backend()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(reopened.get(b"a").unwrap().unwrap(), b"3");
        assert_eq!(reopened.len(), 2);
    }

    #[test]
    fn file_backed_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("css-kv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kv.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut kv, _) = KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
            kv.put(b"detail:src-1", b"<BloodTest>...</BloodTest>")
                .unwrap();
            kv.sync().unwrap();
        }
        let (kv, torn) = KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            kv.get(b"detail:src-1").unwrap().unwrap(),
            b"<BloodTest>...</BloodTest>"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_keys_and_values_are_legal() {
        let mut kv = mem();
        kv.put(b"", b"empty key").unwrap();
        kv.put(b"empty value", b"").unwrap();
        assert_eq!(kv.get(b"").unwrap().unwrap(), b"empty key");
        assert_eq!(kv.get(b"empty value").unwrap().unwrap(), b"");
    }

    #[test]
    fn keys_iterates_live_set() {
        let mut kv = mem();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        kv.delete(b"a").unwrap();
        let keys: Vec<&[u8]> = kv.keys().collect();
        assert_eq!(keys, vec![b"b".as_slice()]);
    }
}
