//! A keyed store over the record log.
//!
//! Every put is appended to the log as one record; an in-memory index
//! maps each key to the log offset of its latest value. Opening a store
//! replays the log to rebuild the index, which is the crash-recovery
//! story: anything appended (and synced) before a crash is recovered, a
//! torn final append is dropped.

use std::collections::HashMap;

use crate::backend::LogBackend;
use crate::log::{RecordLog, RecordPtr};

use css_types::{CssError, CssResult};

const OP_PUT: u8 = 1;

/// Keyed store with log-structured persistence.
pub struct KvStore<B: LogBackend> {
    log: RecordLog<B>,
    /// Each key's latest record: where it sits and how long its payload
    /// is. With the length known, a `get` is one backend read (header
    /// and payload together) instead of a header read that learns it
    /// first.
    index: HashMap<Vec<u8>, (RecordPtr, usize)>,
    /// The records of the mutation in progress, encoded back to back;
    /// kept between mutations, cleared before each.
    records: Vec<u8>,
}

impl<B: LogBackend> KvStore<B> {
    /// Open a store over a backend, replaying any existing log. A
    /// record of any op but a put fails the open, naming the op.
    ///
    /// Returns the store plus the number of torn-tail bytes dropped
    /// during recovery (0 on a clean open).
    pub fn open(backend: B) -> CssResult<(Self, u64)> {
        let mut index = HashMap::new();
        let (log, truncated) = RecordLog::recover(backend, |ptr, payload| {
            let (op, key, _) = decode(payload)?;
            if op != OP_PUT {
                return Err(CssError::Storage(format!("unknown kv opcode {op}")));
            }
            index.insert(key.to_vec(), (ptr, payload.len()));
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
        self.index.insert(key.to_vec(), (ptr, self.records.len()));
        Ok(())
    }

    /// Fetch a value: the one buffer the record read produced, with
    /// what precedes the value in it dropped.
    pub fn get(&self, key: &[u8]) -> CssResult<Option<Vec<u8>>> {
        match self.index.get(key) {
            None => Ok(None),
            Some(&(ptr, payload_len)) => {
                let mut record = self.log.read_sized(ptr, payload_len)?;
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

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store has no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterate over the keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.index.keys().map(Vec::as_slice)
    }

    /// Flush the log to stable storage.
    pub fn sync(&mut self) -> CssResult<()> {
        self.log.sync()
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

    /// Put and get; a delete record, which no build writes any more,
    /// fails the open, naming its op.
    #[test]
    fn put_get_delete() {
        let mut kv = mem();
        kv.put(b"k1", b"v1").unwrap();
        kv.put(b"k2", b"v2").unwrap();
        assert_eq!(kv.get(b"k1").unwrap().unwrap(), b"v1");
        assert_eq!(kv.get(b"k3").unwrap(), None);
        assert_eq!(kv.len(), 2);
        let mut delete = Vec::new();
        encode_into(&mut delete, 2, b"k1", b"");
        kv.log.append(&delete).unwrap();
        match KvStore::open(kv.log.into_backend()).map(|_| ()) {
            Err(CssError::Storage(msg)) => assert_eq!(msg, "unknown kv opcode 2"),
            other => panic!("a delete record opened: {other:?}"),
        }
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
        kv.put(b"empty", b"").unwrap();
        kv.put(b"put", b"one, replaced by a longer value").unwrap();
        let expect = |kv: &KvStore<_>| {
            for (key, value) in [
                (&b"put"[..], &b"one, replaced by a longer value"[..]),
                (b"empty", b""),
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
        let before = kv.log.byte_len();
        kv.put(b"k", b"v").unwrap();
        assert_eq!(kv.log.byte_len() - before, record(b"k", b"v"));
        let before = kv.log.byte_len();
        kv.put(b"bb", b"").unwrap();
        assert_eq!(kv.log.byte_len() - before, record(b"bb", b""));
        let before = kv.log.byte_len();
        kv.put(b"k", b"").unwrap();
        assert_eq!(kv.log.byte_len() - before, record(b"k", b""));
        let (replayed, torn) = KvStore::open(kv.log.into_backend()).unwrap();
        assert_eq!(torn, 0);
        for (key, value) in [
            (&b"long"[..], Some(&long[..])),
            (b"k", Some(b"")),
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
        kv.put(b"c", b"4").unwrap();
        let backend = kv.log.into_backend();
        let (kv, torn) = KvStore::open(backend).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"3");
        assert_eq!(kv.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(kv.get(b"c").unwrap().unwrap(), b"4");
        assert_eq!(kv.len(), 3);
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
        kv.put(b"a", b"3").unwrap();
        let mut keys: Vec<&[u8]> = kv.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![b"a".as_slice(), b"b".as_slice()]);
    }
}
