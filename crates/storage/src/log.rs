//! Append-only record log with checksums and torn-tail recovery.
//!
//! Record layout: `MAGIC (1) | len (4, LE) | crc32 (4, LE) | payload`.
//! The CRC covers the payload only; the magic byte catches gross
//! misalignment early.

use crate::backend::LogBackend;
use crate::crc::crc32;

use css_types::{CssError, CssResult};

const MAGIC: u8 = 0xC5;
const HEADER_LEN: usize = 9;

/// Stable pointer to a record inside the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr(pub u64);

/// An append-only log of checksummed records over a [`LogBackend`].
pub struct RecordLog<B: LogBackend> {
    backend: B,
    /// The frames of the append in progress, kept between appends so a
    /// warm log frames into memory it already owns. Cleared before
    /// each use: it never carries bytes from one append to the next.
    frames: Vec<u8>,
}

impl<B: LogBackend> RecordLog<B> {
    /// Wrap a backend **without** reading it. Use [`RecordLog::recover`]
    /// for logs that may contain existing data.
    pub fn new(backend: B) -> Self {
        RecordLog {
            backend,
            frames: Vec::new(),
        }
    }

    /// Open a log over a backend in one sequential pass: every intact
    /// record is checked (magic, length, checksum) and handed to
    /// `visit` with its pointer, in append order, so the caller
    /// rebuilds what it keeps in memory from the bytes the pass has
    /// just read. Returns the log and the bytes of torn tail dropped.
    ///
    /// A torn final record (e.g. after a crash mid-append) is truncated
    /// away; corruption *before* the tail is an error because silently
    /// dropping acknowledged records would violate durability. An error
    /// from `visit` stops the pass and is the pass's error.
    pub fn recover(
        backend: B,
        visit: impl FnMut(RecordPtr, &[u8]) -> CssResult<()>,
    ) -> CssResult<(Self, u64)> {
        Self::recover_anchored(backend, 0, visit)
    }

    /// [`RecordLog::recover`] over a log whose first `anchored` records
    /// were acknowledged: each of them must be whole, so only bytes
    /// beyond them count as a torn tail. A log holding fewer whole
    /// records is an error, and nothing is truncated.
    pub fn recover_anchored(
        mut backend: B,
        anchored: u64,
        mut visit: impl FnMut(RecordPtr, &[u8]) -> CssResult<()>,
    ) -> CssResult<(Self, u64)> {
        let total = backend.len();
        let mut whole = 0;
        let intact = walk(&backend, |ptr, payload| {
            whole += 1;
            visit(ptr, payload)
        })?;
        if whole < anchored {
            return Err(CssError::Storage(format!(
                "{whole} whole records where {anchored} were acknowledged (offset {intact})"
            )));
        }
        if intact < total {
            parking_lot::assert_write_guarded(&backend);
            backend.truncate(intact)?;
        }
        Ok((RecordLog::new(backend), total - intact))
    }

    /// Visit every record from the first, in append order, with its
    /// pointer and its payload: one sequential pass that reads the
    /// backend in large pieces and checks every frame (magic, length,
    /// checksum) before handing its payload over — for a caller that
    /// wants the whole of a live log (the audit chain's verification). A log that does not end on a whole record is an error
    /// here: [`RecordLog::recover`] is what forgives a torn tail.
    pub fn scan(&self, visit: impl FnMut(RecordPtr, &[u8]) -> CssResult<()>) -> CssResult<()> {
        let intact = walk(&self.backend, visit)?;
        if intact < self.backend.len() {
            return Err(CssError::Storage(format!(
                "corrupt record at offset {intact}"
            )));
        }
        Ok(())
    }

    /// Append a record, returning its pointer.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn append(&mut self, payload: &[u8]) -> CssResult<RecordPtr> {
        parking_lot::assert_write_guarded(self);
        self.frames.clear();
        frame_into(&mut self.frames, payload);
        let offset = self.backend.append(&self.frames)?;
        Ok(RecordPtr(offset))
    }

    /// Append several records as one group commit: all frames are
    /// buffered and handed to the backend in a single write, so the
    /// per-write overhead (and, for instrumented backends, the
    /// `storage.append` count) is paid once per batch instead of once
    /// per record.
    ///
    /// The on-disk format is byte-identical to the same sequence of
    /// [`RecordLog::append`] calls, so recovery replays a batched log
    /// exactly like a per-record one; a crash mid-batch leaves a torn
    /// tail that truncates back to the last complete record.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn append_batch(&mut self, payloads: &[&[u8]]) -> CssResult<Vec<RecordPtr>> {
        parking_lot::assert_write_guarded(self);
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        self.frames.clear();
        // Offsets within the batch first, moved to where the batch
        // landed once the backend has said where that is.
        let mut ptrs = Vec::with_capacity(payloads.len());
        for payload in payloads {
            ptrs.push(RecordPtr(self.frames.len() as u64));
            frame_into(&mut self.frames, payload);
        }
        let base = self.backend.append(&self.frames)?;
        for ptr in &mut ptrs {
            ptr.0 += base;
        }
        Ok(ptrs)
    }

    /// Read the record at `ptr` whose payload the caller knows to be
    /// `payload_len` bytes, with **one** backend read: header and
    /// payload come back in one buffer, and magic, length field and
    /// checksum are all checked from it. A pointer or length that does
    /// not match what is stored is a `Storage` error, never a short or
    /// foreign payload.
    pub fn read_sized(&self, ptr: RecordPtr, payload_len: usize) -> CssResult<Vec<u8>> {
        let invalid = || CssError::Storage(format!("invalid record pointer {ptr:?}"));
        let mut frame = self
            .backend
            .read_at(ptr.0, HEADER_LEN + payload_len)
            .map_err(|_| invalid())?;
        if frame.len() != HEADER_LEN + payload_len || frame[0] != MAGIC {
            return Err(invalid());
        }
        let stored_len = crate::le_u32(&frame[1..5]).ok_or_else(invalid)? as usize;
        let stored_crc = crate::le_u32(&frame[5..9]).ok_or_else(invalid)?;
        if stored_len != payload_len {
            return Err(invalid());
        }
        frame.drain(..HEADER_LEN);
        if crc32(&frame) != stored_crc {
            return Err(CssError::Storage(format!("checksum mismatch at {ptr:?}")));
        }
        Ok(frame)
    }

    /// Flush to stable storage.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn sync(&mut self) -> CssResult<()> {
        parking_lot::assert_write_guarded(self);
        self.backend.sync()
    }

    /// Total bytes in the underlying backend.
    pub fn byte_len(&self) -> u64 {
        self.backend.len()
    }

    /// Consume the log and return the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

/// The payloads of records written back to back into one buffer, as
/// [`RecordLog::append_batch`] takes them: `ends[i]` is the offset at
/// which record `i` stops (and record `i + 1` starts).
pub fn split_records<'a>(buffer: &'a [u8], ends: &[usize]) -> Vec<&'a [u8]> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let payload = &buffer[start..end];
            start = end;
            payload
        })
        .collect()
}

/// How much of the backend a sequential pass reads at a time.
const WINDOW: usize = 256 * 1024;

/// Walk the frames of `backend` from offset 0, handing each intact
/// record to `visit`. Returns the offset at which the intact records
/// end: the backend's length, or where a torn tail starts — a header
/// or payload cut short by the end of the log, or a *final* record
/// whose checksum fails. A bad magic byte, or a bad checksum before
/// the final record, is corruption and an error.
fn walk<B: LogBackend>(
    backend: &B,
    mut visit: impl FnMut(RecordPtr, &[u8]) -> CssResult<()>,
) -> CssResult<u64> {
    let total = backend.len();
    // `window` holds the bytes of the log from `window_at` on.
    let (mut window, mut window_at) = (Vec::new(), 0u64);
    let mut pos = 0u64;
    while pos < total {
        let in_window = (pos - window_at) as usize;
        let Some(header) = window.get(in_window..in_window + HEADER_LEN) else {
            if total - pos < HEADER_LEN as u64 {
                break;
            }
            (window, window_at) = (read_window(backend, pos, HEADER_LEN)?, pos);
            continue;
        };
        if header[0] != MAGIC {
            return Err(CssError::Storage(format!(
                "bad record magic at offset {pos}"
            )));
        }
        let malformed = || CssError::Storage(format!("corrupt record at offset {pos}"));
        let len = crate::le_u32(&header[1..5]).ok_or_else(malformed)? as usize;
        let stored_crc = crate::le_u32(&header[5..9]).ok_or_else(malformed)?;
        let frame_len = HEADER_LEN + len;
        let Some(payload) = window.get(in_window + HEADER_LEN..in_window + frame_len) else {
            if total - pos < frame_len as u64 {
                break;
            }
            (window, window_at) = (read_window(backend, pos, frame_len)?, pos);
            continue;
        };
        if crc32(payload) != stored_crc {
            // A bad checksum on the *last* record is a torn write;
            // anywhere else it is corruption.
            if pos + frame_len as u64 == total {
                break;
            }
            return Err(malformed());
        }
        visit(RecordPtr(pos), payload)?;
        pos += frame_len as u64;
    }
    Ok(pos)
}

/// The bytes of `backend` from `pos` on: a window's worth, at least
/// `need` (the caller has checked the log holds that many), at most
/// what is left.
fn read_window<B: LogBackend>(backend: &B, pos: u64, need: usize) -> CssResult<Vec<u8>> {
    let left = backend.len() - pos;
    let window = backend.read_at(pos, need.max(WINDOW).min(left as usize))?;
    if window.len() < need {
        return Err(CssError::Storage(format!("short read at offset {pos}")));
    }
    Ok(window)
}

fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.push(MAGIC);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LogBackend, MemBackend};

    /// Recover `backend`, returning the log, the pointers the pass
    /// visited and the torn bytes it dropped — having checked that each
    /// visited payload is what a read of its pointer returns.
    fn recover<B: LogBackend>(backend: B) -> CssResult<(RecordLog<B>, Vec<RecordPtr>, u64)> {
        let mut visited = Vec::new();
        let (log, truncated) = RecordLog::recover(backend, |ptr, payload| {
            visited.push((ptr, payload.to_vec()));
            Ok(())
        })?;
        for (ptr, payload) in &visited {
            assert_eq!(&log.read_sized(*ptr, payload.len())?, payload);
        }
        let ptrs = visited.into_iter().map(|(ptr, _)| ptr).collect();
        Ok((log, ptrs, truncated))
    }

    #[test]
    fn append_read_roundtrip() {
        let mut log = RecordLog::new(MemBackend::new());
        let a = log.append(b"first").unwrap();
        let b = log.append(b"second record").unwrap();
        let c = log.append(b"").unwrap();
        assert_eq!(log.read_sized(a, 5).unwrap(), b"first");
        assert_eq!(log.read_sized(b, 13).unwrap(), b"second record");
        assert_eq!(log.read_sized(c, 0).unwrap(), b"");
    }

    #[test]
    fn recover_scans_all_records() {
        let mut log = RecordLog::new(MemBackend::new());
        for i in 0..20u32 {
            log.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        let backend = log.into_backend();
        let (log, records, truncated) = recover(backend).unwrap();
        assert_eq!(records.len(), 20);
        assert_eq!(truncated, 0);
        assert_eq!(log.read_sized(records[7], 5).unwrap(), b"rec-7");
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append(b"complete").unwrap();
        log.append(b"will be torn").unwrap();
        let mut backend = log.into_backend();
        // Chop 5 bytes off the final record to simulate a crash.
        let new_len = backend.len() - 5;
        backend.truncate(new_len).unwrap();
        let (log, records, truncated) = recover(backend).unwrap();
        assert_eq!(records.len(), 1);
        assert!(truncated > 0);
        assert_eq!(log.read_sized(records[0], 8).unwrap(), b"complete");
        // Log is usable after truncation.
        let mut log = log;
        let p = log.append(b"after recovery").unwrap();
        assert_eq!(log.read_sized(p, 14).unwrap(), b"after recovery");
    }

    #[test]
    fn recover_truncates_header_only_tail() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append(b"ok").unwrap();
        let mut backend = log.into_backend();
        backend.append(&[MAGIC, 9, 0]).unwrap(); // partial header
        let (_, records, truncated) = recover(backend).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(truncated, 3);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut log = RecordLog::new(MemBackend::new());
        let first = log.append(b"aaaa").unwrap();
        log.append(b"bbbb").unwrap();
        let backend = log.into_backend();
        // Flip a payload byte of the FIRST record.
        let raw = backend.read_at(0, backend.len() as usize).unwrap();
        let mut raw = raw;
        raw[(first.0 as usize) + HEADER_LEN] ^= 0xFF;
        let mut corrupted = MemBackend::new();
        corrupted.append(&raw).unwrap();
        assert!(recover(corrupted).is_err());
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut backend = MemBackend::new();
        backend.append(&[0x00; 32]).unwrap();
        assert!(recover(backend).is_err());
    }

    #[test]
    fn read_sized_checks_everything_from_the_one_buffer() {
        let mut log = RecordLog::new(MemBackend::new());
        let a = log.append(b"first").unwrap();
        let b = log.append(b"second!").unwrap();
        assert_eq!(log.read_sized(a, 5).unwrap(), b"first");
        assert_eq!(log.read_sized(b, 7).unwrap(), b"second!");
        // A length that disagrees with the header: shorter, longer but
        // in range, past the end of the log.
        for wrong in [4, 6, 70] {
            assert!(matches!(
                log.read_sized(a, wrong),
                Err(CssError::Storage(_))
            ));
        }
        // A pointer that is not a record start, or lies past the end.
        for bogus in [a.0 + 1, 1_000] {
            assert!(matches!(
                log.read_sized(RecordPtr(bogus), 5),
                Err(CssError::Storage(_))
            ));
        }
        // A flipped payload byte under a right pointer and length.
        let mut bytes = log.into_backend().read_at(0, 9 + 5 + 9 + 7).unwrap();
        bytes[9] ^= 0x01;
        let mut tampered = MemBackend::new();
        tampered.append(&bytes).unwrap();
        let log = RecordLog::new(tampered);
        assert!(matches!(log.read_sized(a, 5), Err(CssError::Storage(_))));
        assert_eq!(log.read_sized(b, 7).unwrap(), b"second!");
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let payloads: Vec<&[u8]> = vec![b"one", b"", b"three-three"];
        let mut sequential = RecordLog::new(MemBackend::new());
        let seq_ptrs: Vec<RecordPtr> = payloads
            .iter()
            .map(|p| sequential.append(p).unwrap())
            .collect();
        let mut batched = RecordLog::new(MemBackend::new());
        let batch_ptrs = batched.append_batch(&payloads).unwrap();
        assert_eq!(seq_ptrs, batch_ptrs);
        // Byte-identical logs → identical recovery.
        let seq_bytes = sequential.byte_len();
        assert_eq!(batched.byte_len(), seq_bytes);
        for (ptr, payload) in batch_ptrs.iter().zip(&payloads) {
            assert_eq!(&batched.read_sized(*ptr, payload.len()).unwrap(), payload);
        }
        let (_, records, _) = recover(batched.into_backend()).unwrap();
        assert_eq!(records, seq_ptrs);
    }

    #[test]
    fn each_append_writes_exactly_its_own_frames() {
        // The frame buffer is kept between appends: a short record
        // after a long one, a batch after a single append and a single
        // append after a batch must each add their own bytes only.
        let mut log = RecordLog::new(MemBackend::new());
        let long = vec![0xAB; 300];
        let mut ptrs = vec![log.append(&long).unwrap()];
        let before = log.byte_len();
        ptrs.push(log.append(b"s").unwrap());
        assert_eq!(log.byte_len() - before, (HEADER_LEN + 1) as u64);
        let before = log.byte_len();
        ptrs.extend(log.append_batch(&[b"b1", b"", b"b-three"]).unwrap());
        assert_eq!(log.byte_len() - before, (3 * HEADER_LEN + 2 + 7) as u64);
        let before = log.byte_len();
        ptrs.push(log.append(b"after").unwrap());
        assert_eq!(log.byte_len() - before, (HEADER_LEN + 5) as u64);
        let (log, records, truncated) = recover(log.into_backend()).unwrap();
        assert_eq!(records, ptrs);
        assert_eq!(truncated, 0);
        let expected: [&[u8]; 6] = [&long, b"s", b"b1", b"", b"b-three", b"after"];
        for (ptr, payload) in ptrs.iter().zip(expected) {
            assert_eq!(log.read_sized(*ptr, payload.len()).unwrap(), payload);
        }
    }

    #[test]
    fn scan_walks_windows_and_records_longer_than_one() {
        let registry = css_telemetry::MetricsRegistry::new();
        let mut log = RecordLog::new(crate::InstrumentedBackend::new(
            MemBackend::new(),
            &registry,
        ));
        // Three windows' worth of small records (some empty), then one
        // record longer than a window, then a small one.
        let mut written: Vec<(RecordPtr, Vec<u8>)> = Vec::new();
        let mut put = |log: &mut RecordLog<_>, payload: Vec<u8>| {
            written.push((log.append(&payload).unwrap(), payload));
        };
        let mut i = 0usize;
        while log.byte_len() < 3 * WINDOW as u64 {
            put(&mut log, vec![i as u8; i % 257]);
            i += 1;
        }
        put(&mut log, vec![0x5A; WINDOW + 1_000]);
        put(&mut log, b"last".to_vec());
        let reads = || registry.snapshot().histogram("storage.read").unwrap().count;
        let mut seen = 0;
        log.scan(|ptr, payload| {
            assert_eq!((ptr, payload), (written[seen].0, &written[seen].1[..]));
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, written.len());
        // A handful of window reads, not one or two per record.
        assert!(reads() < 12, "{} reads for {seen} records", reads());
        // Recovery walks the same way to the same pointers.
        let (log, records, truncated) = recover(log.into_backend()).unwrap();
        assert_eq!(truncated, 0);
        assert!(records.iter().eq(written.iter().map(|(ptr, _)| ptr)));
        // The visitor's error stops the pass and is the pass's error.
        let mut visited = 0;
        let stopped = log.scan(|_, _| {
            visited += 1;
            Err(CssError::Invalid("enough".into()))
        });
        assert!(matches!(stopped, Err(CssError::Invalid(_))));
        assert_eq!(visited, 1);
    }

    #[test]
    fn scan_refuses_what_recover_would_forgive_or_refuse() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append(b"whole").unwrap();
        let last = log.append(b"final record").unwrap();
        let mut backend = log.into_backend();
        // A torn tail: recover would truncate it, a scan of a live log
        // must not find one.
        backend.append(&[MAGIC, 3, 0, 0]).unwrap();
        let log = RecordLog::new(backend);
        let mut seen = 0;
        let torn = log.scan(|_, _| {
            seen += 1;
            Ok(())
        });
        assert!(matches!(torn, Err(CssError::Storage(_))));
        assert_eq!(seen, 2);
        // A payload byte of the final whole record flipped: its
        // checksum fails, and nothing of it is handed over.
        let mut bytes = log.into_backend().read_at(0, 9 + 5 + 9 + 12).unwrap();
        bytes[last.0 as usize + HEADER_LEN] ^= 0x01;
        let mut tampered = MemBackend::new();
        tampered.append(&bytes).unwrap();
        let mut payloads = Vec::new();
        let bad = RecordLog::new(tampered).scan(|_, payload| {
            payloads.push(payload.to_vec());
            Ok(())
        });
        assert!(matches!(bad, Err(CssError::Storage(_))));
        assert_eq!(payloads, [b"whole"]);
    }

    #[test]
    fn split_records_cuts_at_the_ends() {
        let payloads = split_records(b"onethree-three", &[3, 3, 14]);
        assert_eq!(payloads, vec![&b"one"[..], b"", b"three-three"]);
        assert!(split_records(b"", &[]).is_empty());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut log = RecordLog::new(MemBackend::new());
        assert!(log.append_batch(&[]).unwrap().is_empty());
        assert_eq!(log.byte_len(), 0);
    }

    #[test]
    fn torn_batch_tail_recovers_complete_prefix() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append(b"before").unwrap();
        log.append_batch(&[b"batch-a", b"batch-b", b"batch-c"])
            .unwrap();
        let mut backend = log.into_backend();
        // Crash mid-batch: tear into the last record of the batch.
        let new_len = backend.len() - 3;
        backend.truncate(new_len).unwrap();
        let (log, records, truncated) = recover(backend).unwrap();
        assert_eq!(records.len(), 3); // before, batch-a, batch-b
        assert!(truncated > 0);
        assert_eq!(log.read_sized(records[2], 7).unwrap(), b"batch-b");
    }

    /// Debug builds check every write against the locks the thread
    /// holds: through the guard of the value holding the log it passes,
    /// under any other guard it panics.
    #[cfg(debug_assertions)]
    mod write_discipline {
        use super::*;
        use parking_lot::Mutex;

        fn shard(class: &'static str, rank: u32) -> Mutex<RecordLog<MemBackend>> {
            Mutex::ranked(class, rank, RecordLog::new(MemBackend::new()))
        }

        #[test]
        fn a_write_through_the_guard_passes() {
            let audit = shard("audit shard", 70);
            let mut log = audit.lock();
            log.append(b"one").unwrap();
            log.append_batch(&[b"two", b"three"]).unwrap();
            log.sync().unwrap();
            drop(log);
            // And with nothing held at all.
            let mut free = RecordLog::new(MemBackend::new());
            free.append(b"free").unwrap();
        }

        /// A journal lock orders the writes made under it: held across a
        /// write to a log it does not hold, with that log's own guard
        /// taken inside it.
        #[test]
        fn a_write_under_a_journal_guard_passes() {
            let control = Mutex::journal("control", 15, ());
            let audit = shard("audit shard", 70);
            let _control = control.lock();
            let mut log = audit.lock();
            log.append(b"journaled").unwrap();
            log.sync().unwrap();
        }

        #[test]
        #[should_panic(expected = "is held, taken at")]
        fn a_write_under_a_foreign_guard_panics() {
            let registry = Mutex::new(0u64);
            let mut log = RecordLog::new(MemBackend::new());
            let _held = registry.lock();
            log.append(b"under another lock").unwrap();
        }

        #[test]
        #[should_panic(expected = "`index shard` (rank 50) is held")]
        fn a_write_under_a_guard_of_another_shard_plane_panics() {
            let index = shard("index shard", 50);
            let audit = shard("audit shard", 70);
            let _index = index.lock();
            audit.lock().append(b"audit under an index shard").unwrap();
        }
    }

    #[test]
    fn anchored_records_are_no_torn_tail() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append_batch(&[b"one", b"two", b"three"]).unwrap();
        let bytes = log.into_backend().read_at(0, 3 * HEADER_LEN + 11).unwrap();
        let backend = |bytes: &[u8]| {
            let mut backend = MemBackend::new();
            backend.append(bytes).unwrap();
            backend
        };
        let recovered = |bytes: &[u8], anchored| {
            RecordLog::recover_anchored(backend(bytes), anchored, |_, _| Ok(()))
                .map(|(log, torn)| (log.byte_len(), torn))
        };
        // The last record's checksum fails: forgiven beyond the anchor ...
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            recovered(&flipped, 2).unwrap(),
            (2 * HEADER_LEN as u64 + 6, 14)
        );
        // ... refused within it, cut short or cut off alike, and the
        // bytes are left as they were.
        assert!(recovered(&flipped, 3).is_err());
        assert!(recovered(&bytes[..bytes.len() - 2], 3).is_err());
        assert!(recovered(&bytes[..2 * HEADER_LEN + 6], 3).is_err());
        assert_eq!(recovered(&bytes, 3).unwrap(), (bytes.len() as u64, 0));
    }

    #[test]
    fn empty_log_recovers_clean() {
        let (log, records, truncated) = recover(MemBackend::new()).unwrap();
        assert!(records.is_empty());
        assert_eq!(truncated, 0);
        assert_eq!(log.byte_len(), 0);
    }
}
