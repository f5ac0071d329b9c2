//! Property: a log written with [`RecordLog::append_batch`] is
//! byte-identical to one written with per-record [`RecordLog::append`]
//! calls, so recovery replays both the same way — including after a
//! crash that tears the final batch.

use css_storage::{LogBackend, MemBackend, RecordLog};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary record payloads (sizes include empty records).
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..64usize), 1..20usize)
}

proptest! {
    #[test]
    fn batched_log_replays_like_sequential(
        records in payloads(),
        split in 0..100usize,
        tear in 0..32usize,
    ) {
        // Write the same records once record-at-a-time and once with an
        // append/append_batch mix (split picks the batch boundary).
        let mut sequential = RecordLog::new(MemBackend::new());
        for r in &records {
            sequential.append(r).unwrap();
        }
        let mut batched = RecordLog::new(MemBackend::new());
        let cut = split % records.len();
        for r in &records[..cut] {
            batched.append(r).unwrap();
        }
        let tail = &records[cut..];
        let ends: Vec<usize> = tail
            .iter()
            .scan(0, |end, r| {
                *end += r.len();
                Some(*end)
            })
            .collect();
        let mut ptrs = Vec::new();
        batched.append_batch(&tail.concat(), &ends, &mut ptrs).unwrap();
        prop_assert_eq!(ptrs.len(), tail.len());
        prop_assert_eq!(sequential.byte_len(), batched.byte_len());

        // Crash: tear an arbitrary number of bytes off both logs.
        let mut seq_backend = sequential.into_backend();
        let mut batch_backend = batched.into_backend();
        let tear = (tear as u64).min(seq_backend.len());
        seq_backend.truncate(seq_backend.len() - tear).unwrap();
        batch_backend.truncate(batch_backend.len() - tear).unwrap();

        let recover = |backend| {
            let mut visited = Vec::new();
            let (_, truncated) = RecordLog::recover(backend, |ptr, payload: &[u8]| {
                visited.push((ptr, payload.to_vec()));
                Ok(())
            })
            .unwrap();
            (visited, truncated)
        };
        prop_assert_eq!(recover(seq_backend), recover(batch_backend));
    }

}
