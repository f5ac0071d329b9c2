//! The audit plane's anchor: a log of acknowledged high-water marks.
//!
//! A shard log's last record is also where a torn write ends, so on its
//! own the log cannot tell a crash mid-append from a record tampered
//! with or cut off. The anchor can: it holds, per shard, a **mark** — a
//! record count and the chain head at that count — captured under the
//! shard's lock once the write of those records has returned, and
//! appended after that lock is released. A mark may lag its shard's data
//! but never lead it (a write either happened, happened torn, or did not
//! happen; the data's write returned before the mark's began). At open
//! the highest count per shard wins, every record up to it must be whole
//! and chain to its head, and only bytes beyond it are a torn tail
//! (DESIGN §8).
//!
//! A mark is one record of [`RecordLog`]: the format byte `0x02`, the
//! shard (u32 LE), the count (u64 LE) and the head (32 bytes).

use std::collections::HashMap;

use css_storage::{LogBackend, RecordLog};
use css_types::{CssError, CssResult};

/// The format byte of an anchor record.
pub(crate) const ANCHOR_V1: u8 = 0x02;

const MARK_LEN: usize = 1 + 4 + 8 + 32;

/// One shard's acknowledged high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) count: u64,
    pub(crate) head: [u8; 32],
}

/// The anchor log of one plane.
pub(crate) struct Anchor<B: LogBackend> {
    log: RecordLog<B>,
    /// The record of the append in progress, kept between appends.
    record: Vec<u8>,
}

impl<B: LogBackend> Anchor<B> {
    /// Open the anchor on `backend`: the highest mark of each shard. A
    /// torn final mark is dropped — the one before it is behind, not
    /// wrong.
    pub(crate) fn open(backend: B) -> CssResult<(Self, HashMap<usize, Mark>)> {
        let mut marks: HashMap<usize, Mark> = HashMap::new();
        let (log, _) = RecordLog::recover(backend, |_, payload| {
            let (shard, mark) = decode(payload)?;
            let best = marks.entry(shard).or_insert(mark);
            if mark.count > best.count {
                *best = mark;
            }
            Ok(())
        })?;
        let anchor = Anchor {
            log,
            record: Vec::with_capacity(MARK_LEN),
        };
        Ok((anchor, marks))
    }

    /// Append `shard`'s mark.
    pub(crate) fn append(&mut self, shard: usize, mark: Mark) -> CssResult<()> {
        self.record.clear();
        self.record.push(ANCHOR_V1);
        self.record.extend_from_slice(&(shard as u32).to_le_bytes());
        self.record.extend_from_slice(&mark.count.to_le_bytes());
        self.record.extend_from_slice(&mark.head);
        self.log.append(&self.record)?;
        Ok(())
    }
}

fn decode(payload: &[u8]) -> CssResult<(usize, Mark)> {
    let malformed = || CssError::Storage("malformed audit anchor record".into());
    if payload.len() != MARK_LEN || payload[0] != ANCHOR_V1 {
        return Err(malformed());
    }
    let shard = u32::from_le_bytes(payload[1..5].try_into().map_err(|_| malformed())?);
    let count = u64::from_le_bytes(payload[5..13].try_into().map_err(|_| malformed())?);
    let head = payload[13..].try_into().map_err(|_| malformed())?;
    Ok((shard as usize, Mark { count, head }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_storage::MemBackend;

    fn mark(count: u64) -> Mark {
        Mark {
            count,
            head: [count as u8; 32],
        }
    }

    #[test]
    fn the_highest_mark_of_each_shard_wins() {
        let (mut anchor, marks) = Anchor::open(MemBackend::new()).unwrap();
        assert!(marks.is_empty());
        // Marks of concurrent commits may land out of order.
        for (shard, count) in [(0, 1), (1, 1), (0, 3), (0, 2), (1, 2)] {
            anchor.append(shard, mark(count)).unwrap();
        }
        let (_, marks) = Anchor::open(anchor.log.into_backend()).unwrap();
        assert_eq!(marks, HashMap::from([(0, mark(3)), (1, mark(2))]));
    }

    #[test]
    fn a_torn_final_mark_falls_back_to_the_one_before() {
        let (mut anchor, _) = Anchor::open(MemBackend::new()).unwrap();
        anchor.append(0, mark(1)).unwrap();
        anchor.append(0, mark(2)).unwrap();
        let mut backend = anchor.log.into_backend();
        backend.truncate(backend.len() - 7).unwrap();
        let (_, marks) = Anchor::open(backend).unwrap();
        assert_eq!(marks, HashMap::from([(0, mark(1))]));
    }

    #[test]
    fn a_record_of_another_form_is_refused() {
        let mut log = RecordLog::new(MemBackend::new());
        log.append(&[0x01; MARK_LEN]).unwrap();
        log.append(b"short").unwrap();
        assert!(Anchor::open(log.into_backend()).is_err());
    }
}
