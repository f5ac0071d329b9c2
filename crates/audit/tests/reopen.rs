//! Reopening an audit plane through its one constructor, at shard
//! counts {1, 2, 8} regardless of host cores: length, head, merged
//! order and the next sequence number all survive a restart.

use css_audit::{AuditAction, AuditRecord, AuditShards};
use css_storage::FileBackend;
use css_types::{ActorId, GlobalEventId, PersonId, Timestamp};

fn rec(i: u64) -> AuditRecord {
    let base = AuditRecord::new(Timestamp(i * 10), ActorId(i % 5 + 1), AuditAction::Publish);
    // Every third record has no person dimension and routes by actor.
    if i.is_multiple_of(3) {
        base
    } else {
        base.person(PersonId(i % 11)).event(GlobalEventId(i))
    }
}

#[test]
fn plane_reopens_with_len_head_order_and_next_seq() {
    for n in [1usize, 2, 8] {
        let dir = std::env::temp_dir().join(format!("css-audit-reopen-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let backends = || -> Vec<FileBackend> {
            (0..n)
                .map(|i| FileBackend::open(dir.join(format!("audit-{i}.log"))).unwrap())
                .collect()
        };
        let (head, merged, lens) = {
            let plane = AuditShards::open(backends()).unwrap();
            for i in 0..30 {
                plane.append(rec(i)).unwrap();
            }
            // One group commit: a publish batch carries a single person.
            let batch = (30..40)
                .map(|i| rec(i).person(PersonId(7)))
                .collect::<Vec<_>>();
            assert_eq!(plane.append_batch(batch).unwrap(), 30);
            plane.sync().unwrap();
            (plane.head(), plane.records(), plane.shard_lens())
        };
        assert_eq!(lens.len(), n);
        let reopened = AuditShards::open(backends()).unwrap();
        assert_eq!(reopened.len(), 40, "{n} shards");
        assert_eq!(reopened.shard_lens(), lens, "{n} shards");
        assert_eq!(reopened.head(), head, "{n} shards");
        reopened.verify().unwrap();
        let seqs: Vec<u64> = reopened.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..40).collect::<Vec<_>>(), "{n} shards");
        assert_eq!(reopened.records(), merged, "{n} shards");
        assert_eq!(reopened.append(rec(40)).unwrap(), 40, "{n} shards");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
