//! Durability and failure-injection tests across the storage-backed
//! components: torn writes, restarts, offline sources, tampered logs.

use std::sync::Arc;

use css::prelude::*;
use css::storage::{FileBackend, KvStore, LogBackend, MemBackend};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("css-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kv_store_recovers_from_torn_write_mid_batch() {
    let dir = temp_dir("kv");
    let path = dir.join("kv.log");
    {
        let (mut kv, _) = KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
        for i in 0..100u32 {
            kv.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        kv.sync().unwrap();
    }
    // Simulate a crash mid-append: chop arbitrary tail bytes.
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);
    let (kv, torn) = KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
    assert!(torn > 0);
    // At most the last record is lost.
    assert!(kv.len() >= 99);
    assert_eq!(kv.get(b"k42").unwrap().unwrap(), b"v42");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn platform_survives_full_restart_cycle() {
    let dir = temp_dir("platform");
    let clock = SimClock::starting_at(Timestamp(1_000));
    let hospital_name = "Hospital";
    // Session 1: set up and publish.
    {
        let mut platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        let hospital = platform.register_organization(hospital_name).unwrap();
        let doctor = platform.register_organization("Doctor").unwrap();
        platform.join(hospital, Role::Producer).unwrap();
        platform.join(doctor, Role::Consumer).unwrap();
        let schema = EventSchema::new(EventTypeId::v1("visit"), "Visit", hospital)
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::optional("Notes", FieldKind::Text).sensitive());
        let producer = platform.producer(hospital).unwrap();
        producer.declare(&schema, None).unwrap();
        producer
            .policy_wizard(&EventTypeId::v1("visit"))
            .unwrap()
            .select_fields(["PatientId"])
            .unwrap()
            .grant_to([doctor])
            .unwrap()
            .for_purposes([Purpose::HealthcareTreatment])
            .labeled("p", "")
            .save()
            .unwrap();
        producer
            .publish(
                PersonIdentity {
                    id: PersonId(1),
                    fiscal_code: "X".into(),
                    name: "A".into(),
                    surname: "B".into(),
                },
                "visit",
                EventDetails::new(EventTypeId::v1("visit"))
                    .with("PatientId", FieldValue::Integer(1))
                    .with("Notes", FieldValue::Text("sensitive note".into())),
                clock.now(),
            )
            .unwrap();
        platform.verify_audit().unwrap();
    }
    // Session 2: a fresh platform over the same directory. Policies and
    // the audit log are durable; gateway details too.
    {
        let platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        platform.verify_audit().unwrap();
        let policies = platform.policy_repository().lock().load_all().unwrap();
        assert_eq!(policies.len(), 1);
        assert_eq!(policies[0].label, "p");
        // The gateway log from session 1 is still on disk and non-empty.
        let gateway_log = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("gateway-"));
        let entry = gateway_log.expect("gateway log persisted");
        assert!(entry.metadata().unwrap().len() > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_tampering_detected_on_reload() {
    let dir = temp_dir("audit");
    let clock = SimClock::starting_at(Timestamp(1_000));
    {
        let mut platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        let org = platform.register_organization("Org").unwrap();
        let org2 = platform.register_organization("Org2").unwrap();
        platform.join(org, Role::Consumer).unwrap();
        platform.join(org2, Role::Consumer).unwrap();
    }
    // Flip one byte inside the FIRST audit record's payload. (A flipped
    // final record is indistinguishable from a torn tail and is dropped
    // by design; anything earlier must fail loudly.)
    let audit_path = dir.join("audit.log");
    let mut bytes = std::fs::read(&audit_path).unwrap();
    let pos = bytes
        .windows(6)
        .position(|w| w == b"actor=")
        .expect("record text present");
    bytes[pos + 7] ^= 0x01;
    std::fs::write(&audit_path, &bytes).unwrap();
    // Reload must fail: either the CRC catches it or the hash chain does.
    let result = CssPlatform::on_disk(&dir, Arc::new(clock));
    assert!(result.is_err(), "tampered audit log must not load");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_log_scan_is_all_or_tail() {
    // Corruption strictly before the tail must fail loudly, never be
    // silently skipped.
    use css::storage::RecordLog;
    let mut log = RecordLog::new(MemBackend::new());
    log.append(b"first").unwrap();
    log.append(b"second").unwrap();
    log.append(b"third").unwrap();
    let backend = log.into_backend();
    let raw = backend.read_at(0, backend.len() as usize).unwrap();
    // Corrupt a byte inside "second" (safely inside the middle record).
    let pos = raw.windows(6).position(|w| w == b"second").unwrap();
    let mut tampered_bytes = raw.clone();
    tampered_bytes[pos] ^= 0xFF;
    let mut tampered = MemBackend::new();
    tampered.append(&tampered_bytes).unwrap();
    assert!(RecordLog::recover(tampered, |_, _| Ok(())).is_err());
}

#[test]
fn full_restart_preserves_events_policies_and_details() {
    let dir = temp_dir("restart");
    let clock = SimClock::starting_at(Timestamp(50_000));
    let schema_of = |hospital| {
        EventSchema::new(EventTypeId::v1("visit"), "Visit", hospital)
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
    };
    let anna = PersonIdentity {
        id: PersonId(5),
        fiscal_code: "ANNA".into(),
        name: "Anna".into(),
        surname: "Verdi".into(),
    };
    let pre_restart_event;
    // --- session 1: set up, publish one event -----------------------
    {
        let mut platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        let hospital = platform.register_organization("Hospital").unwrap();
        let doctor = platform.register_organization("Doctor").unwrap();
        platform.join(hospital, Role::Producer).unwrap();
        platform.join(doctor, Role::Consumer).unwrap();
        let producer = platform.producer(hospital).unwrap();
        producer.declare(&schema_of(hospital), None).unwrap();
        producer
            .policy_wizard(&EventTypeId::v1("visit"))
            .unwrap()
            .select_all_fields()
            .grant_to([doctor])
            .unwrap()
            .for_purposes([Purpose::HealthcareTreatment])
            .labeled("doctor", "")
            .save()
            .unwrap();
        let receipt = producer
            .publish(
                anna.clone(),
                "first visit",
                EventDetails::new(EventTypeId::v1("visit"))
                    .with("PatientId", FieldValue::Integer(5))
                    .with("Notes", FieldValue::Text("pre-restart note".into())),
                clock.now(),
            )
            .unwrap();
        pre_restart_event = receipt.global_id;
    }
    // --- session 2: fresh process over the same directory ----------
    {
        let mut platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        // Operators re-register the same org structure (same order →
        // same ids) and re-declare schemas.
        let hospital = platform.register_organization("Hospital").unwrap();
        let doctor = platform.register_organization("Doctor").unwrap();
        platform.join(hospital, Role::Producer).unwrap();
        platform.join(doctor, Role::Consumer).unwrap();
        let producer = platform.producer(hospital).unwrap();
        producer.declare(&schema_of(hospital), None).unwrap();
        // Policies come back from the certified repository.
        assert_eq!(platform.reload_policies().unwrap(), 1);

        let consumer = platform.consumer(doctor).unwrap();
        // The pre-restart event is still in the (recovered) index...
        let found = consumer.inquire_by_person(anna.id).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].global_id, pre_restart_event);
        assert_eq!(found[0].person.fiscal_code, "ANNA");
        // ...and its details are still retrievable from the gateway.
        let resp = consumer
            .request_details(&found[0], Purpose::HealthcareTreatment)
            .unwrap();
        assert_eq!(
            resp.details.get("Notes").unwrap(),
            &FieldValue::Text("pre-restart note".into())
        );
        // New publishes don't collide with recovered ids.
        let receipt = producer
            .publish(
                anna.clone(),
                "post-restart visit",
                EventDetails::new(EventTypeId::v1("visit"))
                    .with("PatientId", FieldValue::Integer(5)),
                clock.now(),
            )
            .unwrap();
        assert!(receipt.global_id.value() > pre_restart_event.value());
        assert_eq!(consumer.inquire_by_person(anna.id).unwrap().len(), 2);
        platform.verify_audit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk-backed platform with `orgs` joined organisations — one audit
/// record each, spread over the shards by actor id.
fn joined_platform(
    dir: &std::path::Path,
    shards: Option<usize>,
    orgs: usize,
) -> CssResult<CssPlatform<css::core::DirProvider>> {
    let mut builder = CssPlatform::builder()
        .provider(css::core::DirProvider::new(dir)?)
        .clock(Arc::new(SimClock::starting_at(Timestamp(1_000))));
    if let Some(n) = shards {
        builder = builder.shards(n);
    }
    let mut platform = builder.build()?;
    for i in 0..orgs {
        let org = platform.register_organization(&format!("Org {i}"))?;
        platform.join(org, Role::Consumer)?;
    }
    Ok(platform)
}

/// The shard count of an existing deployment is a property of its data:
/// asking for fewer shards than were written fails the build instead of
/// loading a quarter of the audit log and verifying it; not asking
/// adopts the written count whatever the host's core count; growing
/// keeps every record. Holds with the count recorded (`shards.log`) and
/// for data older than the record (the log removed).
#[test]
fn shard_count_follows_the_data() {
    for recorded in [true, false] {
        let dir = temp_dir(if recorded { "shards" } else { "shards-legacy" });
        let forget_record = || {
            if !recorded {
                std::fs::remove_file(dir.join("shards.log")).unwrap();
            }
        };
        let written = joined_platform(&dir, Some(4), 16).unwrap();
        assert_eq!(written.controller().audit_len(), 16);
        let head = written.controller().audit_head();
        drop(written);
        forget_record();

        // 4 → 1: refused, naming both numbers.
        match joined_platform(&dir, Some(1), 0).map(|_| ()) {
            Err(CssError::Invalid(msg)) => {
                assert!(msg.contains('1') && msg.contains('4'), "{msg}")
            }
            other => panic!("4 → 1 must be refused, got {other:?}"),
        }
        forget_record();

        // 4 → default: the written count is adopted.
        let adopted = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(adopted.shard_count(), 4);
        assert_eq!(adopted.controller().audit_len(), 16);
        assert_eq!(adopted.controller().audit_head(), head);
        adopted.verify_audit().unwrap();
        drop(adopted);
        forget_record();

        // 4 → 6: growing serves every record through the wider plane.
        let grown = joined_platform(&dir, Some(6), 0).unwrap();
        assert_eq!(grown.shard_count(), 6);
        assert_eq!(grown.controller().audit_len(), 16);
        grown.verify_audit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Data older than the record, lightly filled: routing by hash leaves
    // empty shards between full ones, and counting must not stop at them.
    for orgs in [1, 3, 6] {
        let dir = temp_dir(&format!("shards-sparse-{orgs}"));
        let written = joined_platform(&dir, Some(8), orgs).unwrap();
        let lens = written.controller().audit_shard_lens();
        let top = lens.iter().rposition(|&len| len > 0).unwrap() + 1;
        assert!(
            lens[..top].contains(&0),
            "no hole below the top shard: {lens:?}"
        );
        drop(written);
        std::fs::remove_file(dir.join("shards.log")).unwrap();
        match joined_platform(&dir, Some(1), 0) {
            Err(CssError::Invalid(msg)) => assert!(msg.contains(&top.to_string()), "{msg}"),
            Ok(all) if top == 1 => assert_eq!(all.controller().audit_len(), orgs),
            other => panic!("8 → 1 must be refused, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(dir.join("shards.log")).unwrap();
        let adopted = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(adopted.shard_count(), top);
        assert_eq!(adopted.controller().audit_len(), orgs);
        adopted.verify_audit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // n → default adopts n on any host (2 is this container's core
    // count, 5 is not).
    for n in [2, 5] {
        let dir = temp_dir(&format!("shards-{n}"));
        drop(joined_platform(&dir, Some(n), 8).unwrap());
        let reopened = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(reopened.shard_count(), n);
        assert_eq!(reopened.controller().audit_len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One fixed operation sequence over a disk-backed platform on a
/// simulated clock: every kind of record the three at-rest logs hold —
/// publishes with fan-out 0, 1 and 3, an inquiry that sets a new
/// `Notified` marker, a permit, two denials, a policy define + revoke,
/// a consent change and the refused publish after it, a citizen's
/// audit-trail view — with text that needs every XML escape.
fn drive_fixed_sequence(
    dir: &std::path::Path,
    shards: usize,
) -> CssPlatform<css::core::DirProvider> {
    use css::types::Duration;
    let clock = SimClock::starting_at(Timestamp(1_700_000_000_000));
    let tick = || clock.advance(Duration::millis(137));
    let mut platform = CssPlatform::builder()
        .provider(css::core::DirProvider::new(dir).unwrap())
        .clock(Arc::new(clock.clone()))
        .shards(shards)
        .build()
        .unwrap();
    let hospital = platform.register_organization("Hospital").unwrap();
    let clinic = platform.register_organization("Clinic").unwrap();
    let doctor = platform.register_organization("Family doctor").unwrap();
    let social = platform.register_organization("Social services").unwrap();
    let stats = platform.register_organization("Statistics office").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    for consumer in [clinic, doctor, social, stats] {
        platform.join(consumer, Role::Consumer).unwrap();
    }
    let visit = EventTypeId::v1("visit");
    let lab = EventTypeId::v1("lab-result");
    let producer = platform.producer(hospital).unwrap();
    producer
        .declare(
            &EventSchema::new(visit.clone(), "Visit", hospital)
                .field(FieldDef::required("PatientId", FieldKind::Integer))
                .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
                .field(FieldDef::optional("Score", FieldKind::Decimal))
                .field(FieldDef::optional("SeenAt", FieldKind::DateTime)),
            Some("health"),
        )
        .unwrap();
    producer
        .declare(
            &EventSchema::new(lab.clone(), "Lab result", hospital)
                .field(FieldDef::required("PatientId", FieldKind::Integer))
                .field(FieldDef::optional("Positive", FieldKind::Boolean).sensitive()),
            None,
        )
        .unwrap();
    tick();
    producer
        .policy_wizard(&visit)
        .unwrap()
        .select_fields(["PatientId", "Score", "SeenAt"])
        .unwrap()
        .grant_to([clinic, doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("carers' \"read\" <most> & more", "who treats may read")
        .save()
        .unwrap();
    let revocable = producer
        .policy_wizard(&visit)
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([social])
        .unwrap()
        .for_purposes([Purpose::SocialAssistance])
        .labeled("social", "")
        .save()
        .unwrap();
    producer
        .policy_wizard(&lab)
        .unwrap()
        .select_all_fields()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("lab", "")
        .save()
        .unwrap();
    tick();
    let subscriptions: Vec<_> = [clinic, doctor, social]
        .iter()
        .map(|&c| platform.consumer(c).unwrap().subscribe(&visit).unwrap())
        .collect();
    let person = |id: u64, name: &str| PersonIdentity {
        id: PersonId(id),
        fiscal_code: format!("FC{id:06}"),
        name: name.into(),
        surname: "O'Brien & <Sons>".into(),
    };
    // Fan-out 3, every escape in the description and in a field.
    let first = producer
        .publish(
            person(1, "Ada"),
            "check-up & <follow-up> \"soon\"",
            EventDetails::new(visit.clone())
                .with("PatientId", FieldValue::Integer(1))
                .with(
                    "Notes",
                    FieldValue::Text("said \"fine\" & left <early>".into()),
                )
                .with("Score", FieldValue::Decimal("13.50".parse().unwrap()))
                .with("SeenAt", FieldValue::DateTime(tick())),
            clock.now(),
        )
        .unwrap();
    assert_eq!(first.notified.len(), 3);
    tick();
    // Fan-out 0, an empty description, a blank field.
    let second = producer
        .publish(
            person(1, "Ada"),
            "",
            EventDetails::new(lab.clone())
                .with("PatientId", FieldValue::Integer(1))
                .with("Positive", FieldValue::Empty),
            clock.now(),
        )
        .unwrap();
    assert!(second.notified.is_empty());
    tick();
    // Social services lose their policy and their subscription: the
    // next visit fans out to two.
    producer.revoke_policy(revocable[0]).unwrap();
    let mut subscriptions = subscriptions.into_iter();
    let (clinic_sub, doctor_sub, social_sub) = (
        subscriptions.next().unwrap(),
        subscriptions.next().unwrap(),
        subscriptions.next().unwrap(),
    );
    drop(social_sub);
    tick();
    let third = producer
        .publish(
            person(2, "Bruno"),
            "visit",
            EventDetails::new(visit.clone()).with("PatientId", FieldValue::Integer(2)),
            clock.now(),
        )
        .unwrap();
    tick();
    let doctor_handle = platform.consumer(doctor).unwrap();
    // The doctor never subscribed to lab results: the inquiry returns
    // both of person 1's events and marks the second as notified.
    let found = doctor_handle.inquire_by_person(PersonId(1)).unwrap();
    assert_eq!(found.len(), 2);
    tick();
    doctor_handle
        .request_details(&found[0], Purpose::HealthcareTreatment)
        .unwrap();
    tick();
    assert!(doctor_handle
        .request_details(&found[0], Purpose::StatisticalAnalysis)
        .is_err());
    assert!(platform
        .consumer(stats)
        .unwrap()
        .request_details_by_id(visit.clone(), third.global_id, Purpose::StatisticalAnalysis)
        .is_err());
    tick();
    platform
        .citizen(PersonId(2))
        .opt_out(ConsentScope::EventType(visit.clone()))
        .unwrap();
    assert!(producer
        .publish(
            person(2, "Bruno"),
            "refused",
            EventDetails::new(visit.clone()).with("PatientId", FieldValue::Integer(2)),
            clock.now(),
        )
        .is_err());
    tick();
    assert!(!platform
        .citizen(PersonId(1))
        .who_accessed_my_data()
        .unwrap()
        .is_empty());
    drop((clinic_sub, doctor_sub));
    platform
}

/// The files of a deployment directory that hold at-rest records, by
/// name, with their bytes.
fn at_rest_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(name, _)| {
            ["audit", "events-index", "gateway-", "policies"]
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .map(|(name, path)| (name, std::fs::read(path).unwrap()))
        // Opening probes for shards beyond the count and leaves their
        // empty files behind; the fixture holds no empty file.
        .filter(|(_, bytes)| !bytes.is_empty())
        .collect()
}

const FIXTURE_AUDIT_LEN: usize = 29;
const FIXTURE_HEAD_1: &str = "e6eea79715dcaffa72ef1d660b2fa60d8abeab9d066182692a51a44e6474cbab";
const FIXTURE_HEAD_2: &str = "fdc560314b8eb3c98b4d8ec5ea6628e2cafb10f1567a698b531eea79e891aa72";

/// "Same bytes" held still: `tests/fixtures/at-rest-{1,2}` are the
/// directories [`drive_fixed_sequence`] wrote at commit 2347129 (the
/// last one whose write paths built `Element` trees and whose CRC went
/// a byte a step), at 1 and 2 shards. Today's code must read them to
/// the same state, and must write the same bytes for the same sequence.
#[test]
fn at_rest_bytes_match_the_committed_fixture() {
    for (shards, audit_len, head) in [
        (1, FIXTURE_AUDIT_LEN, FIXTURE_HEAD_1),
        (2, FIXTURE_AUDIT_LEN, FIXTURE_HEAD_2),
    ] {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/at-rest-{shards}"));
        let expected = at_rest_files(&fixture);
        assert!(expected.len() >= 4, "fixture incomplete: {expected:?}");

        // Reading: a copy of the fixture reopens to the recorded state.
        let copy = temp_dir(&format!("fixture-copy-{shards}"));
        for entry in std::fs::read_dir(&fixture).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let reopened = CssPlatform::builder()
            .provider(css::core::DirProvider::new(&copy).unwrap())
            .clock(Arc::new(SimClock::starting_at(Timestamp(1))))
            .build()
            .unwrap();
        assert_eq!(reopened.shard_count(), shards);
        assert_eq!(reopened.controller().audit_len(), audit_len);
        assert_eq!(reopened.controller().index_len(), 3);
        assert_eq!(
            css::crypto::to_hex(&reopened.controller().audit_head()),
            head
        );
        reopened.verify_audit().unwrap();
        drop(reopened);

        // Writing: the same sequence on a fresh directory.
        let fresh = temp_dir(&format!("fixture-fresh-{shards}"));
        let written = drive_fixed_sequence(&fresh, shards);
        assert_eq!(written.controller().audit_len(), audit_len);
        assert_eq!(
            css::crypto::to_hex(&written.controller().audit_head()),
            head
        );
        drop(written);
        let actual = at_rest_files(&fresh);
        assert_eq!(
            actual.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &expected {
            assert!(
                actual[name] == *bytes,
                "{name} differs from the fixture at {shards} shard(s):\n{}\nvs\n{}",
                String::from_utf8_lossy(&actual[name]),
                String::from_utf8_lossy(bytes)
            );
        }
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_dir_all(&fresh);
    }
}

/// "Same structs" held still: every audit record and every detail
/// message of the committed fixtures decodes to the same value off the
/// stored text as off the tree parsed from it — the two forms of the
/// one decoder each type has. (The index log's record types are private
/// to css-controller; its unit tests make the same comparison.)
#[test]
fn fixture_records_decode_alike_from_stream_and_tree() {
    use css::audit::AuditRecord;
    use css::event::{DetailDecoder, DetailMessage};
    use css::storage::RecordLog;
    use css::xml::{parse, Reader};

    let hospital = ActorId(1);
    let schemas = [
        EventSchema::new(EventTypeId::v1("visit"), "Visit", hospital)
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
            .field(FieldDef::optional("Score", FieldKind::Decimal))
            .field(FieldDef::optional("SeenAt", FieldKind::DateTime)),
        EventSchema::new(EventTypeId::v1("lab-result"), "Lab result", hospital)
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::optional("Positive", FieldKind::Boolean).sensitive()),
    ];
    let only_patient: std::collections::BTreeSet<String> = ["PatientId".to_string()].into();
    for shards in [1, 2] {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/at-rest-{shards}"));
        // Opening a log may truncate a torn tail: work on a copy.
        let copy = temp_dir(&format!("fixture-decode-{shards}"));
        let (mut audit_records, mut detail_messages) = (0, 0);
        for name in at_rest_files(&fixture).keys() {
            let path = copy.join(name);
            std::fs::copy(fixture.join(name), &path).unwrap();
            if name.starts_with("audit") {
                RecordLog::recover(FileBackend::open(&path).unwrap(), |_, payload| {
                    let text = std::str::from_utf8(payload).unwrap();
                    let streamed = AuditRecord::decode(&mut Reader::new(text)).unwrap();
                    assert_eq!(
                        streamed,
                        AuditRecord::from_xml(&parse(text).unwrap()).unwrap()
                    );
                    audit_records += 1;
                    Ok(())
                })
                .unwrap();
            } else if name.starts_with("gateway-") {
                let (store, _) = KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
                for key in store.keys() {
                    let value = store.get(key).unwrap().unwrap();
                    let text = std::str::from_utf8(&value).unwrap();
                    let open = || DetailDecoder::open(Reader::new(text)).unwrap();
                    let ty = open().stored_type().unwrap();
                    let schema = schemas.iter().find(|s| s.id.to_string() == ty).unwrap();
                    let names = schema.instance_names();
                    let from_tree = DetailMessage::from_xml(schema, &parse(text).unwrap()).unwrap();
                    assert_eq!(open().finish(schema, &names, |_| true).unwrap(), from_tree);
                    // Filtered in the decode or after it: the same details.
                    let filtered = open()
                        .finish(schema, &names, |f| only_patient.contains(f))
                        .unwrap();
                    assert_eq!(
                        filtered.details,
                        from_tree.details.filtered_to(&only_patient)
                    );
                    detail_messages += 1;
                }
            }
        }
        assert_eq!(audit_records, FIXTURE_AUDIT_LEN);
        assert_eq!(detail_messages, 4);
        let _ = std::fs::remove_dir_all(&copy);
    }
}
