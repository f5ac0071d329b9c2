//! Durability and failure-injection tests across the storage-backed
//! components: torn writes, restarts, offline sources, tampered logs.

use std::sync::Arc;

use css::audit::{AuditAction, AuditQuery};
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
        assert_eq!(platform.controller().policy_count(), 1);
        // The gateway log from session 1 is still on disk and non-empty.
        let gateway_log = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("gateway-"));
        let entry = gateway_log.expect("gateway log persisted");
        assert!(entry.metadata().unwrap().len() > 0);
    }
    let policies = stored_policies(&dir);
    assert_eq!(policies.len(), 1);
    assert_eq!(policies[0].label, "p");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every policy a closed deployment directory journals, ascending by
/// id: its `PolicyChange` records, a define's XACML and a revoke's id,
/// applied in seq order.
fn stored_policies(dir: &std::path::Path) -> Vec<PrivacyPolicy> {
    let platform = reopen(dir);
    let journal = platform
        .controller()
        .audit_query(&AuditQuery::new().action(AuditAction::PolicyChange))
        .unwrap();
    let mut policies = std::collections::BTreeMap::new();
    for record in journal {
        match record.detail.strip_prefix("revoked ") {
            Some(id) => {
                let id: css::types::PolicyId = id.parse().unwrap();
                policies.get_mut(&id).map(PrivacyPolicy::revoke).unwrap();
            }
            None => {
                let policy = css::policy::xacml::from_xacml_text(&record.detail).unwrap();
                policies.insert(policy.id, policy);
            }
        }
    }
    policies.into_values().collect()
}

/// The shard counts every audit-plane durability case runs at, whatever
/// the host's core count.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deployment directory of `shards` audit shards whose every record
/// was acknowledged: twelve joined organisations, one record each. Its
/// non-empty audit shard files, and the audit head it closed with.
fn acknowledged_audit(tag: &str, shards: usize) -> (std::path::PathBuf, Vec<String>, [u8; 32]) {
    let dir = temp_dir(&format!("{tag}-{shards}"));
    let platform = joined_platform(&dir, Some(shards), 12).unwrap();
    let head = platform.controller().audit_head();
    drop(platform);
    let files = (0..shards)
        .map(|i| match i {
            0 => "audit.log".to_string(),
            i => format!("audit-{i}.log"),
        })
        .filter(|name| std::fs::metadata(dir.join(name)).unwrap().len() > 0)
        .collect();
    (dir, files, head)
}

/// Where each frame of a record log starts (magic, length, CRC, payload).
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        at += 9 + u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
    }
    starts
}

/// A flipped byte in any acknowledged record — the first of a shard
/// file, or its last, which is where a torn write would end — fails the
/// reopen, at every shard count.
#[test]
fn audit_tampering_detected_on_reload() {
    for shards in SHARD_COUNTS {
        let (dir, files, _) = acknowledged_audit("audit", shards);
        assert!(!files.is_empty());
        for file in &files {
            let path = dir.join(file);
            let bytes = std::fs::read(&path).unwrap();
            for at in [9 + 2, bytes.len() - 1] {
                let mut tampered = bytes.clone();
                tampered[at] ^= 0x01;
                std::fs::write(&path, &tampered).unwrap();
                let result = joined_platform(&dir, None, 0);
                assert!(
                    result.is_err(),
                    "{shards} shards: tampered {file} at {at} must not load"
                );
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        let reopened = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(reopened.controller().audit_len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An acknowledged record cut off the end of a shard file is a lost
/// record, not a torn tail: the reopen fails.
#[test]
fn an_acknowledged_record_cut_off_fails_the_reopen() {
    for shards in SHARD_COUNTS {
        let (dir, files, _) = acknowledged_audit("cut-off", shards);
        let path = dir.join(&files[files.len() - 1]);
        let bytes = std::fs::read(&path).unwrap();
        let last = *frame_starts(&bytes).last().unwrap();
        std::fs::write(&path, &bytes[..last]).unwrap();
        assert!(
            joined_platform(&dir, None, 0).is_err(),
            "{shards} shards: a lost record must not load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An append beyond the last mark, cut mid-frame by a crash, is a torn
/// tail: the reopen truncates it and keeps every acknowledged record.
#[test]
fn a_torn_append_beyond_the_mark_is_truncated() {
    for shards in SHARD_COUNTS {
        let (dir, files, head) = acknowledged_audit("torn-append", shards);
        let path = dir.join(&files[0]);
        let bytes = std::fs::read(&path).unwrap();
        let first = frame_starts(&bytes).get(1).copied().unwrap_or(bytes.len());
        let mut torn = bytes.clone();
        torn.extend_from_slice(&bytes[..first / 2]);
        std::fs::write(&path, &torn).unwrap();
        let reopened = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(reopened.controller().audit_len(), 12, "{shards} shards");
        assert_eq!(reopened.controller().audit_head(), head, "{shards} shards");
        reopened.verify_audit().unwrap();
        drop(reopened);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{shards} shards");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn final anchor record reopens: the mark before it is behind the
/// data, and the data beyond it is whole.
#[test]
fn a_torn_final_anchor_record_reopens() {
    for shards in SHARD_COUNTS {
        let (dir, _, head) = acknowledged_audit("torn-anchor", shards);
        let path = dir.join("audit-anchor.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let reopened = joined_platform(&dir, None, 0).unwrap();
        assert_eq!(reopened.controller().audit_len(), 12, "{shards} shards");
        assert_eq!(reopened.controller().audit_head(), head, "{shards} shards");
        reopened.verify_audit().unwrap();
        drop(reopened);
        // The reopen marked that shard again, with the mark it lost.
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{shards} shards");
        let _ = std::fs::remove_dir_all(&dir);
    }
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

/// The hospital's wizard grant of visits to `consumer`, for treatment:
/// the id it minted.
fn grant_visits(
    platform: &CssPlatform<css::core::DirProvider>,
    hospital: ActorId,
    consumer: ActorId,
    label: &str,
) -> css::types::PolicyId {
    platform
        .producer(hospital)
        .unwrap()
        .policy_wizard(&visit_schema().id)
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([consumer])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled(label, "")
        .save()
        .unwrap()[0]
}

/// A revoke made at the controller is stored: after a reopen the
/// doctor's grant is still revoked, on disk and in the decision point.
#[test]
fn a_revoke_through_the_controller_stays_revoked_after_a_reopen() {
    let dir = temp_dir("controller-revoke");
    let visit = visit_schema().id;
    {
        let mut platform = reopen(&dir);
        let [hospital, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        let granted = grant_visits(&platform, hospital, doctor, "revocable");
        let controller = platform.controller();
        controller.revoke_policy(hospital, granted).unwrap();
        assert!(!controller.is_authorized_consumer(doctor, &visit));
    }
    let (platform, doctor) = reopen_as_operators(&dir);
    assert!(!platform.controller().is_authorized_consumer(doctor, &visit));
    drop(platform);
    let stored = stored_policies(&dir);
    assert_eq!(stored.len(), 1);
    assert!(stored[0].revoked);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A define made at the controller is stored: after a reopen it is in
/// force.
#[test]
fn a_define_through_the_controller_is_in_force_after_a_reopen() {
    let dir = temp_dir("controller-define");
    let visit = visit_schema().id;
    {
        let mut platform = reopen(&dir);
        let [hospital, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        let controller = platform.controller();
        let policy = PrivacyPolicy::new(
            controller.next_policy_id(),
            hospital,
            doctor,
            visit.clone(),
            [Purpose::HealthcareTreatment],
            ["PatientId".to_string()],
        );
        controller.define_policy(policy).unwrap();
    }
    let (platform, doctor) = reopen_as_operators(&dir);
    assert!(platform.controller().is_authorized_consumer(doctor, &visit));
    drop(platform);
    assert_eq!(stored_policies(&dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopened platform that never reloads its policies mints the next
/// policy id past every stored one, so its first grant is stored beside
/// the earlier grant instead of over it.
#[test]
fn a_reopened_platform_mints_policy_ids_past_the_stored_ones() {
    let dir = temp_dir("policy-ids");
    let first = {
        let mut platform = reopen(&dir);
        let [hospital, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        grant_visits(&platform, hospital, doctor, "first")
    };
    let before = stored_policies(&dir);
    let second = {
        let mut platform = reopen(&dir);
        let [hospital, clinic, _, _, _] = set_up_the_sequences_actors(&mut platform);
        grant_visits(&platform, hospital, clinic, "second")
    };
    assert!(second.value() > first.value(), "{second:?} after {first:?}");
    let after = stored_policies(&dir);
    assert_eq!(after.len(), 2);
    assert_eq!(after[0], before[0]);
    assert_eq!(after[1].label, "second");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A define refused for reusing a stored policy's id leaves the stored
/// record alone. The hospital's revoked grant stays revoked, and its live
/// grant keeps its producer, on disk and in the decision point after a
/// reopen.
#[test]
fn a_refused_define_leaves_the_stored_record_alone() {
    let dir = temp_dir("refused-define");
    let visit = visit_schema().id;
    let (revoked, live) = {
        let mut platform = reopen(&dir);
        let [hospital, clinic, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        let revoked = grant_visits(&platform, hospital, doctor, "revoked");
        platform
            .producer(hospital)
            .unwrap()
            .revoke_policy(revoked)
            .unwrap();
        let live = grant_visits(&platform, hospital, clinic, "live");
        let lab = platform.register_organization("Lab").unwrap();
        platform.join(lab, Role::Producer).unwrap();
        let urine = EventSchema::new(EventTypeId::v1("urine-test"), "Urine test", lab)
            .field(FieldDef::required("PatientId", FieldKind::Integer));
        platform
            .producer(lab)
            .unwrap()
            .declare(&urine, None)
            .unwrap();
        let controller = platform.controller();
        let audited = controller.audit_len();
        for (id, producer, class) in [(revoked, hospital, &visit), (live, lab, &urine.id)] {
            let reused = PrivacyPolicy::new(
                id,
                producer,
                doctor,
                class.clone(),
                [Purpose::HealthcareTreatment],
                ["PatientId".to_string()],
            );
            let refused = controller.define_policy(reused);
            assert!(
                matches!(refused, Err(CssError::AlreadyExists(_))),
                "{refused:?}"
            );
        }
        assert_eq!(controller.audit_len(), audited);
        (revoked, live)
    };
    let stored = stored_policies(&dir);
    assert_eq!(stored.len(), 2);
    assert_eq!(
        (stored[0].id, stored[0].label.as_str(), stored[0].revoked),
        (revoked, "revoked", true)
    );
    assert_eq!(
        (
            stored[1].id,
            stored[1].producer,
            stored[1].event_type.clone()
        ),
        (live, ActorId(1), visit.clone())
    );
    assert!(!stored[1].revoked);
    let (platform, doctor) = reopen_as_operators(&dir);
    assert!(!platform.controller().is_authorized_consumer(doctor, &visit));
    drop(platform);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A define may name the largest policy id. It is stored, and the
/// directory reopens holding it: ids resume at the largest value instead
/// of overflowing past it.
#[test]
fn a_policy_with_the_largest_id_is_stored_and_reopens() {
    let dir = temp_dir("largest-policy-id");
    let visit = visit_schema().id;
    {
        let mut platform = reopen(&dir);
        let [hospital, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        let policy = PrivacyPolicy::new(
            css::types::PolicyId(u64::MAX),
            hospital,
            doctor,
            visit.clone(),
            [Purpose::HealthcareTreatment],
            ["PatientId".to_string()],
        );
        platform.controller().define_policy(policy).unwrap();
    }
    let (platform, doctor) = reopen_as_operators(&dir);
    assert_eq!(platform.controller().policy_count(), 1);
    assert!(platform.controller().is_authorized_consumer(doctor, &visit));
    drop(platform);
    assert_eq!(stored_policies(&dir)[0].id.value(), u64::MAX);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A citizen's opt-out is journaled: after a restart, with the actors
/// and classes set up again but no consent re-recorded, a publish about
/// that citizen is refused.
#[test]
fn an_opt_out_before_a_restart_refuses_a_publish_after_it() {
    let dir = temp_dir("opt-out");
    let visit = visit_schema().id;
    {
        let mut platform = reopen(&dir);
        set_up_the_sequences_actors(&mut platform);
        platform
            .citizen(PersonId(2))
            .opt_out(ConsentScope::EventType(visit.clone()))
            .unwrap();
    }
    let mut platform = reopen(&dir);
    let [hospital, ..] = set_up_the_sequences_actors(&mut platform);
    let producer = platform.producer(hospital).unwrap();
    let publish = |id: u64| {
        let person = PersonIdentity {
            id: PersonId(id),
            fiscal_code: format!("FC{id:06}"),
            name: "Bruno".into(),
            surname: "B".into(),
        };
        let details = EventDetails::new(visit.clone()).with("PatientId", FieldValue::Integer(2));
        producer.publish(person, "after the restart", details, Timestamp(2))
    };
    let refused = publish(2);
    assert!(
        matches!(refused, Err(CssError::ConsentWithheld(_))),
        "{refused:?}"
    );
    publish(3).unwrap();
    drop(platform);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Who may subscribe to which of the sequence's classes: a row per
/// consumer (clinic, doctor, social services, statistics office), a
/// column per class (visits, lab results).
fn authorisations(platform: &CssPlatform<css::core::DirProvider>) -> Vec<[bool; 2]> {
    let controller = platform.controller();
    (2..=5)
        .map(|consumer| {
            [visit_schema().id, lab_schema().id]
                .map(|class| controller.is_authorized_consumer(ActorId(consumer), &class))
        })
        .collect()
}

/// A reopened directory serves the policy and consent decisions it served
/// before it closed, with no `reload_policies` call and nothing
/// re-recorded, and mints policy ids past every journaled one.
#[test]
fn a_reopen_serves_the_same_decisions_without_a_reload() {
    for shards in [1, 2] {
        let dir = temp_dir(&format!("same-decisions-{shards}"));
        let written = drive_fixed_sequence(&dir, shards);
        let before = authorisations(&written);
        assert_eq!(
            before,
            [[true, false], [true, true], [false, false], [false, false]]
        );
        drop(written);
        let mut platform = reopen(&dir);
        let [hospital, ..] = set_up_the_sequences_actors(&mut platform);
        assert_eq!(authorisations(&platform), before, "{shards}");
        assert!(platform.controller().next_policy_id().value() > 4);
        // Person 2 opted out of visits in the sequence; person 1 did not.
        let producer = platform.producer(hospital).unwrap();
        let publish = |id: u64| {
            let person = PersonIdentity {
                id: PersonId(id),
                fiscal_code: format!("FC{id:06}"),
                name: "Ada".into(),
                surname: "B".into(),
            };
            let details = EventDetails::new(visit_schema().id)
                .with("PatientId", FieldValue::Integer(id as i64));
            producer.publish(person, "after the reopen", details, Timestamp(2))
        };
        assert!(matches!(publish(2), Err(CssError::ConsentWithheld(_))));
        publish(1).unwrap();
        drop(platform);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `policies.log` is not a store of a directory the journal wrote: a
/// grant planted in it, framed and checksummed as the policy store wrote
/// its records, authorises nothing after a reopen.
#[test]
fn a_grant_planted_in_the_policy_file_authorises_nothing() {
    let dir = temp_dir("planted-grant");
    let visit = visit_schema().id;
    let doctor = {
        let mut platform = reopen(&dir);
        let [hospital, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
        grant_visits(&platform, hospital, ActorId(2), "journaled");
        doctor
    };
    let planted = PrivacyPolicy::new(
        css::types::PolicyId(7),
        ActorId(1),
        doctor,
        visit.clone(),
        [Purpose::HealthcareTreatment],
        ["PatientId".to_string()],
    );
    let xacml = css::xml::to_string(&css::policy::xacml::to_xacml(&planted));
    let (mut file, _) =
        KvStore::open(FileBackend::open(dir.join("policies.log")).unwrap()).unwrap();
    file.put(b"policy:7", xacml.as_bytes()).unwrap();
    file.sync().unwrap();
    drop(file);
    let (platform, doctor) = reopen_as_operators(&dir);
    assert!(!platform.controller().is_authorized_consumer(doctor, &visit));
    assert_eq!(platform.controller().policy_count(), 1);
    drop(platform);
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
/// adopts the written count (`shards.log`) whatever the host's core
/// count; growing keeps every record; and data without the record is
/// refused, naming it.
#[test]
fn shard_count_follows_the_data() {
    let dir = temp_dir("shards");
    let written = joined_platform(&dir, Some(4), 16).unwrap();
    assert_eq!(written.controller().audit_len(), 16);
    let head = written.controller().audit_head();
    drop(written);

    // 4 → 1: refused, naming both numbers.
    match joined_platform(&dir, Some(1), 0).map(|_| ()) {
        Err(CssError::Invalid(msg)) => {
            assert!(msg.contains('1') && msg.contains('4'), "{msg}")
        }
        other => panic!("4 → 1 must be refused, got {other:?}"),
    }

    // 4 → default: the written count is adopted.
    let adopted = joined_platform(&dir, None, 0).unwrap();
    assert_eq!(adopted.shard_count(), 4);
    assert_eq!(adopted.controller().audit_len(), 16);
    assert_eq!(adopted.controller().audit_head(), head);
    adopted.verify_audit().unwrap();
    drop(adopted);

    // 4 → 6: growing serves every record through the wider plane.
    let grown = joined_platform(&dir, Some(6), 0).unwrap();
    assert_eq!(grown.shard_count(), 6);
    assert_eq!(grown.controller().audit_len(), 16);
    grown.verify_audit().unwrap();
    drop(grown);

    // Without the record the count is unknown: refused, not guessed.
    std::fs::remove_file(dir.join("shards.log")).unwrap();
    match joined_platform(&dir, None, 0).map(|_| ()) {
        Err(CssError::Storage(msg)) => assert!(msg.contains("shards.log"), "{msg}"),
        other => panic!("data without a shard record must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A directory written before the anchor and the record, lightly
    // filled: routing by hash leaves shard 0 empty below full shards, and
    // the data there is refused too, not taken for a fresh directory.
    let dir = temp_dir("shards-sparse");
    let written = joined_platform(&dir, Some(8), 1).unwrap();
    assert_eq!(written.controller().audit_shard_lens()[0], 0);
    drop(written);
    for record in ["shards.log", "audit-anchor.log"] {
        std::fs::remove_file(dir.join(record)).unwrap();
    }
    match joined_platform(&dir, None, 0).map(|_| ()) {
        Err(CssError::Storage(msg)) => assert!(msg.contains("shards.log"), "{msg}"),
        other => panic!("sparse data without a shard record must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

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

/// The two classes the fixed sequence declares; the hospital is actor 1.
fn visit_schema() -> EventSchema {
    EventSchema::new(EventTypeId::v1("visit"), "Visit", ActorId(1))
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
        .field(FieldDef::optional("Score", FieldKind::Decimal))
        .field(FieldDef::optional("SeenAt", FieldKind::DateTime))
}

fn lab_schema() -> EventSchema {
    EventSchema::new(EventTypeId::v1("lab-result"), "Lab result", ActorId(1))
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Positive", FieldKind::Boolean).sensitive())
}

/// What the operators of the fixed sequence set up, on the first run
/// and again after every restart (same order, same ids): the hospital,
/// the clinic, the family doctor, social services and the statistics
/// office, joined, and the hospital's two classes declared.
fn set_up_the_sequences_actors(platform: &mut CssPlatform<css::core::DirProvider>) -> [ActorId; 5] {
    let hospital = platform.register_organization("Hospital").unwrap();
    assert_eq!(hospital, ActorId(1), "the schemas name the hospital");
    let clinic = platform.register_organization("Clinic").unwrap();
    let doctor = platform.register_organization("Family doctor").unwrap();
    let social = platform.register_organization("Social services").unwrap();
    let stats = platform.register_organization("Statistics office").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    for consumer in [clinic, doctor, social, stats] {
        platform.join(consumer, Role::Consumer).unwrap();
    }
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&visit_schema(), Some("health")).unwrap();
    producer.declare(&lab_schema(), None).unwrap();
    [hospital, clinic, doctor, social, stats]
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
    let [hospital, clinic, doctor, social, stats] = set_up_the_sequences_actors(&mut platform);
    let (visit, lab) = (visit_schema().id, lab_schema().id);
    let producer = platform.producer(hospital).unwrap();
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
    // Social services lose their only policy, and with it their
    // subscription: the next visit fans out to two.
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
    assert_eq!(third.notified, [clinic, doctor]);
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

/// Records of the sequence in the fixtures written before the binary
/// form (`at-rest-1`, `at-rest-2`), and their chain heads at 1 and 2
/// shards.
const FIXTURE_AUDIT_LEN: usize = 29;
const FIXTURE_HEAD_1: &str = "e6eea79715dcaffa72ef1d660b2fa60d8abeab9d066182692a51a44e6474cbab";
const FIXTURE_HEAD_2: &str = "fdc560314b8eb3c98b4d8ec5ea6628e2cafb10f1567a698b531eea79e891aa72";

/// The same for the binary audit and index form, written since
/// revocation reaches the routing table: `at-rest-3`, `at-rest-4` and `at-rest-5`,
/// whose audit, index and policy files are alike (they differ in the
/// gateway's).
const BINARY_AUDIT_LEN: usize = 29;
const BINARY_HEAD_1: &str = "8a0d9cc59f3900a7d7ad682fa5d463e5a5c88c7a91c2bd831ca7ab4bae109b8d";
const BINARY_HEAD_2: &str = "dc20d11d4d1ba7bb7a88960164e823a024b4a90e29bc42260491bb74c3d545c9";

/// The same for `at-rest-6`, whose policy and consent changes are
/// journaled: a define's record carries the policy's XACML, a consent
/// change's its directive, and there is no `policies.log`.
const JOURNAL_AUDIT_LEN: usize = 29;
const JOURNAL_HEAD_1: &str = "702afbc86a4ec763b6920130628e4c0098ab0ea8a8783441ba3fa1cecfa00be1";
const JOURNAL_HEAD_2: &str = "ab11d2898e40b49d000bdc4c9d5a4d9264b6df50dadb3a0b66c9d6ce1094221f";

/// The committed fixtures of the sequence at `shards` shards, oldest
/// first: each fixture's name, audit length and head, and the prefixes
/// of the files written differently — or first, or no more — since
/// (their bytes are not compared; everything else is, byte for byte).
fn fixtures_at(shards: usize) -> [(String, usize, &'static str, &'static [&'static str]); 5] {
    let (xml_head, head, journal_head) = match shards {
        1 => (FIXTURE_HEAD_1, BINARY_HEAD_1, JOURNAL_HEAD_1),
        _ => (FIXTURE_HEAD_2, BINARY_HEAD_2, JOURNAL_HEAD_2),
    };
    [
        // XML throughout.
        (
            format!("at-rest-{shards}"),
            FIXTURE_AUDIT_LEN,
            xml_head,
            &["audit", "events-index", "gateway-", "policies"],
        ),
        // Binary audit and index, XML gateway.
        (
            format!("at-rest-3/shards-{shards}"),
            BINARY_AUDIT_LEN,
            head,
            &["gateway-", "audit", "policies"],
        ),
        // Binary audit and index, gateway records.
        (
            format!("at-rest-4/shards-{shards}"),
            BINARY_AUDIT_LEN,
            head,
            &["audit", "policies"],
        ),
        // The same, anchored, with policies in `policies.log`.
        (
            format!("at-rest-5/shards-{shards}"),
            BINARY_AUDIT_LEN,
            head,
            &["audit", "policies"],
        ),
        // The same, with policy and consent changes journaled: what is
        // written now.
        (
            format!("at-rest-6/shards-{shards}"),
            JOURNAL_AUDIT_LEN,
            journal_head,
            &[],
        ),
    ]
}

/// The directory of a committed fixture.
fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A temporary copy of a committed fixture, to open (which may append or
/// truncate) without touching it. Each call gets its own directory:
/// tests running in parallel copy the same fixture.
fn fixture_copy(name: &str) -> std::path::PathBuf {
    static COPIES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let copy = temp_dir(&format!(
        "fixture-copy-{}-{}",
        name.replace('/', "-"),
        COPIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    for entry in std::fs::read_dir(fixture(name)).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    copy
}

/// Open a deployment directory at whatever shard count it records.
fn reopen(dir: &std::path::Path) -> CssPlatform<css::core::DirProvider> {
    CssPlatform::builder()
        .provider(css::core::DirProvider::new(dir).unwrap())
        .clock(Arc::new(SimClock::starting_at(Timestamp(1))))
        .build()
        .unwrap()
}

/// "Same bytes" held still, for every at-rest fixture.
///
/// - `tests/fixtures/at-rest-{1,2}` are the directories
///   [`drive_fixed_sequence`] wrote at commit 2347129 (the last one
///   whose write paths built `Element` trees and whose CRC went a byte a
///   step), at 1 and 2 shards: XML payloads. Today's code must read
///   them to the same state, and writes the same policy bytes for the
///   sequence.
/// - `tests/fixtures/at-rest-3/shards-{1,2}` were written with binary
///   audit and index payloads and XML gateway documents. Today's code
///   must read them to the same state and write every byte of them again
///   but the gateway's.
/// - `tests/fixtures/at-rest-4/shards-{1,2}` were written with gateway
///   records too, and no audit anchor. Today's code must read them to
///   the same state and write every byte of them again.
/// - `tests/fixtures/at-rest-5/shards-{1,2}` were written with the audit
///   anchor beside them, and policies stored in `policies.log`. Today's
///   code must read them to the same state and write every byte of them
///   again but the audit log's, the anchor's and the policy file's.
/// - `tests/fixtures/at-rest-6/shards-{1,2}` are what it writes now: the
///   same, with each policy and consent change journaled on the audit
///   log and no `policies.log`. Today's code must read them to the same
///   state and write every byte of them again.
///
/// A fixture without an anchor is anchored at its first open, in the
/// copy the test opens.
///
/// `cargo test --test durability -- --ignored --nocapture
/// write_the_at_rest_fixture` writes the current form into `target/`
/// after a deliberate format change.
#[test]
fn at_rest_bytes_match_the_committed_fixture() {
    for shards in [1, 2] {
        let fixtures = fixtures_at(shards);
        let (_, current_len, current_head, _) = &fixtures[4];
        let fresh = temp_dir(&format!("fixture-fresh-{shards}"));
        let written = drive_fixed_sequence(&fresh, shards);
        assert_eq!(written.controller().audit_len(), *current_len);
        assert_eq!(
            css::crypto::to_hex(&written.controller().audit_head()),
            *current_head
        );
        drop(written);
        let actual = at_rest_files(&fresh);

        for (name, audit_len, head, rewritten) in fixtures {
            let expected = at_rest_files(&fixture(&name));
            assert!(expected.len() >= 4, "{name} incomplete: {expected:?}");

            // Reading: a copy of the fixture reopens to the recorded state.
            let copy = fixture_copy(&name);
            let reopened = reopen(&copy);
            assert_eq!(reopened.shard_count(), shards, "{name}");
            assert_eq!(reopened.controller().audit_len(), audit_len, "{name}");
            assert_eq!(reopened.controller().index_len(), 3, "{name}");
            assert_eq!(
                css::crypto::to_hex(&reopened.controller().audit_head()),
                head,
                "{name}"
            );
            reopened.verify_audit().unwrap();
            drop(reopened);
            let _ = std::fs::remove_dir_all(&copy);

            // Writing: the same sequence writes the same bytes — all of
            // them, or what was not rewritten since.
            let compared = |files: &std::collections::BTreeMap<String, Vec<u8>>| {
                files
                    .keys()
                    .filter(|file| !rewritten.iter().any(|p| file.starts_with(p)))
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(compared(&actual), compared(&expected), "{name}");
            for (file, bytes) in &expected {
                if rewritten.iter().any(|p| file.starts_with(p)) {
                    continue;
                }
                assert!(
                    actual[file] == *bytes,
                    "{file} differs from {name}:\n{}\nvs\n{}",
                    String::from_utf8_lossy(&actual[file]),
                    String::from_utf8_lossy(bytes)
                );
            }
        }
        let _ = std::fs::remove_dir_all(&fresh);
    }
}

/// A directory written before the binary form keeps working as is:
/// reopened, appended to in the binary form and reopened again, every
/// shard's chain runs on from the XML records through the binary ones,
/// and nothing is lost.
#[test]
fn a_legacy_directory_takes_binary_appends_with_a_continuous_chain() {
    for name in ["at-rest-1", "at-rest-2"] {
        let copy = fixture_copy(name);
        let mut platform = reopen(&copy);
        let org = platform.register_organization("Newcomer").unwrap();
        platform.join(org, Role::Consumer).unwrap();
        assert!(!platform
            .citizen(PersonId(1))
            .who_accessed_my_data()
            .unwrap()
            .is_empty());
        let (len, head) = (
            platform.controller().audit_len(),
            platform.controller().audit_head(),
        );
        assert_eq!(len, FIXTURE_AUDIT_LEN + 2, "{name}");
        platform.verify_audit().unwrap();
        drop(platform);

        let reopened = reopen(&copy);
        assert_eq!(reopened.controller().audit_len(), len, "{name}");
        assert_eq!(reopened.controller().audit_head(), head, "{name}");
        reopened.verify_audit().unwrap();
        assert_eq!(reopened.controller().index_len(), 3, "{name}");
        let _ = std::fs::remove_dir_all(&copy);
    }
}

/// A copy of a committed fixture reopened by its operators: the
/// sequence's actors set up again and the policies reloaded. The
/// platform and the family doctor.
fn reopen_as_operators(dir: &std::path::Path) -> (CssPlatform<css::core::DirProvider>, ActorId) {
    let mut platform = reopen(dir);
    let [_, _, doctor, _, _] = set_up_the_sequences_actors(&mut platform);
    platform.reload_policies().unwrap();
    (platform, doctor)
}

/// What the family doctor is released, for treatment, of every event
/// about the sequence's first citizen, oldest first.
fn released_to_the_doctor(
    platform: &CssPlatform<css::core::DirProvider>,
    doctor: ActorId,
) -> Vec<EventDetails> {
    let doctor = platform.consumer(doctor).unwrap();
    let mut found = doctor.inquire_by_person(PersonId(1)).unwrap();
    found.sort_by_key(|n| n.global_id);
    found
        .iter()
        .map(|n| {
            doctor
                .request_details(n, Purpose::HealthcareTreatment)
                .unwrap()
                .details
        })
        .collect()
}

/// What the sequence's permitted detail requests release: the doctor
/// may see a visit's patient, score and time, and all of a lab result.
fn released_by_the_sequence() -> Vec<EventDetails> {
    vec![
        EventDetails::new(visit_schema().id)
            .with("PatientId", FieldValue::Integer(1))
            .with("Notes", FieldValue::Empty)
            .with("Score", FieldValue::Decimal("13.5".parse().unwrap()))
            .with("SeenAt", FieldValue::DateTime(Timestamp(1_700_000_000_411))),
        EventDetails::new(lab_schema().id)
            .with("PatientId", FieldValue::Integer(1))
            .with("Positive", FieldValue::Empty),
    ]
}

/// Every fixture, reopened, answers the doctor's detail requests with
/// the fields it released when it was written — the gateway's XML
/// documents (`at-rest-1/2/3`) and its records (`at-rest-4`) alike.
#[test]
fn every_fixture_releases_what_it_released_before() {
    for shards in [1, 2] {
        for (name, ..) in fixtures_at(shards) {
            let copy = fixture_copy(&name);
            let (platform, doctor) = reopen_as_operators(&copy);
            assert_eq!(
                released_to_the_doctor(&platform, doctor),
                released_by_the_sequence(),
                "{name}"
            );
            drop(platform);
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
}

/// A directory whose gateway stored XML documents takes new details in
/// the record form, and answers from both kinds of record, before a
/// restart and after it.
#[test]
fn a_legacy_gateway_takes_record_appends_and_answers_from_both() {
    for shards in [1, 2] {
        for (name, ..) in &fixtures_at(shards)[..2] {
            let copy = fixture_copy(name);
            let (platform, doctor) = reopen_as_operators(&copy);
            let ada = PersonIdentity {
                id: PersonId(1),
                fiscal_code: "FC000001".into(),
                name: "Ada".into(),
                surname: "O'Brien & <Sons>".into(),
            };
            let later = EventDetails::new(visit_schema().id)
                .with("PatientId", FieldValue::Integer(1))
                .with("Notes", FieldValue::Text("  after the upgrade ".into()))
                .with("Score", FieldValue::Decimal("2.5".parse().unwrap()));
            platform
                .producer(ActorId(1))
                .unwrap()
                .publish(ada, "later visit", later, Timestamp(1_800_000_000_000))
                .unwrap();
            let mut expected = released_by_the_sequence();
            expected.push(
                EventDetails::new(visit_schema().id)
                    .with("PatientId", FieldValue::Integer(1))
                    .with("Notes", FieldValue::Empty)
                    .with("Score", FieldValue::Decimal("2.5".parse().unwrap())),
            );
            assert_eq!(
                released_to_the_doctor(&platform, doctor),
                expected,
                "{name}"
            );
            drop(platform);

            // The gateway's log holds the documents it was written with
            // and, after them, one record.
            let (gateway, _) =
                KvStore::open(FileBackend::open(copy.join("gateway-act-00000001.log")).unwrap())
                    .unwrap();
            let mut first_bytes: Vec<u8> = gateway
                .keys()
                .map(|key| gateway.get(key).unwrap().unwrap()[0])
                .collect();
            first_bytes.sort_unstable();
            assert_eq!(
                first_bytes,
                [css::event::DETAIL_RECORD_V1, b'<', b'<', b'<', b'<'],
                "{name}"
            );
            drop(gateway);

            let (platform, doctor) = reopen_as_operators(&copy);
            assert_eq!(
                released_to_the_doctor(&platform, doctor),
                expected,
                "{name}"
            );
            drop(platform);
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
}

/// Not a check: writes [`drive_fixed_sequence`] at 1 and 2 shards into
/// `target/at-rest-fixture/shards-{1,2}`, keeping only the files a
/// fixture holds, and prints where. After a deliberate format change,
/// add them as the next `tests/fixtures/at-rest-N/` (keeping the fixture
/// before as a legacy one) and update the pinned lengths and heads
/// above.
#[test]
#[ignore = "writes the at-rest fixture; run by hand after a format change"]
fn write_the_at_rest_fixture() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/at-rest-fixture");
    for shards in [1, 2] {
        let dir = root.join(format!("shards-{shards}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let written = drive_fixed_sequence(&dir, shards);
        println!(
            "{shards} shard(s): {} records, head {}",
            written.controller().audit_len(),
            css::crypto::to_hex(&written.controller().audit_head())
        );
        drop(written);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if std::fs::metadata(&path).unwrap().len() == 0 {
                std::fs::remove_file(path).unwrap();
            }
        }
    }
    println!("written to {}", root.display());
}

/// "Same structs" held still: every audit record and every detail
/// message of the committed fixtures decodes to the same value off the
/// stored text as off the tree parsed from it — the two forms of the
/// one decoder each type has. (The index log's record types are private
/// to css-controller; its unit tests make the same comparison.)
#[test]
fn fixture_records_decode_alike_from_stream_and_tree() {
    use css::audit::AuditRecord;
    use css::event::{DetailDecoder, DetailMessage, FieldMask};
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
                    let every = schema.field_names().map(|_| true).collect();
                    assert_eq!(open().finish(schema, &names, &every).unwrap(), from_tree);
                    // Filtered in the decode or after it: the same details.
                    let filtered = open()
                        .finish(schema, &names, &FieldMask::of(&names.fields, &only_patient))
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
