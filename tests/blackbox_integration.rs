//! The flight recorder end to end: boot a platform with
//! `.ops_server(..)`, drive a traced detail request through a slowed
//! storage backend so a real exemplar lands in a slow histogram
//! bucket, then force the `detail_request_p99` SLO critical and prove
//! the recorder freezes an incident bundle to disk — whose exemplar
//! trace id joins back to the css-trace span tree *and* the audit log
//! — without leaking a single payload field or personal identifier.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use css::audit::{AuditAction, AuditQuery};
use css::core::{BackendProvider, CssPlatform, CssPlatformBuilder};
use css::prelude::*;
use css::storage::{LogBackend, MemBackend};
use css::trace::TraceId;

/// A payload value that must never appear in any bundle or endpoint.
const SECRET_RESULT: &str = "SECRET-RESULT-positive-hiv";
/// A personal identifier that must never appear either.
const SECRET_FISCAL: &str = "FCSECRET0000007";

// ---- latency-injectable storage ------------------------------------------

/// An in-memory backend whose reads stall while the shared flag is up —
/// the lever that turns one traced detail request into a genuine p99
/// outlier (and therefore a slow-bucket exemplar).
struct SlowBackend {
    inner: MemBackend,
    slow: Arc<AtomicBool>,
}

impl LogBackend for SlowBackend {
    fn append(&mut self, data: &[u8]) -> css::types::CssResult<u64> {
        self.inner.append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> css::types::CssResult<Vec<u8>> {
        if self.slow.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.inner.read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> css::types::CssResult<()> {
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> css::types::CssResult<()> {
        self.inner.truncate(len)
    }
}

#[derive(Clone)]
struct SlowProvider {
    slow: Arc<AtomicBool>,
}

impl BackendProvider for SlowProvider {
    type Backend = SlowBackend;
    fn backend(&self, _name: &str) -> css::types::CssResult<SlowBackend> {
        Ok(SlowBackend {
            inner: MemBackend::new(),
            slow: self.slow.clone(),
        })
    }
}

// ---- tiny HTTP client -----------------------------------------------------

fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(stream, "{method} {path} HTTP/1.0\r\nHost: ops\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path)
}

/// Pull a `"key":<u64>` value out of a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric json value")
}

/// The hex trace id of the slowest-bucket `stage.total` exemplar in a
/// bundle (or `/debug/exemplars`) body.
fn slowest_stage_total_exemplar(body: &str) -> String {
    let mut best: Option<(u64, String)> = None;
    for fragment in body
        .split(r#"{"histogram":"stage.total","bucket_ns":"#)
        .skip(1)
    {
        let bucket: u64 = fragment
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("bucket_ns");
        let hex_at =
            fragment.find(r#""trace_id":""#).expect("exemplar trace id") + r#""trace_id":""#.len();
        let hex = fragment[hex_at..hex_at + 16].to_string();
        if best.as_ref().is_none_or(|(b, _)| bucket > *b) {
            best = Some((bucket, hex));
        }
    }
    best.expect("no stage.total exemplars in body").1
}

// ---- platform under test --------------------------------------------------

fn incident_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("css-blackbox-int-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boot a recorder-equipped platform and push one sensitive event
/// through publish → deliver → detail request, so the leak checks have
/// something real to miss.
#[allow(clippy::type_complexity)]
fn blackbox_platform(
    tag: &str,
    slow: Arc<AtomicBool>,
) -> (
    CssPlatform<SlowProvider>,
    SocketAddr,
    PathBuf,
    ActorId,
    Arc<NotificationMessage>,
) {
    let dir = incident_dir(tag);
    let mut platform = CssPlatformBuilder::new()
        .provider(SlowProvider { slow })
        .tracing(1024)
        .ops_server("127.0.0.1:0")
        .ops_sample_interval(Duration::from_millis(10))
        .incident_dir(dir.clone())
        .build()
        .expect("boot platform");
    let addr = platform.ops().expect("ops enabled").local_addr();

    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();

    let ty = EventTypeId::v1("blood-test");
    let schema = EventSchema::new(ty.clone(), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive());
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema, None).unwrap();
    producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["PatientId", "Result"])
        .unwrap()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "")
        .save()
        .unwrap();

    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&ty).unwrap();
    let details = EventDetails::new(ty.clone())
        .with("PatientId", FieldValue::Integer(7))
        .with("Result", FieldValue::Text(SECRET_RESULT.into()));
    let person = PersonIdentity {
        id: PersonId(7),
        fiscal_code: SECRET_FISCAL.into(),
        name: "Maria".into(),
        surname: "Rossi".into(),
    };
    producer
        .publish(person, "bt", details, platform.clock().now())
        .unwrap();
    let notification = sub.next().unwrap().expect("delivered").message;
    consumer
        .request_details(&notification, Purpose::HealthcareTreatment)
        .unwrap();
    (platform, addr, dir, doctor, notification)
}

fn assert_no_leak(context: &str, body: &str) {
    for secret in [SECRET_RESULT, SECRET_FISCAL, "Maria", "Rossi"] {
        assert!(
            !body.contains(secret),
            "{context} leaked {secret:?}: {body}"
        );
    }
}

// ---- the tests ------------------------------------------------------------

/// The acceptance path of the flight recorder: an injected p99
/// regression produces — within the SLO engine's critical transition
/// (≤ 2 ticks) plus at most one tick of polling slack — an incident
/// bundle on disk whose exemplar trace id resolves both to the
/// css-trace span tree and to the audit log.
#[test]
fn p99_regression_writes_a_joinable_incident_bundle() {
    let slow = Arc::new(AtomicBool::new(false));
    let (platform, addr, dir, _doctor, notification) =
        blackbox_platform("regression", slow.clone());
    let consumer = platform.consumer(_doctor).unwrap();

    // One healthy baseline tick, then a few genuinely slow traced
    // requests: each stalls on storage reads, so its `stage.total`
    // exemplar lands in a slow bucket carrying its trace id.
    std::thread::sleep(Duration::from_millis(30));
    slow.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        consumer
            .request_details(&notification, Purpose::HealthcareTreatment)
            .unwrap();
    }
    slow.store(false, Ordering::SeqCst);

    // Force the regression past the 200 µs objective. Plain records
    // never disturb exemplar slots, so the slow-bucket exemplar stays
    // the traced request's.
    for _ in 0..200 {
        platform
            .metrics()
            .histogram("stage.total")
            .record(5_000_000);
    }
    let ticks_at_regression = json_u64(&get(addr, "/slo").1, "ticks");

    let deadline = Instant::now() + Duration::from_secs(10);
    let (bundle, ticks_at_bundle) = loop {
        let ticks = json_u64(&get(addr, "/slo").1, "ticks");
        let newest = std::fs::read_dir(&dir)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("incident-") && n.ends_with(".json"))
            })
            .max();
        if let Some(path) = newest {
            break (std::fs::read_to_string(path).expect("read bundle"), ticks);
        }
        assert!(
            Instant::now() < deadline,
            "no incident bundle appeared in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        ticks_at_bundle.saturating_sub(ticks_at_regression) <= 3,
        "bundle took {} ticks (> 2 + 1 slack)",
        ticks_at_bundle - ticks_at_regression
    );

    // The trigger is the SLO transition, not a manual capture.
    assert!(bundle.contains(r#""schema":"css-blackbox/1""#), "{bundle}");
    assert!(bundle.contains(r#""kind":"slo_critical""#), "{bundle}");
    assert!(bundle.contains(r#""slo":"detail_request_p99""#), "{bundle}");

    // The slowest stage.total exemplar joins to its span tree inside
    // the bundle itself: a detail_request root with Algorithm 1 stages.
    let hex = slowest_stage_total_exemplar(&bundle);
    let trace_at = bundle.find(r#""traces":["#).expect("traces section");
    let traces = &bundle[trace_at..];
    assert!(
        traces.contains(&format!(r#""trace_id":"{hex}""#)),
        "exemplar trace {hex} missing from traces: {bundle}"
    );
    assert!(traces.contains(r#""name":"detail_request""#), "{bundle}");
    assert!(traces.contains(r#""name":"pep.pdp_evaluate""#), "{bundle}");

    // …and outside the bundle: to the live tracer ring…
    let id = TraceId(u64::from_str_radix(&hex, 16).expect("hex trace id"));
    let spans = platform.tracer().finished_spans();
    assert!(
        spans
            .iter()
            .any(|s| s.trace == id && s.name == "detail_request"),
        "trace {hex} not in tracer ring"
    );

    // …and to the audit log, closing the metrics → trace → audit join.
    let records = platform.audit_query(&AuditQuery::new().trace(id)).unwrap();
    assert!(!records.is_empty(), "trace {hex} not in audit log");
    assert!(
        records
            .iter()
            .any(|r| matches!(r.action, AuditAction::DetailRequest)),
        "audit records for {hex} carry no DetailRequest"
    );

    // The bundle is privacy-safe end to end.
    assert_no_leak("incident bundle", &bundle);
}

#[test]
fn debug_endpoints_serve_exemplars_incidents_and_manual_capture() {
    let (_platform, addr, _dir, _doctor, _n) =
        blackbox_platform("endpoints", Arc::new(AtomicBool::new(false)));

    // The detail request of the fixture already stamped exemplars.
    let (code, body) = get(addr, "/debug/exemplars");
    assert_eq!(code, 200);
    assert!(body.contains(r#""histogram":"stage.total""#), "{body}");
    assert_no_leak("/debug/exemplars", &body);

    // Manual capture over HTTP: POST works, GET is rejected.
    let (code, bundle) = http(addr, "POST", "/debug/capture");
    assert_eq!(code, 200, "{bundle}");
    assert!(bundle.contains(r#""schema":"css-blackbox/1""#), "{bundle}");
    assert!(bundle.contains(r#""kind":"manual""#), "{bundle}");
    assert_no_leak("POST /debug/capture", &bundle);
    let (code, _) = get(addr, "/debug/capture");
    assert_eq!(code, 405);

    // The capture is now listed with its on-disk path.
    let (code, body) = get(addr, "/debug/incidents");
    assert_eq!(code, 200);
    assert!(body.contains(r#""kind":"manual""#), "{body}");
    assert!(body.contains(r#""path":"#), "{body}");

    // The recorder reports its own health alongside the platform's.
    let (code, body) = get(addr, "/health");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""component":"blackbox""#), "{body}");
}

/// The bundle `POST /debug/capture` returns is the file
/// `/debug/incidents` names for it, byte for byte.
#[test]
fn capture_incident_api_writes_the_bundle_it_returns() {
    let (_platform, addr, _dir, _doctor, _n) =
        blackbox_platform("api", Arc::new(AtomicBool::new(false)));
    let (code, bundle) = http(addr, "POST", "/debug/capture");
    assert_eq!(code, 200, "{bundle}");
    assert!(bundle.contains(r#""kind":"manual""#), "{bundle}");
    assert!(
        bundle.contains(r#""reason":"POST /debug/capture""#),
        "{bundle}"
    );
    let (_, listed) = get(addr, "/debug/incidents");
    let entry = &listed[listed.find(r#""kind":"manual""#).expect("capture listed")..];
    let path_at = entry.find(r#""path":""#).expect("bundle written to disk") + r#""path":""#.len();
    let path = &entry[path_at..path_at + entry[path_at..].find('"').expect("path ends")];
    let on_disk = std::fs::read_to_string(path).expect("read bundle file");
    assert_eq!(on_disk, bundle, "disk bundle differs from returned");
    assert_no_leak("POST /debug/capture bundle", &bundle);
}
