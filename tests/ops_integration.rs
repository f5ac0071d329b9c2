//! The live ops plane end to end: boot a platform with
//! `ops_server("127.0.0.1:0")`, drive real traffic through it, and
//! scrape every endpoint over actual TCP — `/metrics` must parse as
//! Prometheus text, `/health` must flip 200 → 503 under an injected
//! storage fault (and back), `/slo` must go Critical within two sampler
//! ticks of a forced p99 regression, and no endpoint may ever leak a
//! payload field or personal identifier.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use css::audit::{AuditAction, AuditQuery};
use css::core::{BackendProvider, CssPlatform, CssPlatformBuilder};
use css::prelude::*;
use css::storage::{LogBackend, MemBackend};
use css::types::{CssError, PolicyId};

/// A payload value that must never appear on any ops endpoint.
const SECRET_RESULT: &str = "SECRET-RESULT-positive-hiv";
/// A personal identifier that must never appear either.
const SECRET_FISCAL: &str = "FCSECRET0000007";

// ---- fault-injectable storage --------------------------------------------

/// An in-memory backend whose I/O fails while the shared flag is up —
/// the "disk died" lever for the `/health` 503 test — unless it is
/// outside the provider's fault scope.
struct FaultableBackend {
    inner: MemBackend,
    fail: Arc<AtomicBool>,
    in_scope: bool,
}

impl FaultableBackend {
    fn check(&self) -> css::types::CssResult<()> {
        if self.in_scope && self.fail.load(Ordering::SeqCst) {
            Err(CssError::Storage("injected fault: disk offline".into()))
        } else {
            Ok(())
        }
    }
}

impl LogBackend for FaultableBackend {
    fn append(&mut self, data: &[u8]) -> css::types::CssResult<u64> {
        self.check()?;
        self.inner.append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> css::types::CssResult<Vec<u8>> {
        self.check()?;
        self.inner.read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> css::types::CssResult<()> {
        self.check()?;
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> css::types::CssResult<()> {
        self.check()?;
        self.inner.truncate(len)
    }
}

#[derive(Clone)]
struct FaultableProvider {
    fail: Arc<AtomicBool>,
    /// The flag fails the backends whose name starts with this; `""`
    /// is every backend.
    scope: &'static str,
}

impl FaultableProvider {
    /// The flag fails every backend.
    fn everywhere(fail: Arc<AtomicBool>) -> Self {
        FaultableProvider { fail, scope: "" }
    }
}

impl BackendProvider for FaultableProvider {
    type Backend = FaultableBackend;
    fn backend(&self, name: &str) -> css::types::CssResult<FaultableBackend> {
        Ok(FaultableBackend {
            inner: MemBackend::new(),
            fail: self.fail.clone(),
            in_scope: name.starts_with(self.scope),
        })
    }
}

// ---- tiny HTTP client -----------------------------------------------------

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: ops\r\n\r\n").expect("send request");
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

// ---- Prometheus text validation ------------------------------------------

/// Minimal format check for exposition text 0.0.4: every line is a
/// `# HELP`/`# TYPE` comment or `name[{label="…"}] value`; every
/// `# TYPE` is preceded by a `# HELP` for the same metric; every
/// histogram carries cumulative `_bucket` lines closed by `+Inf`,
/// plus `_sum`/`_count`, with `+Inf == _count`.
fn assert_valid_prometheus(text: &str) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut histograms: Vec<String> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("HELP without text: {line}"));
            assert!(valid_name(name), "bad metric name in {line:?}");
            assert!(!help.trim().is_empty(), "empty help text: {line}");
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("typed metric name");
            let kind = parts.next().expect("metric kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind: {line}"
            );
            assert!(
                helped.iter().any(|h| h == name),
                "# TYPE without preceding # HELP: {line}"
            );
            if kind == "histogram" {
                histograms.push(name.to_string());
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        let name = series.split('{').next().unwrap();
        assert!(valid_name(name), "bad metric name in {line:?}");
        if let Some(labels) = series.strip_prefix(name) {
            assert!(
                labels.is_empty()
                    || ((labels.starts_with("{le=\"") || labels.starts_with("{version=\""))
                        && labels.ends_with("\"}")),
                "unexpected labels in {line:?}"
            );
        }
    }
    for h in histograms {
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(&format!("{h}_bucket{{")))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!bucket_counts.is_empty(), "{h}: no buckets");
        assert!(
            bucket_counts.windows(2).all(|w| w[0] <= w[1]),
            "{h}: buckets not cumulative: {bucket_counts:?}"
        );
        let inf = text
            .lines()
            .find(|l| l.starts_with(&format!("{h}_bucket{{le=\"+Inf\"}}")))
            .unwrap_or_else(|| panic!("{h}: missing +Inf bucket"));
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{h}_count ")))
            .unwrap_or_else(|| panic!("{h}: missing _count"));
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{h}_sum "))),
            "{h}: missing _sum"
        );
        assert_eq!(
            inf.rsplit(' ').next().unwrap(),
            count_line.rsplit(' ').next().unwrap(),
            "{h}: +Inf bucket must equal _count"
        );
    }
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

// ---- platform under test --------------------------------------------------

/// A hospital producing blood tests and a doctor granted both fields
/// of them for treatment, with the id of that grant.
fn onboard(
    platform: &mut CssPlatform<FaultableProvider>,
) -> (ActorId, ActorId, EventTypeId, PolicyId) {
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
    let granted = producer
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
    (hospital, doctor, ty, granted[0])
}

/// One blood test about Maria, carrying both secrets.
fn sensitive_event(ty: &EventTypeId) -> (PersonIdentity, EventDetails) {
    let details = EventDetails::new(ty.clone())
        .with("PatientId", FieldValue::Integer(7))
        .with("Result", FieldValue::Text(SECRET_RESULT.into()));
    let person = PersonIdentity {
        id: PersonId(7),
        fiscal_code: SECRET_FISCAL.into(),
        name: "Maria".into(),
        surname: "Rossi".into(),
    };
    (person, details)
}

/// [`ops_platform_on`] two shards, whatever the host's core count, so
/// the suite asserts the same things on every host.
fn ops_platform(fail: Arc<AtomicBool>) -> (CssPlatform<FaultableProvider>, SocketAddr) {
    ops_platform_on(fail, 2)
}

/// The shard counts the route-shape and leak tests run at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Boot an ops-served platform on `shards` data-plane shards and push
/// one sensitive event through publish → deliver → detail request, so
/// every subsystem has traffic.
fn ops_platform_on(
    fail: Arc<AtomicBool>,
    shards: usize,
) -> (CssPlatform<FaultableProvider>, SocketAddr) {
    // Every ops plane writes a bundle on an edge (the forced p99
    // regression below is one): keep them out of `target/incidents`.
    static BOOTS: AtomicUsize = AtomicUsize::new(0);
    let incident_dir = std::env::temp_dir().join(format!(
        "css-ops-int-{}-{}",
        std::process::id(),
        BOOTS.fetch_add(1, Ordering::SeqCst)
    ));
    let mut platform = CssPlatformBuilder::new()
        .provider(FaultableProvider::everywhere(fail))
        .shards(shards)
        .tracing(256)
        .ops_server("127.0.0.1:0")
        .ops_sample_interval(Duration::from_millis(10))
        .incident_dir(incident_dir)
        .build()
        .expect("boot platform");
    let addr = platform.ops().expect("ops enabled").local_addr();
    let (hospital, doctor, ty, _) = onboard(&mut platform);
    let producer = platform.producer(hospital).unwrap();
    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&ty).unwrap();
    let (person, details) = sensitive_event(&ty);
    producer
        .publish(person, "bt", details, platform.clock().now())
        .unwrap();
    let notification = sub.next().unwrap().expect("delivered").message;
    consumer
        .request_details(&notification, Purpose::HealthcareTreatment)
        .unwrap();
    (platform, addr)
}

// ---- the tests ------------------------------------------------------------

#[test]
fn metrics_endpoint_serves_valid_prometheus_with_live_counters() {
    let (_platform, addr) = ops_platform(Arc::new(AtomicBool::new(false)));
    let (code, body) = get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_valid_prometheus(&body);
    // Live traffic is visible: the publish, the enforcement stages.
    assert!(body.contains("css_controller_published_total 1"), "{body}");
    assert!(
        body.contains("# TYPE css_stage_total_ns histogram"),
        "{body}"
    );
    assert!(body.contains("css_platform_indexed_events 1"), "{body}");
}

/// The data plane exports one `shard.{i}.ops` counter per shard — and
/// none for a shard it does not run — beside the imbalance gauge.
#[test]
fn metrics_carry_one_ops_series_per_shard_and_the_imbalance_gauge() {
    for shards in [1, 4] {
        let (_platform, addr) = ops_platform_on(Arc::new(AtomicBool::new(false)), shards);
        let (_, body) = get(addr, "/metrics");
        let exported = |series: &str| body.lines().any(|l| l.starts_with(series));
        for i in 0..shards {
            assert!(
                exported(&format!("css_shard_{i}_ops_total ")),
                "shard {i} of {shards}: {body}"
            );
        }
        assert!(
            !exported(&format!("css_shard_{shards}_ops")),
            "a series for a shard beyond the {shards} running: {body}"
        );
        assert!(exported("css_shard_imbalance_pct "), "{body}");
    }
}

/// Every JSON route serves a document that parses, at every shard count.
#[test]
fn json_endpoints_serve_well_formed_documents() {
    for shards in SHARD_COUNTS {
        let (_platform, addr) = ops_platform_on(Arc::new(AtomicBool::new(false)), shards);
        for path in [
            "/health",
            "/slo",
            "/query?metric=stage.total&fn=p99",
            "/range?metric=stage.total&res=raw",
            "/traces",
            "/debug/exemplars",
            "/debug/incidents",
        ] {
            let (code, body) = get(addr, path);
            assert_eq!(code, 200, "{path} at {shards} shards");
            assert!(
                css_lint::json::parse_json(&body).is_some(),
                "{path} at {shards} shards is not JSON: {body}"
            );
        }
    }
}

#[test]
fn health_flips_to_503_under_storage_fault_and_recovers() {
    let fail = Arc::new(AtomicBool::new(false));
    let (_platform, addr) = ops_platform(fail.clone());

    let (code, body) = get(addr, "/health");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""status":"healthy""#), "{body}");
    for component in ["storage", "bus-queue", "policy", "gateway", "trace"] {
        assert!(
            body.contains(&format!(r#""component":"{component}""#)),
            "{body}"
        );
    }

    // Storage dies: the probe's write/read round-trip fails and the
    // rollup must stop serving, with a machine-readable reason.
    fail.store(true, Ordering::SeqCst);
    let (code, body) = get(addr, "/health");
    assert_eq!(code, 503, "{body}");
    assert!(body.contains(r#""status":"unhealthy""#), "{body}");
    assert!(
        body.contains(r#""component":"storage","status":"unhealthy","reason":"#),
        "{body}"
    );
    assert!(body.contains("injected fault"), "{body}");

    // Storage comes back: the next probe round-trips and we serve again.
    fail.store(false, Ordering::SeqCst);
    let (code, body) = get(addr, "/health");
    assert_eq!(code, 200, "{body}");
}

/// The alert level reported for one named SLO in the `/slo` body.
fn slo_alert(body: &str, name: &str) -> String {
    let at = body
        .find(&format!(r#""name":"{name}""#))
        .unwrap_or_else(|| panic!("{name} missing in {body}"));
    let rest = &body[at..];
    let alert_at = rest.find(r#""alert":""#).expect("alert field") + r#""alert":""#.len();
    rest[alert_at..]
        .split('"')
        .next()
        .expect("alert value")
        .to_string()
}

#[test]
fn slo_goes_critical_within_two_sampler_ticks_of_a_p99_regression() {
    let (platform, addr) = ops_platform(Arc::new(AtomicBool::new(false)));

    // The sampler's first tick only takes the baseline snapshot: a
    // burst recorded before it would never show as a delta.
    let deadline = Instant::now() + Duration::from_secs(10);
    while json_u64(&get(addr, "/slo").1, "ticks") < 2 {
        assert!(Instant::now() < deadline, "sampler stalled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A healthy baseline first: the fixture's one detail request may
    // itself have been slow, so wait for the fast window to drain it.
    loop {
        let (code, body) = get(addr, "/slo");
        assert_eq!(code, 200);
        if slo_alert(&body, "detail_request_p99") != "critical" {
            break;
        }
        assert!(Instant::now() < deadline, "SLO never left critical: {body}");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Force the regression: a burst of detail-request latencies far
    // past the default 200 µs objective.
    for _ in 0..200 {
        platform
            .metrics()
            .histogram("stage.total")
            .record(5_000_000);
    }
    let ticks_at_regression = json_u64(&get(addr, "/slo").1, "ticks");

    let deadline = Instant::now() + Duration::from_secs(10);
    let ticks_at_critical = loop {
        let (_, body) = get(addr, "/slo");
        if slo_alert(&body, "detail_request_p99") == "critical" {
            break json_u64(&body, "ticks");
        }
        assert!(Instant::now() < deadline, "SLO never went critical: {body}");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        ticks_at_critical.saturating_sub(ticks_at_regression) <= 2,
        "critical took {} ticks (> 2)",
        ticks_at_critical - ticks_at_regression
    );
}

/// `/traces` serves span aggregates; care-process KPIs are a consumer's
/// to compute, so `/monitor` is not a route and the 404 lists the nine
/// that are.
#[test]
fn traces_serve_aggregates_and_monitor_is_not_a_route() {
    let (_platform, addr) = ops_platform(Arc::new(AtomicBool::new(false)));
    let (code, body) = get(addr, "/traces");
    assert_eq!(code, 200);
    assert!(
        body.starts_with(r#"{"traceEvents":["#),
        "Chrome trace document: {body}"
    );
    assert!(body.contains(r#""name":"publish""#), "{body}");

    let (code, body) = get(addr, "/monitor");
    assert_eq!(code, 404, "{body}");
    assert_eq!(
        body,
        r#"{"error":"not found","endpoints":["/metrics","/health","/slo","/query","/range","/traces","/debug/incidents","/debug/exemplars","/debug/capture"]}"#
    );
}

/// `.ops_server()` alone is the whole plane: the history answers and a
/// manual capture freezes a bundle without any further builder option.
#[test]
fn ops_server_alone_serves_history_and_capture() {
    let (_platform, addr) = ops_platform(Arc::new(AtomicBool::new(false)));
    let (code, body) = get(addr, "/query?metric=no.such.metric");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""error":"unknown metric"#), "{body}");
    let (code, body) = get(addr, "/range?metric=no.such.metric");
    assert_eq!(code, 200, "{body}");

    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(stream, "POST /debug/capture HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    assert!(
        response.contains(r#""schema":"css-blackbox/1""#),
        "{response}"
    );
    let (_, incidents) = get(addr, "/debug/incidents");
    assert_eq!(incidents.matches(r#""seq":"#).count(), 1, "{incidents}");
    let (_, health) = get(addr, "/health");
    assert!(
        health.contains(r#"{"component":"chronicle-anomaly","status":"healthy"}"#),
        "{health}"
    );
}

/// The trust argument of the ops plane: every endpoint serves
/// aggregates only. Payload fields, fiscal codes, and subject names
/// from the sensitive event pushed through the platform must not be
/// reachable from any scrape, at any shard count.
#[test]
fn no_endpoint_leaks_payload_fields_or_identifiers() {
    for shards in SHARD_COUNTS {
        let (_platform, addr) = ops_platform_on(Arc::new(AtomicBool::new(false)), shards);
        for path in ["/metrics", "/health", "/slo", "/traces"] {
            let (code, body) = get(addr, path);
            assert_eq!(code, 200, "{path} at {shards} shards");
            for secret in [SECRET_RESULT, SECRET_FISCAL, "Maria", "Rossi"] {
                assert!(
                    !body.contains(secret),
                    "{path} at {shards} shards leaked {secret:?}: {body}"
                );
            }
        }
    }
}

#[test]
fn ops_plane_shuts_down_with_the_platform() {
    let (platform, addr) = ops_platform(Arc::new(AtomicBool::new(false)));
    let (code, _) = get(addr, "/health");
    assert_eq!(code, 200);
    drop(platform); // joins the sampler and server threads; must not hang
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "ops server still accepting after platform drop"
    );
}

/// A subscribe that cannot write its audit record fails — and must not
/// leave the receiver it attached behind: nobody holds its handle, so
/// its queue would fill and every later publish of the class be
/// rejected.
#[test]
fn a_subscribe_that_fails_to_audit_leaves_no_receiver_behind() {
    let fail = Arc::new(AtomicBool::new(false));
    let mut platform = CssPlatformBuilder::new()
        .provider(FaultableProvider::everywhere(fail.clone()))
        .build()
        .expect("boot platform");
    let (hospital, doctor, ty, _) = onboard(&mut platform);
    let producer = platform.producer(hospital).unwrap();
    let consumer = platform.consumer(doctor).unwrap();

    fail.store(true, Ordering::SeqCst);
    let subscribed = consumer.subscribe(&ty).map(|_| ());
    assert!(
        matches!(subscribed, Err(CssError::Storage(_))),
        "{subscribed:?}"
    );
    fail.store(false, Ordering::SeqCst);

    // More publishes than a forgotten queue (1 024 slots) could take.
    for n in 0..1_100 {
        let (person, details) = sensitive_event(&ty);
        let receipt = producer
            .publish(person, "bt", details, platform.clock().now())
            .unwrap_or_else(|e| panic!("publish {n}: {e}"));
        assert!(receipt.notified.is_empty(), "publish {n}: {receipt:?}");
    }
}

/// An inquiry whose notified-marker cannot be written fails — and must
/// not leave the consumer marked notified in memory: Algorithm 1's
/// notified check would then pass for a notification the consumer
/// never received, and that a restart would not remember. Only the
/// index fails, so the inquiry's audit record is written first and
/// stands as an audited attempt.
#[test]
fn an_inquiry_that_fails_to_persist_its_marker_notifies_nobody() {
    let fail = Arc::new(AtomicBool::new(false));
    let mut platform = CssPlatformBuilder::new()
        .provider(FaultableProvider {
            fail: fail.clone(),
            scope: "events-index",
        })
        .build()
        .expect("boot platform");
    let (hospital, doctor, ty, _) = onboard(&mut platform);
    let (person, details) = sensitive_event(&ty);
    let receipt = platform
        .producer(hospital)
        .unwrap()
        .publish(person, "bt", details, platform.clock().now())
        .unwrap();
    // Authorised for the class, never subscribed: not notified.
    assert!(receipt.notified.is_empty());
    let consumer = platform.consumer(doctor).unwrap();

    fail.store(true, Ordering::SeqCst);
    let inquired = consumer
        .inquire_by_person(PersonId(7))
        .map(|found| found.len());
    assert!(
        matches!(inquired, Err(CssError::Storage(_))),
        "{inquired:?}"
    );
    fail.store(false, Ordering::SeqCst);
    let inquiries = AuditQuery::new()
        .action(AuditAction::IndexInquiry)
        .actor(doctor);
    assert_eq!(platform.audit_query(&inquiries).unwrap().len(), 1);

    let requested = consumer
        .request_details_by_id(ty, receipt.global_id, Purpose::HealthcareTreatment)
        .map(|_| ());
    assert_eq!(
        requested,
        Err(CssError::AccessDenied(DenyReason::NotNotified))
    );
}

/// An inquiry whose audit record cannot be written fails — and must not
/// leave the consumer marked notified either: with the index intact and
/// only the audit log down, an unaudited inquiry would otherwise open
/// the detail request for a notification the consumer never received.
#[test]
fn an_inquiry_that_cannot_be_audited_notifies_nobody() {
    let fail = Arc::new(AtomicBool::new(false));
    let mut platform = CssPlatformBuilder::new()
        .provider(FaultableProvider {
            fail: fail.clone(),
            scope: "audit",
        })
        .build()
        .expect("boot platform");
    let (hospital, doctor, ty, _) = onboard(&mut platform);
    let (person, details) = sensitive_event(&ty);
    let receipt = platform
        .producer(hospital)
        .unwrap()
        .publish(person, "bt", details, platform.clock().now())
        .unwrap();
    assert!(receipt.notified.is_empty());
    let consumer = platform.consumer(doctor).unwrap();

    fail.store(true, Ordering::SeqCst);
    let inquired = consumer
        .inquire_by_person(PersonId(7))
        .map(|found| found.len());
    assert!(
        matches!(inquired, Err(CssError::Storage(_))),
        "{inquired:?}"
    );
    fail.store(false, Ordering::SeqCst);

    let requested = consumer
        .request_details_by_id(ty, receipt.global_id, Purpose::HealthcareTreatment)
        .map(|_| ());
    assert_eq!(
        requested,
        Err(CssError::AccessDenied(DenyReason::NotNotified))
    );
}

/// A revocation whose detachment cannot be audited fails the publish
/// that finds it — and is not forgotten: the next publish detaches the
/// consumer again and this time writes the record.
#[test]
fn a_detachment_that_fails_to_audit_is_retried_by_the_next_publish() {
    let fail = Arc::new(AtomicBool::new(false));
    let mut platform = CssPlatformBuilder::new()
        .provider(FaultableProvider {
            fail: fail.clone(),
            scope: "audit",
        })
        .build()
        .expect("boot platform");
    let (hospital, doctor, ty, granted) = onboard(&mut platform);
    let producer = platform.producer(hospital).unwrap();
    let subscription = platform.consumer(doctor).unwrap().subscribe(&ty).unwrap();
    producer.revoke_policy(granted).unwrap();
    let detachments = |platform: &CssPlatform<FaultableProvider>| {
        let q = AuditQuery::new()
            .action(AuditAction::Subscribe)
            .actor(doctor)
            .denied_only();
        platform.audit_query(&q).unwrap().len()
    };

    fail.store(true, Ordering::SeqCst);
    let (person, details) = sensitive_event(&ty);
    let published = producer
        .publish(person, "bt", details, platform.clock().now())
        .map(|r| r.notified);
    assert!(
        matches!(published, Err(CssError::Storage(_))),
        "{published:?}"
    );
    fail.store(false, Ordering::SeqCst);
    assert_eq!(detachments(&platform), 0);

    let (person, details) = sensitive_event(&ty);
    let receipt = producer
        .publish(person, "bt", details, platform.clock().now())
        .unwrap();
    assert!(receipt.notified.is_empty(), "{receipt:?}");
    assert_eq!(detachments(&platform), 1);
    let delivered = AuditQuery::new().action(AuditAction::Delivery);
    assert!(platform.audit_query(&delivered).unwrap().is_empty());
    assert!(subscription.drain().unwrap().is_empty());
    platform.verify_audit().unwrap();
}
