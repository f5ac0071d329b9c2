//! The metrics chronicle end to end: boot a platform with
//! `.ops_server(..)` on a simulated clock, drive a two-minute latency
//! degradation through the sampler, and prove the history answers for
//! it — `quantile_over_time(stage.total, p99)` shows the regression
//! over HTTP at raw *and* one-minute resolution, the anomaly detector
//! flips the `chronicle-anomaly` health check to Degraded within two
//! sampler ticks, and the auto-captured incident bundle embeds the
//! history window — all without leaking a single payload field or
//! personal identifier.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use css::core::{CssPlatform, CssPlatformBuilder, MemoryProvider};
use css::prelude::*;

/// A payload value that must never appear in any query answer.
const SECRET_RESULT: &str = "SECRET-RESULT-positive-hiv";
/// A personal identifier that must never appear either.
const SECRET_FISCAL: &str = "FCSECRET0000007";

/// Simulated milliseconds between sampler ticks.
const TICK_MS: u64 = 5_000;
/// Healthy per-request latency (well under the 200 µs SLO objective).
const HEALTHY_NS: u64 = 100_000;
/// Degraded per-request latency (a 50× regression).
const DEGRADED_NS: u64 = 5_000_000;

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

/// Pull the `"value":<f64>` a `/query` answer carries.
fn query_value(body: &str) -> f64 {
    let at = body
        .find("\"value\":")
        .unwrap_or_else(|| panic!("value missing in {body}"));
    body[at + "\"value\":".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric value in {body}"))
}

fn assert_no_leak(context: &str, body: &str) {
    for secret in [SECRET_RESULT, SECRET_FISCAL, "Maria", "Rossi"] {
        assert!(
            !body.contains(secret),
            "{context} leaked {secret:?}: {body}"
        );
    }
}

// ---- platform under test --------------------------------------------------

fn incident_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("css-chronicle-int-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boot a chronicle-equipped platform on a simulated clock and push one
/// sensitive event through publish → deliver → detail request, so the
/// leak checks have something real to miss.
fn chronicle_platform(tag: &str) -> (CssPlatform<MemoryProvider>, SocketAddr, PathBuf, SimClock) {
    let dir = incident_dir(tag);
    // Start on a minute boundary so the degradation windows below can
    // be aligned to whole one-minute slots.
    let clock = SimClock::starting_at(Timestamp(60_000));
    let mut platform = CssPlatformBuilder::new()
        .clock(Arc::new(clock.clone()))
        .tracing(1024)
        .ops_server("127.0.0.1:0")
        .ops_sample_interval(StdDuration::from_millis(2))
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
    (platform, addr, dir, clock)
}

/// One controlled sampler step: advance simulated time by [`TICK_MS`],
/// record a burst of `stage.total` observations at `latency_ns`, and
/// block until the sampler has run at least twice — so at least one
/// tick saw the burst at the advanced timestamp.
fn step(
    platform: &CssPlatform<MemoryProvider>,
    addr: SocketAddr,
    clock: &SimClock,
    latency_ns: u64,
) {
    clock.advance(Duration::millis(TICK_MS));
    for _ in 0..100 {
        platform
            .metrics()
            .histogram("stage.total")
            .record(latency_ns);
    }
    let t0 = json_u64(&get(addr, "/slo").1, "ticks");
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while json_u64(&get(addr, "/slo").1, "ticks") < t0 + 2 {
        assert!(Instant::now() < deadline, "sampler stalled");
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

// ---- the tests ------------------------------------------------------------

/// The acceptance path of the chronicle: a forced two-minute
/// degradation is visible through `/query` as a p99 regression at raw
/// and one-minute resolution, flips the anomaly health check to
/// Degraded within two sampler ticks, and freezes an incident bundle
/// with the history window embedded — all aggregate-only.
#[test]
fn two_minute_degradation_is_queryable_and_captured() {
    let (platform, addr, dir, clock) = chronicle_platform("degradation");

    // Two simulated minutes of healthy traffic: warms the anomaly
    // detector past its 8-sample warmup and fills whole 1-minute slots.
    let healthy_from = clock.now().0 + TICK_MS;
    for _ in 0..30 {
        step(&platform, addr, &clock, HEALTHY_NS);
    }
    let healthy_to = clock.now().0;

    // The degradation, aligned to a minute boundary so the minute-tier
    // comparison below reads whole slots.
    let aligned = (clock.now().0 / 60_000 + 1) * 60_000;
    clock.set(Timestamp(aligned - TICK_MS));
    let degraded_from = aligned;
    let ticks_at_regression = json_u64(&get(addr, "/slo").1, "ticks");
    step(&platform, addr, &clock, DEGRADED_NS);

    // The anomaly check flipped Degraded within two sampler ticks of
    // the regression landing: `step` waited for exactly two ticks past
    // the burst, and the check already reports drift.
    let (_, health) = get(addr, "/health");
    assert!(health.contains("chronicle-anomaly"), "{health}");
    assert!(health.contains("drifting"), "{health}");
    let ticks_at_degraded = json_u64(&get(addr, "/slo").1, "ticks");
    assert!(
        ticks_at_degraded.saturating_sub(ticks_at_regression) <= 6,
        "drift took {} ticks to surface",
        ticks_at_degraded - ticks_at_regression
    );

    for _ in 0..25 {
        step(&platform, addr, &clock, DEGRADED_NS);
    }
    let degraded_to = clock.now().0;
    assert!(
        degraded_to - degraded_from >= 120_000,
        "degradation shorter than two minutes"
    );

    // p99 over the degraded window vs the healthy one, at raw
    // resolution…
    let healthy_raw = query_value(
        &get(
            addr,
            &format!(
                "/query?metric=stage.total&fn=p99&res=raw&from={healthy_from}&to={healthy_to}"
            ),
        )
        .1,
    );
    let degraded_raw = query_value(
        &get(
            addr,
            &format!(
                "/query?metric=stage.total&fn=p99&res=raw&from={degraded_from}&to={degraded_to}"
            ),
        )
        .1,
    );
    assert!(
        degraded_raw >= DEGRADED_NS as f64,
        "raw p99 missed the regression: {degraded_raw}"
    );
    assert!(
        healthy_raw < DEGRADED_NS as f64 / 10.0,
        "healthy raw p99 implausibly high: {healthy_raw}"
    );
    assert!(
        degraded_raw > healthy_raw * 10.0,
        "raw regression not visible: {degraded_raw} vs {healthy_raw}"
    );

    // …and at one-minute resolution (whole slots on both sides: the
    // healthy window ends a full minute before the degradation starts).
    let (_, degraded_minute_body) = get(
        addr,
        &format!(
            "/query?metric=stage.total&fn=p99&res=minute&from={degraded_from}&to={degraded_to}"
        ),
    );
    let degraded_minute = query_value(&degraded_minute_body);
    let healthy_minute = query_value(
        &get(
            addr,
            &format!(
                "/query?metric=stage.total&fn=p99&res=minute&from={healthy_from}&to={}",
                degraded_from - 60_001
            ),
        )
        .1,
    );
    assert!(
        degraded_minute >= DEGRADED_NS as f64,
        "minute p99 missed the regression: {degraded_minute}"
    );
    assert!(
        degraded_minute > healthy_minute * 10.0,
        "minute regression not visible: {degraded_minute} vs {healthy_minute}"
    );

    // The anomaly edge froze an incident bundle with the history
    // window embedded (the SLO-critical capture may land first; scan
    // for the anomaly-triggered one).
    let deadline = Instant::now() + StdDuration::from_secs(10);
    let bundle = loop {
        let anomaly_bundle = std::fs::read_dir(&dir)
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
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .find(|b| b.contains(r#""kind":"anomaly""#));
        if let Some(bundle) = anomaly_bundle {
            break bundle;
        }
        assert!(
            Instant::now() < deadline,
            "no anomaly bundle appeared in {}",
            dir.display()
        );
        std::thread::sleep(StdDuration::from_millis(2));
    };
    assert!(bundle.contains(r#""schema":"css-blackbox/1""#), "{bundle}");
    assert!(bundle.contains(r#""metric":"stage.total""#), "{bundle}");
    assert!(bundle.contains(r#""history":{"#), "{bundle}");
    assert!(
        bundle.contains(r#""anomaly":{"metric":"stage.total""#),
        "history carries the detector state: {bundle}"
    );
    assert!(
        bundle.contains(r#""series":[{"metric":"stage.total""#),
        "history carries the raw window: {bundle}"
    );

    // The platform-side accessor agrees with the HTTP view.
    let ops = platform.ops().expect("ops enabled");
    assert!(
        ops.quantile_over_time(
            "stage.total",
            0.99,
            css::core::Resolution::Minute,
            degraded_from,
            degraded_to,
        )
        .expect("degraded window retained")
            >= DEGRADED_NS
    );

    // Aggregates only, end to end.
    assert_no_leak("/query", &degraded_minute_body);
    assert_no_leak("/health", &health);
    assert_no_leak("incident bundle", &bundle);
    let (_, range) = get(addr, "/range?metric=stage.total&res=minute");
    assert_no_leak("/range", &range);
    assert!(range.contains(r#""p99_ns":"#), "{range}");
}

/// The history keeps up with the live sampler: every tick appends.
#[test]
fn every_sampler_tick_appends_to_the_history() {
    let (platform, addr, _dir, clock) = chronicle_platform("appends");
    // `step` fails on a stalled sampler and returns two ticks on: at
    // least two have run when `ticks` is read, and tick number `ticks`
    // has finished when the second `step` returns.
    step(&platform, addr, &clock, HEALTHY_NS);
    let ticks = json_u64(&get(addr, "/slo").1, "ticks");
    step(&platform, addr, &clock, HEALTHY_NS);
    let appends = platform.telemetry().counter("chronicle.appends");
    assert!(
        appends >= ticks,
        "appends lag the sampler: {appends} < {ticks}"
    );
}

/// `/query` and `/range` list the retained metrics on a bad request
/// instead of guessing.
#[test]
fn query_endpoints_degrade_gracefully() {
    let (platform, addr, _dir, clock) = chronicle_platform("graceful");
    step(&platform, addr, &clock, HEALTHY_NS);
    let (code, body) = get(addr, "/query?metric=no.such.metric");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""error":"unknown metric"#), "{body}");
    assert!(body.contains(r#""metric":"stage.total""#), "{body}");
    assert_no_leak("/query error document", &body);
}
