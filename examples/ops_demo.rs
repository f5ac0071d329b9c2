//! A live platform with its ops plane up — scrape it while it runs.
//!
//! Run with: `cargo run --example ops_demo`
//!
//! Boots an in-memory platform with `ops_server` on an ephemeral port,
//! keeps publishing blood-test events, and prints the endpoints to
//! curl. `CSS_OPS_ADDR` picks the listen address; the process exits on
//! its own after `CSS_OPS_DEMO_SECS` (default 600) so a forgotten demo
//! cannot leak a server.

use std::sync::Arc;
use std::time::Duration;

use css::monitor::{ProcessDefinition, ProcessMonitor};
use css::prelude::*;

fn main() -> CssResult<()> {
    let monitor = Arc::new(parking_lot::Mutex::new(ProcessMonitor::new()));
    monitor.lock().register(ProcessDefinition::elderly_care());

    let addr = std::env::var("CSS_OPS_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let mut platform = CssPlatformBuilder::new()
        .tracing(1024)
        .ops_server(addr)
        .ops_sample_interval(Duration::from_millis(250))
        .ops_monitor(monitor.clone())
        .build()?;
    println!("data plane shards: {}", platform.shard_count());

    let hospital = platform.register_organization("Hospital S. Maria")?;
    let doctor = platform.register_organization("Family Doctor")?;
    platform.join(hospital, Role::Producer)?;
    platform.join(doctor, Role::Consumer)?;

    let ty = EventTypeId::v1("blood-test");
    let schema = EventSchema::new(ty.clone(), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive());
    let producer = platform.producer(hospital)?;
    producer.declare(&schema, None)?;
    producer
        .policy_wizard(&ty)?
        .select_fields(["PatientId", "Result"])?
        .grant_to([doctor])?
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "treatment access")
        .save()?;
    let consumer = platform.consumer(doctor)?;
    let sub = consumer.subscribe(&ty)?;

    let ops = platform.ops().expect("ops server enabled");
    println!("ops plane listening at http://{}", ops.local_addr());
    println!("  curl http://{}/metrics", ops.local_addr());
    println!("  curl http://{}/health", ops.local_addr());
    println!("  curl http://{}/slo", ops.local_addr());
    println!(
        "  curl 'http://{}/query?metric=stage.total&fn=p99'",
        ops.local_addr()
    );
    println!(
        "  curl 'http://{}/range?metric=stage.total&res=minute'",
        ops.local_addr()
    );
    println!("  curl http://{}/traces", ops.local_addr());
    println!("  curl http://{}/monitor", ops.local_addr());
    println!("  curl http://{}/debug/exemplars", ops.local_addr());
    println!("  curl http://{}/debug/incidents", ops.local_addr());
    println!("  curl -X POST http://{}/debug/capture", ops.local_addr());

    let secs: u64 = std::env::var("CSS_OPS_DEMO_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600);
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    let mut i = 0u64;
    while std::time::Instant::now() < deadline {
        i += 1;
        let person = PersonIdentity {
            id: PersonId(i % 50 + 1),
            fiscal_code: format!("FC{:014}", i % 50 + 1),
            name: "Demo".into(),
            surname: format!("Subject{}", i % 50 + 1),
        };
        let details = EventDetails::new(ty.clone())
            .with("PatientId", FieldValue::Integer((i % 50 + 1) as i64))
            .with("Result", FieldValue::Text("negative".into()));
        producer.publish(person, format!("bt-{i}"), details, platform.clock().now())?;
        if let Some(n) = sub.next()? {
            consumer.request_details(&n.message, Purpose::HealthcareTreatment)?;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    Ok(())
}
