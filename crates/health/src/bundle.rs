//! Incident bundle serialization.
//!
//! Everything written here is an aggregate, a name, or a privacy-safe
//! span attribute. The only free-form strings are SLO/component names,
//! health-check reasons, and manual-capture reasons — all of which are
//! authored by operators/checks, never derived from event payloads
//! (the identity-taint lint rule treats `capture` as a sink to keep it
//! that way).

use std::collections::BTreeMap;

use css_telemetry::{JsonBuf, TelemetrySnapshot};
use css_trace::Span;

use crate::recorder::{IncidentRef, Trigger};

/// Exemplar-linked span trees included per bundle.
const TRACES_PER_BUNDLE: usize = 8;

pub(crate) fn hex_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// The `/debug/exemplars` document: every histogram bucket exemplar in
/// the snapshot, as `(histogram, bucket, trace id, timestamp)` rows.
pub(crate) fn exemplars_json(snapshot: &TelemetrySnapshot) -> String {
    let mut j = JsonBuf::new();
    j.begin_object().key("exemplars").begin_array();
    write_exemplars(&mut j, snapshot);
    j.end_array().end_object();
    j.finish()
}

fn write_exemplars(j: &mut JsonBuf, snapshot: &TelemetrySnapshot) {
    for (name, h) in &snapshot.histograms {
        for e in &h.exemplars {
            j.begin_object();
            j.key("histogram").string(name);
            j.key("bucket_ns").u64(e.bucket_ns);
            j.key("trace_id").string(&hex_trace_id(e.trace_id));
            j.key("at_ms").u64(e.at_ms);
            j.end_object();
        }
    }
}

/// The `/debug/incidents` document.
pub(crate) fn incidents_json<'a>(incidents: impl Iterator<Item = &'a IncidentRef>) -> String {
    let mut j = JsonBuf::new();
    j.begin_object().key("incidents").begin_array();
    for i in incidents {
        j.begin_object();
        j.key("seq").u64(i.seq);
        j.key("at_ms").u64(i.at_ms);
        j.key("kind").string(i.kind);
        j.key("detail").string(&i.detail);
        if let Some(path) = &i.path {
            j.key("path").string(&path.display().to_string());
        }
        j.key("bytes").u64(i.bytes as u64);
        j.end_object();
    }
    j.end_array().end_object();
    j.finish()
}

/// Serialize one frozen incident. `frames` are the ring's frames, each
/// already a JSON object; `history` and the percentile `table` are the
/// chronicle's window around the capture, pre-serialized (aggregate-only,
/// [`history_json`](crate::query::history_json) and
/// [`percentiles_json`](crate::query::percentiles_json)). All three are
/// embedded verbatim.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bundle_json(
    seq: u64,
    at_ms: u64,
    trigger: &Trigger,
    frames: &[String],
    snapshot: &TelemetrySnapshot,
    spans: &[Span],
    history: &str,
    table: &str,
) -> String {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("schema").string("css-blackbox/1");
    j.key("seq").u64(seq);
    j.key("captured_at_ms").u64(at_ms);

    j.key("trigger").begin_object();
    j.key("kind").string(trigger.kind());
    j.key("detail").string(&trigger.detail());
    match trigger {
        Trigger::SloCritical { slo, fast_burn } => {
            j.key("slo").string(slo);
            j.key("fast_burn").f64(*fast_burn);
        }
        Trigger::Unhealthy { component, reason } => {
            j.key("component").string(component);
            j.key("reason").string(reason);
        }
        Trigger::Anomaly {
            metric,
            value,
            expected,
        } => {
            j.key("metric").string(metric);
            j.key("value").f64(*value);
            j.key("expected").f64(*expected);
        }
        Trigger::Manual { reason } => {
            j.key("reason").string(reason);
        }
    }
    j.end_object();

    j.key("history").raw(history);

    j.key("frames").begin_array();
    for frame in frames {
        j.raw(frame);
    }
    j.end_array();

    j.key("exemplars").begin_array();
    write_exemplars(&mut j, snapshot);
    j.end_array();

    j.key("traces").begin_array();
    write_exemplar_traces(&mut j, snapshot, spans);
    j.end_array();

    j.key("percentiles").raw(table);

    j.end_object();
    j.finish()
}

/// The span trees the bundle's exemplars point at: for each distinct
/// exemplar trace id (most recent first, bounded), every retained span
/// of that trace, parents before children as the tracer recorded them.
fn write_exemplar_traces(j: &mut JsonBuf, snapshot: &TelemetrySnapshot, spans: &[Span]) {
    let mut exemplar_ids: Vec<(u64, u64)> = Vec::new(); // (at_ms, trace_id)
    for h in snapshot.histograms.values() {
        for e in &h.exemplars {
            exemplar_ids.push((e.at_ms, e.trace_id));
        }
    }
    exemplar_ids.sort_unstable_by(|a, b| b.cmp(a));
    let mut picked: Vec<u64> = Vec::new();
    for (_, id) in exemplar_ids {
        if picked.len() >= TRACES_PER_BUNDLE {
            break;
        }
        if !picked.contains(&id) {
            picked.push(id);
        }
    }

    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if picked.contains(&span.trace.0) {
            by_trace.entry(span.trace.0).or_default().push(span);
        }
    }

    for id in picked {
        let Some(tree) = by_trace.get(&id) else {
            // Exemplar outlived the tracer's retained window: the id
            // still joins to the audit log, so emit it span-less.
            j.begin_object();
            j.key("trace_id").string(&hex_trace_id(id));
            j.key("spans").begin_array().end_array();
            j.end_object();
            continue;
        };
        j.begin_object();
        j.key("trace_id").string(&hex_trace_id(id));
        j.key("spans").begin_array();
        for span in tree {
            j.begin_object();
            j.key("span_id").u64(span.id.0);
            if let Some(parent) = span.parent {
                j.key("parent").u64(parent.0);
            }
            j.key("name").string(span.name);
            j.key("start_ns").u64(span.start_ns);
            j.key("duration_ns").u64(span.duration_ns());
            j.key("status").string(span.status.code());
            j.key("attrs").begin_array();
            for attr in &span.attrs {
                j.string(&attr.to_string());
            }
            j.end_array();
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::SnapshotDelta;
    use crate::history::Chronicle;
    use crate::query::percentiles_json;
    use css_telemetry::MetricsRegistry;

    #[test]
    fn exemplars_json_renders_hex_trace_ids() {
        let registry = MetricsRegistry::new();
        registry
            .histogram("stage.total")
            .record_with_exemplar(1_000, 0xFF, 7);
        let json = exemplars_json(&registry.snapshot());
        assert!(json.contains(r#""trace_id":"00000000000000ff""#), "{json}");
        assert!(json.contains(r#""histogram":"stage.total""#), "{json}");
    }

    #[test]
    fn bundle_includes_exemplar_span_tree() {
        let registry = MetricsRegistry::new();
        let tracer = css_trace::Tracer::new(64, &registry);
        let trace_id = {
            let root = tracer.root("detail_request", css_types::Timestamp(1));
            let _child = root.context().child("pdp_evaluate");
            root.trace_id().unwrap()
        };
        registry
            .histogram("stage.total")
            .record_with_exemplar(5_000_000, trace_id.value(), 1);
        let spans = tracer.finished_spans();
        let snapshot = registry.snapshot();
        let chronicle = Chronicle::new(&MetricsRegistry::new());
        let delta = SnapshotDelta::between(&TelemetrySnapshot::default(), &snapshot);
        chronicle.append(&snapshot, &delta, css_types::Timestamp(1), "stage.total");
        let json = bundle_json(
            1,
            2,
            &Trigger::Manual {
                reason: "t".to_string(),
            },
            &[],
            &snapshot,
            &spans,
            r#"{"series":[]}"#,
            &percentiles_json(&chronicle, 0, 2),
        );
        let hex = format!("{trace_id}");
        assert!(json.contains(&format!(r#""trace_id":"{hex}""#)), "{json}");
        assert!(json.contains(r#""name":"pdp_evaluate""#), "{json}");
        assert!(json.contains(r#""name":"detail_request""#), "{json}");
        assert!(
            json.contains(r#""percentiles":[{"histogram":"stage.total""#),
            "{json}"
        );
    }

    #[test]
    fn anomaly_trigger_embeds_the_history_window() {
        let registry = MetricsRegistry::new();
        let history = r#"{"from_ms":0,"to_ms":9,"series":[{"metric":"stage.total"}]}"#;
        let json = bundle_json(
            2,
            9,
            &Trigger::Anomaly {
                metric: "stage.total".to_string(),
                value: 5_000_000.0,
                expected: 52_000.0,
            },
            &[],
            &registry.snapshot(),
            &[],
            history,
            "[]",
        );
        assert!(json.contains(r#""kind":"anomaly""#), "{json}");
        assert!(json.contains(r#""metric":"stage.total""#), "{json}");
        assert!(
            json.contains(r#""history":{"from_ms":0,"to_ms":9"#),
            "{json}"
        );
        assert!(
            json.contains("anomalous: 5000000 vs expected 52000"),
            "{json}"
        );
    }
}
