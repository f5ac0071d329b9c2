//! The query layer: URL-style query strings in, JSON documents out.
//!
//! Everything returned is an aggregate over retained telemetry — metric
//! names, timestamps, counts, and nanosecond estimates; no identifier,
//! payload field, or policy input ever enters the store, so none can
//! leave it. The two documents back the ops server's `GET /query`
//! (function evaluation: `rate`, `delta`, `quantile_over_time`, instant
//! and stepped) and `GET /range` (the retained slots themselves).

use css_telemetry::JsonBuf;

use crate::anomaly::AnomalyDetector;
use crate::history::{Aggregate, Chronicle, MetricKind, Resolution};

/// Parsed `key=value` pairs from a raw query string. No percent
/// decoding: metric names are dotted identifiers by construction.
fn param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn num(query: &str, key: &str) -> Option<u64> {
    param(query, key).and_then(|v| v.parse().ok())
}

fn error_json(message: &str, chronicle: &Chronicle) -> String {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("error").string(message);
    j.key("metrics").begin_array();
    for (name, kind) in chronicle.series_names() {
        j.begin_object();
        j.key("metric").string(&name);
        j.key("kind").string(kind.label());
        j.end_object();
    }
    j.end_array().end_object();
    j.finish()
}

struct Target {
    metric: String,
    kind: MetricKind,
    res: Resolution,
    from_ms: u64,
    to_ms: u64,
}

/// Resolve the shared `metric`/`res`/`from`/`to` params; `from`/`to`
/// default to the full retained window at the chosen resolution.
fn resolve(chronicle: &Chronicle, query: &str) -> Result<Target, String> {
    let metric = param(query, "metric").ok_or("missing required param: metric")?;
    let kind = chronicle
        .kind(metric)
        .ok_or_else(|| format!("unknown metric: {metric}"))?;
    let from_ms = num(query, "from").unwrap_or(0);
    let to_ms = num(query, "to").unwrap_or(u64::MAX);
    let res = match param(query, "res") {
        None => chronicle.auto_resolution(metric, from_ms),
        Some(s) => Resolution::parse(s).ok_or_else(|| format!("bad res: {s} (raw|minute|hour)"))?,
    };
    Ok(Target {
        metric: metric.to_string(),
        kind,
        res,
        from_ms,
        to_ms,
    })
}

/// Evaluate one query function over a window.
fn eval(chronicle: &Chronicle, t: &Target, func: &str, q: f64, from: u64, to: u64) -> Option<f64> {
    match func {
        "last" => chronicle.merged(&t.metric, t.res, from, to).map(|a| a.last),
        "min" => chronicle.merged(&t.metric, t.res, from, to).map(|a| a.min),
        "max" => chronicle.merged(&t.metric, t.res, from, to).map(|a| a.max),
        "avg" | "mean" => chronicle
            .merged(&t.metric, t.res, from, to)
            .map(|a| a.mean()),
        "rate" => chronicle.rate(&t.metric, t.res, from, to),
        "delta" => chronicle.delta(&t.metric, t.res, from, to),
        "quantile_over_time" | "quantile" => chronicle
            .quantile_over_time(&t.metric, q, t.res, from, to)
            .map(|ns| ns as f64),
        _ => None,
    }
}

/// `GET /query`: evaluate `fn` (default `last`) over `[from, to]`.
/// With `step`, the window is cut into `step`-wide slices and the
/// function is evaluated per slice (`points` array); without, one
/// `value` comes back. `fn=quantile_over_time` reads `q` (default
/// 0.99). Unknown metrics and malformed params answer with an `error`
/// document listing the retained metrics.
pub(crate) fn query_json(chronicle: &Chronicle, query: &str) -> String {
    let t = match resolve(chronicle, query) {
        Ok(t) => t,
        Err(e) => return error_json(&e, chronicle),
    };
    let q = param(query, "q").and_then(|v| v.parse().ok());
    // Shorthand: fn=p99 is quantile_over_time with the fixed q.
    let (func, q) = match param(query, "fn") {
        None => ("last", q),
        Some("p50") => ("quantile_over_time", Some(0.50)),
        Some("p90") => ("quantile_over_time", Some(0.90)),
        Some("p99") => ("quantile_over_time", Some(0.99)),
        Some(f) => (f, q),
    };
    let q: f64 = q.unwrap_or(0.99);
    if !known_fn(func) {
        return error_json(
            &format!("bad fn: {func} (last|min|max|avg|rate|delta|quantile_over_time)"),
            chronicle,
        );
    }

    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("metric").string(&t.metric);
    j.key("kind").string(t.kind.label());
    j.key("resolution").string(t.res.label());
    j.key("fn").string(func);
    if func.starts_with("quantile") {
        j.key("q").f64(q);
    }
    j.key("from_ms").u64(t.from_ms);
    j.key("to_ms").u64(t.to_ms.min(9_007_199_254_740_991)); // JSON-safe
    match num(query, "step") {
        None => {
            j.key("samples")
                .u64(chronicle.window(&t.metric, t.res, t.from_ms, t.to_ms).len() as u64);
            j.key("value");
            match eval(chronicle, &t, func, q, t.from_ms, t.to_ms) {
                Some(v) => j.f64(v),
                None => j.f64(f64::NAN), // renders null: empty window
            };
        }
        Some(step) => {
            let step = step.max(1);
            j.key("step_ms").u64(step);
            j.key("points").begin_array();
            let mut start = t.from_ms;
            // Bound the slice count so a hostile step cannot spin the
            // worker; the rings hold bounded slots anyway.
            let mut slices = 0;
            while start <= t.to_ms && slices < 10_000 {
                let end = start.saturating_add(step - 1).min(t.to_ms);
                if let Some(v) = eval(chronicle, &t, func, q, start, end) {
                    j.begin_object();
                    j.key("t").u64(start);
                    j.key("value").f64(v);
                    j.end_object();
                }
                if end == u64::MAX {
                    break;
                }
                start = end + 1;
                slices += 1;
            }
            j.end_array();
        }
    }
    j.end_object();
    j.finish()
}

fn known_fn(func: &str) -> bool {
    matches!(
        func,
        "last"
            | "min"
            | "max"
            | "avg"
            | "mean"
            | "rate"
            | "delta"
            | "quantile_over_time"
            | "quantile"
    )
}

fn write_aggregate(j: &mut JsonBuf, a: &Aggregate, kind: MetricKind) {
    j.begin_object();
    j.key("from_ms").u64(a.from_ms);
    j.key("to_ms").u64(a.to_ms);
    j.key("count").u64(a.count);
    j.key("sum").f64(a.sum);
    j.key("min").f64(a.min);
    j.key("max").f64(a.max);
    j.key("last").f64(a.last);
    if kind == MetricKind::Histogram {
        j.key("p50_ns").u64(a.quantile_ns(0.50).unwrap_or(0));
        j.key("p99_ns").u64(a.quantile_ns(0.99).unwrap_or(0));
    }
    j.end_object();
}

/// `GET /range`: the retained slots of one metric over `[from, to]` at
/// `res` (default: the finest resolution that still covers `from`),
/// oldest first, each with count/sum/min/max/last and — for histograms
/// — per-slot p50/p99 from the merged delta buckets.
pub(crate) fn range_json(chronicle: &Chronicle, query: &str) -> String {
    let t = match resolve(chronicle, query) {
        Ok(t) => t,
        Err(e) => return error_json(&e, chronicle),
    };
    let slots = chronicle.window(&t.metric, t.res, t.from_ms, t.to_ms);
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("metric").string(&t.metric);
    j.key("kind").string(t.kind.label());
    j.key("resolution").string(t.res.label());
    j.key("points").begin_array();
    for slot in &slots {
        write_aggregate(&mut j, slot, t.kind);
    }
    j.end_array();
    j.end_object();
    j.finish()
}

/// The history window an incident bundle embeds: the detector's view
/// and the raw slots of the metric it watches over `[from, to]`.
/// Compact by construction — bounded rings, aggregate-only.
pub(crate) fn history_json(
    chronicle: &Chronicle,
    detector: &AnomalyDetector,
    from_ms: u64,
    to_ms: u64,
) -> String {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("from_ms").u64(from_ms);
    j.key("to_ms").u64(to_ms);
    let s = detector.status();
    j.key("anomaly").begin_object();
    j.key("metric").string(&s.metric);
    j.key("anomalous").bool(s.anomalous);
    j.key("value").f64(s.value);
    j.key("expected").f64(s.expected);
    j.key("edges").u64(s.edges);
    j.end_object();
    j.key("series").begin_array();
    if let Some(kind) = chronicle.kind(&s.metric) {
        j.begin_object();
        j.key("metric").string(&s.metric);
        j.key("kind").string(kind.label());
        j.key("resolution").string(Resolution::Raw.label());
        j.key("points").begin_array();
        for slot in chronicle.window(&s.metric, Resolution::Raw, from_ms, to_ms) {
            write_aggregate(&mut j, &slot, kind);
        }
        j.end_array();
        j.end_object();
    }
    j.end_array().end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::SnapshotDelta;
    use crate::history::Retention;
    use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
    use css_types::Timestamp;

    fn seeded() -> Chronicle {
        let registry = MetricsRegistry::new();
        let chronicle = Chronicle::new(Retention::default(), &registry);
        let work = MetricsRegistry::new();
        let mut prev = TelemetrySnapshot::default();
        for i in 1..=10u64 {
            work.counter("bus.published").add(10);
            work.gauge("bus.queue_depth").set(i as i64);
            let ns = if i <= 8 { 1_000 } else { 4_000_000 };
            work.histogram("stage.total").record(ns);
            let cur = work.snapshot();
            let delta = SnapshotDelta::between(&prev, &cur);
            chronicle.append(&cur, &delta, Timestamp(i * 1_000));
            prev = cur;
        }
        chronicle
    }

    #[test]
    fn instant_query_evaluates_functions() {
        let c = seeded();
        let json = query_json(&c, "metric=bus.published&fn=rate&res=raw");
        assert!(json.contains(r#""metric":"bus.published""#), "{json}");
        assert!(json.contains(r#""kind":"counter""#), "{json}");
        // 90 events over 9 s.
        assert!(json.contains(r#""value":10.0000"#), "{json}");

        let json = query_json(&c, "metric=stage.total&fn=quantile_over_time&q=0.99");
        assert!(json.contains(r#""q":0.9900"#), "{json}");
        let value: f64 = json
            .split(r#""value":"#)
            .nth(1)
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .expect("value");
        assert!(value >= 4_000_000.0, "{json}");
    }

    #[test]
    fn stepped_query_returns_per_slice_points() {
        let c = seeded();
        let json = query_json(
            &c,
            "metric=bus.queue_depth&fn=max&from=1000&to=10000&step=5000",
        );
        assert!(json.contains(r#""step_ms":5000"#), "{json}");
        assert!(
            json.contains(r#""points":[{"t":1000,"value":5.0000}"#),
            "{json}"
        );
        assert!(json.contains(r#"{"t":6000,"value":10.0000}"#), "{json}");
    }

    #[test]
    fn p99_shorthand_matches_quantile() {
        let c = seeded();
        let shorthand = query_json(&c, "metric=stage.total&fn=p99&res=raw");
        let explicit = query_json(
            &c,
            "metric=stage.total&fn=quantile_over_time&q=0.99&res=raw",
        );
        let value = |j: &str| {
            j.split(r#""value":"#)
                .nth(1)
                .map(|s| s.split(['}']).next().unwrap_or("").to_string())
        };
        assert_eq!(value(&shorthand), value(&explicit));
    }

    #[test]
    fn errors_list_the_retained_metrics() {
        let c = seeded();
        let json = query_json(&c, "metric=no.such");
        assert!(
            json.contains(r#""error":"unknown metric: no.such""#),
            "{json}"
        );
        assert!(json.contains(r#""metric":"stage.total""#), "{json}");
        let json = query_json(&c, "fn=rate");
        assert!(json.contains("missing required param"), "{json}");
        let json = query_json(&c, "metric=stage.total&fn=explode");
        assert!(json.contains(r#""error":"bad fn: explode"#), "{json}");
        let json = query_json(&c, "metric=stage.total&res=weekly");
        assert!(json.contains(r#""error":"bad res: weekly"#), "{json}");
    }

    #[test]
    fn range_dumps_slots_with_histogram_quantiles() {
        let c = seeded();
        let json = range_json(&c, "metric=stage.total&res=raw");
        assert!(json.contains(r#""resolution":"raw""#), "{json}");
        assert!(json.contains(r#""p99_ns":"#), "{json}");
        let json = range_json(&c, "metric=bus.queue_depth&res=minute");
        assert!(json.contains(r#""resolution":"minute""#), "{json}");
        assert!(
            !json.contains("p99_ns"),
            "scalars carry no quantiles: {json}"
        );
    }

    #[test]
    fn history_embeds_series_and_detector_state() {
        let c = seeded();
        let detector = AnomalyDetector::new("stage.total");
        detector.observe(1_000.0);
        let json = history_json(&c, &detector, 0, u64::MAX);
        assert!(
            json.contains(r#""anomaly":{"metric":"stage.total""#),
            "{json}"
        );
        assert!(
            json.contains(r#""series":[{"metric":"stage.total""#),
            "{json}"
        );
        // A watched metric the store never saw leaves the series empty.
        let detector = AnomalyDetector::new("absent.metric");
        let json = history_json(&c, &detector, 0, u64::MAX);
        assert!(json.ends_with(r#""series":[]}"#), "{json}");
    }
}
