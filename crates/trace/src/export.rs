//! The span exporter: Chrome `trace_event` JSON loadable in
//! `about:tracing` or [Perfetto](https://ui.perfetto.dev) — the body of
//! the ops plane's `GET /traces`.

use std::collections::BTreeMap;

use css_telemetry::JsonBuf;

use crate::id::TraceId;
use crate::span::Span;

/// Render spans as Chrome `trace_event` JSON (duration `B`/`E` pairs).
///
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Every trace gets its own `tid` lane so concurrent requests don't
/// interleave; `ts` is microseconds with nanosecond fractions. Events
/// are emitted in an order that satisfies the format's stack
/// discipline: sorted by timestamp, with `E` events before `B` events
/// at equal timestamps, inner `E`s closing before outer ones, and
/// outer `B`s opening before inner ones.
pub fn render_chrome_trace(spans: &[Span]) -> String {
    // tid = first-seen index of the span's trace, for stable lanes.
    let mut lanes: BTreeMap<TraceId, usize> = BTreeMap::new();
    for span in spans {
        let next = lanes.len() + 1;
        lanes.entry(span.trace).or_insert(next);
    }

    // (ts_ns, kind, depth-tiebreak start_ns, span)
    enum Kind {
        Begin,
        End,
    }
    let mut events: Vec<(u64, Kind, u64, &Span)> = Vec::with_capacity(spans.len() * 2);
    for span in spans {
        events.push((span.start_ns, Kind::Begin, span.start_ns, span));
        events.push((span.end_ns, Kind::End, span.start_ns, span));
    }
    events.sort_by(|a, b| {
        a.0.cmp(&b.0).then_with(|| match (&a.1, &b.1) {
            // At the same instant, close spans before opening new ones.
            (Kind::End, Kind::Begin) => std::cmp::Ordering::Less,
            (Kind::Begin, Kind::End) => std::cmp::Ordering::Greater,
            // Two begins: the outer (earlier-started… same ts, so fall
            // back to span id order = creation order) opens first.
            (Kind::Begin, Kind::Begin) => a.3.id.cmp(&b.3.id),
            // Two ends: the inner (later-started) closes first.
            (Kind::End, Kind::End) => b.2.cmp(&a.2).then(b.3.id.cmp(&a.3.id)),
        })
    });

    let mut j = JsonBuf::new();
    j.begin_object().key("traceEvents").begin_array();
    for (ts_ns, kind, _, span) in &events {
        j.begin_object();
        j.key("name").string(span.name);
        j.key("cat").string("css");
        j.key("ph").string(match kind {
            Kind::Begin => "B",
            Kind::End => "E",
        });
        // Microseconds with the nanoseconds as three decimals: not a
        // float the writer could format, so spelled out and embedded.
        j.key("ts")
            .raw(&format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000));
        j.key("pid").u64(1);
        j.key("tid").u64(lanes[&span.trace] as u64);
        if let Kind::Begin = kind {
            j.key("args").begin_object();
            j.key("trace").string(&span.trace.to_string());
            j.key("status").string(span.status.code());
            for attr in &span.attrs {
                j.key(attr.key()).string(&attr.render_value());
            }
            j.end_object();
        }
        j.end_object();
    }
    j.end_array().end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SpanId;
    use crate::span::{SpanAttr, SpanStatus};
    use css_types::GlobalEventId;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            start_ns: start,
            end_ns: end,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_has_matched_begin_end_pairs() {
        let spans = vec![
            span(1, 1, None, "publish", 0, 100_000),
            span(1, 2, Some(1), "bus.route", 10_000, 50_000),
        ];
        let json = render_chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn chrome_trace_ts_is_microseconds_with_ns_fraction() {
        let spans = vec![span(1, 1, None, "x", 1_234, 5_678)];
        let json = render_chrome_trace(&spans);
        assert!(json.contains("\"ts\":1.234"), "{json}");
        assert!(json.contains("\"ts\":5.678"), "{json}");
    }

    #[test]
    fn chrome_trace_closes_inner_spans_first_at_ties() {
        // Parent and child end at the same instant: the child's E must
        // come first for the viewer's stack to balance.
        let spans = vec![
            span(1, 1, None, "outer", 0, 100),
            span(1, 2, Some(1), "inner", 50, 100),
        ];
        let json = render_chrome_trace(&spans);
        let inner_end = json
            .find("\"name\":\"inner\",\"cat\":\"css\",\"ph\":\"E\"")
            .unwrap();
        let outer_end = json
            .find("\"name\":\"outer\",\"cat\":\"css\",\"ph\":\"E\"")
            .unwrap();
        assert!(inner_end < outer_end, "{json}");
    }

    #[test]
    fn chrome_trace_separates_traces_into_lanes() {
        let spans = vec![span(7, 1, None, "a", 0, 10), span(9, 2, None, "b", 5, 15)];
        let json = render_chrome_trace(&spans);
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"tid\":2"));
    }

    /// Bytes pinned from the writer this module had before it went
    /// through `JsonBuf`: escapes in names and attribute values, every
    /// attribute kind, a denied status, a zero-width span, two lanes.
    #[test]
    fn chrome_trace_bytes_are_pinned() {
        use css_types::{ActorId, EventTypeId, Purpose};
        let mut root = span(
            0x2a00000001,
            1,
            None,
            "detail \"request\"\n",
            1_234,
            905_678,
        );
        root.attrs.push(SpanAttr::event(GlobalEventId(9)));
        root.attrs
            .push(SpanAttr::event_type(&EventTypeId::v1("blood-test")));
        root.attrs.push(SpanAttr::actor(ActorId(7)));
        root.attrs
            .push(SpanAttr::purpose(&Purpose::HealthcareTreatment));
        let mut pdp = span(
            0x2a00000001,
            2,
            Some(1),
            "pep.pdp_evaluate",
            10_000,
            905_678,
        );
        pdp.status = SpanStatus::Denied;
        pdp.attrs.push(SpanAttr::decision(false));
        pdp.attrs.push(SpanAttr::cache_hit(true));
        pdp.attrs.push(SpanAttr::stage("tab\tbed\\"));
        let other = span(0x2a00000002, 3, None, "publish\u{1}", 5_000, 5_000);
        assert_eq!(
            render_chrome_trace(&[pdp, root, other]),
            concat!(
                r#"{"traceEvents":[{"name":"detail \"request\"\n","cat":"css","ph":"B","ts":1.234,"pid":1,"tid":1,"#,
                r#""args":{"trace":"0000002a00000001","status":"ok","event":"9","event_type":"blood-test@v1","#,
                r#""actor":"7","purpose":"healthcare-treatment"}},"#,
                r#"{"name":"publish\u0001","cat":"css","ph":"E","ts":5.000,"pid":1,"tid":2},"#,
                r#"{"name":"publish\u0001","cat":"css","ph":"B","ts":5.000,"pid":1,"tid":2,"#,
                r#""args":{"trace":"0000002a00000002","status":"ok"}},"#,
                r#"{"name":"pep.pdp_evaluate","cat":"css","ph":"B","ts":10.000,"pid":1,"tid":1,"#,
                r#""args":{"trace":"0000002a00000001","status":"denied","decision":"deny","cache_hit":"true","#,
                r#""stage":"tab\tbed\\"}},"#,
                r#"{"name":"pep.pdp_evaluate","cat":"css","ph":"E","ts":905.678,"pid":1,"tid":1},"#,
                r#"{"name":"detail \"request\"\n","cat":"css","ph":"E","ts":905.678,"pid":1,"tid":1}]}"#,
            )
        );
    }
}
