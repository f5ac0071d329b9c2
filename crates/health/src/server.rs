//! The ops exposition server: an HTTP/1.0 endpoint on
//! `std::net::TcpListener`, std and the lock shim alone.
//!
//! Deliberately minimal: one accept thread feeding a small fixed pool
//! of handler threads over a bounded channel, a bounded request read
//! (8 KiB, 2 s timeout), `Connection: close` on every response. The
//! server holds no platform locks while reading from the network — it
//! only asks the [`OpsPlane`] after a request has fully parsed, so a
//! slow or malicious scraper cannot stall the platform.
//!
//! Everything served is an *aggregate* (counters, gauges, histogram
//! buckets, span timings, KPI totals). Payload bytes, decrypted
//! identifiers, and policy inputs never reach this module: the plane
//! is built from [`css_telemetry::TelemetrySnapshot`]s and the other
//! privacy-safe read models, none of which can name a detail payload
//! (enforced workspace-wide by `css-lint`'s detail-confinement rule,
//! which covers this crate).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use css_trace::render_chrome_trace;
use parking_lot::Mutex;

use crate::bundle::exemplars_json;
use crate::plane::OpsPlane;
use crate::prometheus::render_prometheus;
use crate::query::{query_json, range_json};
use crate::recorder::Trigger;

/// Handler threads in the pool.
const POOL_SIZE: usize = 2;
/// Queued-but-unhandled connections before accept blocks.
const QUEUE_DEPTH: usize = 16;
/// Largest request head we will buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection read deadline.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// The exposition server. [`OpsServer::bind`] starts it and returns the
/// [`OpsHandle`] that owns its threads.
pub struct OpsServer;

impl OpsServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `plane`.
    pub fn bind(addr: impl ToSocketAddrs, plane: Arc<OpsPlane>) -> std::io::Result<OpsHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(QUEUE_DEPTH);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..POOL_SIZE)
            .map(|i| {
                let rx = rx.clone();
                let plane = plane.clone();
                std::thread::Builder::new()
                    .name(format!("css-ops-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &plane))
                    .expect("spawn ops worker")
            })
            .collect();

        let accept_stop = stop.clone();
        let accept = std::thread::Builder::new()
            .name("css-ops-accept".into())
            .spawn(move || accept_loop(&listener, &tx, &accept_stop))
            .expect("spawn ops acceptor");

        Ok(OpsHandle {
            plane,
            local_addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owns the server threads; dropping it shuts the server down
/// gracefully (stops accepting, drains the pool, joins every thread).
/// Dereferences to the [`OpsPlane`] it serves, so the handle is the
/// one in-process accessor: the bound address here, the SLO table,
/// captures, incidents, history queries and anomaly status there.
pub struct OpsHandle {
    plane: Arc<OpsPlane>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound address — with port 0 this is where the ephemeral
    /// port landed.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl std::ops::Deref for OpsHandle {
    type Target = OpsPlane;
    fn deref(&self) -> &OpsPlane {
        &self.plane
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept thread owned the channel sender; with it joined
        // the channel is closed and the workers drain and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // If the queue is full the connection is dropped — the
                // scraper retries on its next interval; the platform
                // never queues unboundedly for an observer.
                let _ = tx.try_send(stream);
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, plane: &OpsPlane) {
    loop {
        let stream = rx.lock().recv();
        match stream {
            Ok(stream) => handle_connection(stream, plane),
            Err(_) => return, // channel closed: shutting down
        }
    }
}

fn handle_connection(mut stream: TcpStream, plane: &OpsPlane) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match read_request_head(&mut stream) {
        Some(head) => head,
        None => {
            respond(&mut stream, 400, "text/plain", "bad request");
            return;
        }
    };
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Split off the query string; `/query` and `/range` read it, the
    // rest ignore it (`/metrics?ts=1` scrapes are common).
    let (path, raw_query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    // The one mutating endpoint: a manual flight-recorder capture.
    // Everything else is read-only and GET.
    if path == "/debug/capture" {
        if method == "POST" {
            let reason = "POST /debug/capture".to_string();
            let bundle = plane.capture(Trigger::Manual { reason }).json;
            respond(&mut stream, 200, "application/json", &bundle);
        } else {
            respond(
                &mut stream,
                405,
                "text/plain",
                "method not allowed: use POST",
            );
        }
        return;
    }
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", "method not allowed");
        return;
    }
    let json = |stream: &mut TcpStream, body: String| {
        respond(stream, 200, "application/json", &body);
    };
    match path {
        "/metrics" => {
            let body = render_prometheus(&plane.snapshot());
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/health" => {
            let report = plane.health();
            let code = if report.is_serving() { 200 } else { 503 };
            respond(&mut stream, code, "application/json", &report.to_json());
        }
        "/slo" => json(&mut stream, plane.slo_json()),
        "/traces" => json(
            &mut stream,
            render_chrome_trace(&plane.tracer.finished_spans()),
        ),
        "/monitor" => json(&mut stream, plane.monitor_json()),
        "/debug/incidents" => json(&mut stream, plane.recorder.incidents_json()),
        "/debug/exemplars" => json(&mut stream, exemplars_json(&plane.snapshot())),
        "/query" => json(&mut stream, query_json(&plane.history, raw_query)),
        "/range" => json(&mut stream, range_json(&plane.history, raw_query)),
        _ => respond(
            &mut stream,
            404,
            "application/json",
            r#"{"error":"not found","endpoints":["/metrics","/health","/slo","/query","/range","/traces","/monitor","/debug/incidents","/debug/exemplars","/debug/capture"]}"#,
        ),
    }
}

/// Read until the end of the request head (`\r\n\r\n`), within the
/// size bound and read timeout. Returns the first request line.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed after (or mid-) request
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None, // timeout or reset
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let first_line = head.lines().next()?.trim().to_string();
    if first_line.is_empty() {
        None
    } else {
        Some(first_line)
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::{rig, Rig};
    use css_types::Clock;

    fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "{method} {path} HTTP/1.0\r\nHost: x\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status code")
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

    fn serve(tag: &str) -> (Rig, OpsHandle) {
        let rig = rig(tag);
        let handle = OpsServer::bind("127.0.0.1:0", rig.plane.clone()).expect("bind ephemeral");
        (rig, handle)
    }

    #[test]
    fn serves_all_endpoints() {
        let (rig, handle) = serve("endpoints");
        rig.registry.counter("controller.published").add(9);
        rig.plane.tracer.root("publish", rig.clock.now()).finish();
        let addr = handle.local_addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("css_controller_published_total 9"), "{body}");

        let (code, body) = get(addr, "/health");
        assert_eq!(code, 200);
        assert!(body.contains(r#""status":"healthy""#), "{body}");

        let (code, body) = get(addr, "/slo");
        assert_eq!(code, 200);
        assert!(body.starts_with(r#"{"ticks":0,"#), "{body}");
        assert!(body.contains(r#""name":"detail_request_p99""#), "{body}");

        let (code, body) = get(addr, "/traces");
        assert_eq!(code, 200);
        assert!(
            body.contains(r#"{"name":"publish","cat":"css","ph":"B""#),
            "{body}"
        );

        let (code, body) = get(addr, "/monitor");
        assert_eq!(code, 200);
        assert_eq!(body, r#"{"total":7}"#);

        let (code, body) = get(addr, "/nope");
        assert_eq!(code, 404);
        assert!(body.contains("/metrics"), "{body}");
    }

    #[test]
    fn unhealthy_rollup_returns_503_with_reason() {
        let (rig, handle) = serve("503");
        rig.storage_down.store(true, Ordering::SeqCst);
        let (code, body) = get(handle.local_addr(), "/health");
        assert_eq!(code, 503);
        assert!(body.contains(r#""reason":"probe read mismatch""#), "{body}");
    }

    #[test]
    fn debug_endpoints_serve_and_capture() {
        let (rig, handle) = serve("debug");
        let addr = handle.local_addr();

        // An idle plane serves empty documents, not errors.
        let (code, body) = get(addr, "/debug/incidents");
        assert_eq!(code, 200);
        assert_eq!(body, r#"{"incidents":[]}"#);
        let (code, body) = get(addr, "/debug/exemplars");
        assert_eq!(code, 200);
        assert_eq!(body, r#"{"exemplars":[]}"#);

        rig.registry
            .histogram("stage.total")
            .record_with_exemplar(1_000, 0xFF, 7);
        let (code, body) = get(addr, "/debug/exemplars");
        assert_eq!(code, 200);
        assert!(body.contains("00000000000000ff"), "{body}");

        let (code, body) = http(addr, "POST", "/debug/capture");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains(r#""kind":"manual""#), "{body}");
        assert!(body.contains(r#""reason":"POST /debug/capture""#), "{body}");
        assert_eq!(rig.plane.incidents().len(), 1);

        // Capture mutates: a GET must not trigger it.
        let (code, _) = get(addr, "/debug/capture");
        assert_eq!(code, 405);
        assert_eq!(rig.plane.incidents().len(), 1);

        let (code, body) = get(addr, "/debug/incidents");
        assert_eq!(code, 200);
        assert!(body.contains(r#""seq":1"#), "{body}");
    }

    #[test]
    fn query_endpoints_receive_the_query_string() {
        let (rig, handle) = serve("query");
        rig.plane.tick();
        rig.step(1_000);
        let addr = handle.local_addr();

        let (code, body) = get(addr, "/query?metric=stage.total&fn=p99");
        assert_eq!(code, 200);
        assert!(body.contains(r#""fn":"quantile_over_time""#), "{body}");
        assert!(body.contains(r#""value":1023.0000"#), "{body}");

        let (code, body) = get(addr, "/range?metric=stage.total&res=raw");
        assert_eq!(code, 200);
        assert!(body.contains(r#""resolution":"raw""#), "{body}");
        assert!(body.contains(r#""count":100"#), "{body}");

        // No query string at all still reaches the query layer, which
        // answers with its own error document.
        let (code, body) = get(addr, "/query");
        assert_eq!(code, 200);
        assert!(body.contains("missing required param: metric"), "{body}");
    }

    #[test]
    fn non_get_is_rejected() {
        let (_rig, handle) = serve("post");
        let (code, _) = http(handle.local_addr(), "POST", "/metrics");
        assert_eq!(code, 405);
    }

    #[test]
    fn oversized_request_head_is_rejected() {
        let (_rig, handle) = serve("oversized");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        // A header that never terminates, larger than the bound. The
        // server answers 400 and closes mid-upload, so the client may
        // instead observe a reset — either way, no oversized request
        // is served.
        write!(stream, "GET /metrics HTTP/1.0\r\nX-Pad: ").expect("write");
        let pad = vec![b'a'; MAX_REQUEST_BYTES + 1024];
        let _ = stream.write_all(&pad);
        let mut response = String::new();
        match stream.read_to_string(&mut response) {
            Ok(_) => assert!(response.starts_with("HTTP/1.0 400"), "{response}"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }
    }

    #[test]
    fn drop_shuts_down_and_joins() {
        let (rig, handle) = serve("drop");
        let (code, _) = get(handle.local_addr(), "/health");
        assert_eq!(code, 200);
        drop(handle); // must not hang
        assert_eq!(Arc::strong_count(&rig.plane), 1, "every worker joined");
        // A fresh server can bind and serve again immediately.
        let handle = OpsServer::bind("127.0.0.1:0", rig.plane.clone()).expect("rebind");
        let (code, _) = get(handle.local_addr(), "/health");
        assert_eq!(code, 200);
    }
}
