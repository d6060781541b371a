//! A minimal HTTP/1.1 scrape endpoint for the daemon's metrics.
//!
//! Hand-rolled on `std::net` — no dependencies — because it only has to
//! answer two fixed routes for a scraper on a trusted network:
//!
//! - `GET /metrics` — the full [`DaemonMetrics::render`] Prometheus
//!   text body.
//! - `GET /healthz` — `200 ok` while serving, `503 draining` with a
//!   `Retry-After` hint once shutdown began (so orchestrators stop
//!   routing to a dying daemon and know when to look again).
//!
//! Connections are handled one at a time with short socket timeouts:
//! a scrape is a sub-millisecond render of an in-memory registry, and a
//! stalled peer is cut off rather than allowed to wedge the listener.
//! The listener holds only the metrics registry (never the service), so
//! scrapes cannot contend with job execution or admission.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::DaemonMetrics;

/// How long one request may take to arrive or one response to drain.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The `Retry-After` hint (seconds) a draining `/healthz` sends: long
/// enough for a typical drain, short enough that a prober re-probes a
/// restarted daemon promptly.
pub(crate) const RETRY_AFTER_SECS: u64 = 2;

/// A listening metrics endpoint; stop it with
/// [`stop`](MetricsHandle::stop) then [`join`](MetricsHandle::join).
pub struct MetricsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<std::io::Result<()>>,
}

impl MetricsHandle {
    /// The address actually bound (resolves port 0 to the chosen port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit after its current accept.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection wakes it so it
        // observes the flag.
        drop(TcpStream::connect(self.addr));
    }

    /// Waits for the accept loop to exit.
    ///
    /// # Errors
    ///
    /// Propagates a listener I/O error from the accept loop.
    pub fn join(self) -> std::io::Result<()> {
        self.accept_thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("metrics accept loop panicked")))
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9100`, or port 0 for an ephemeral
/// port) and serves `/metrics` and `/healthz` from `metrics` until
/// stopped.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_metrics(metrics: Arc<DaemonMetrics>, addr: &str) -> std::io::Result<MetricsHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || -> std::io::Result<()> {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // One scrape at a time: render-and-write of an in-memory
            // body, bounded by the socket timeouts.
            let _ = handle_connection(stream, &metrics);
        }
        Ok(())
    });
    Ok(MetricsHandle {
        addr,
        stop,
        accept_thread,
    })
}

fn handle_connection(stream: TcpStream, metrics: &DaemonMetrics) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block; its content is irrelevant to both routes.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, extra_header, body) = route(method, path, metrics);
    respond(stream, status, content_type, extra_header, &body)
}

fn route(
    method: &str,
    path: &str,
    metrics: &DaemonMetrics,
) -> (&'static str, &'static str, Option<String>, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            None,
            "method not allowed\n".to_owned(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            None,
            metrics.render(),
        ),
        "/healthz" => {
            if metrics.healthy() {
                (
                    "200 OK",
                    "text/plain; charset=utf-8",
                    None,
                    "ok\n".to_owned(),
                )
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    Some(format!("Retry-After: {RETRY_AFTER_SECS}")),
                    "draining\n".to_owned(),
                )
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            None,
            "not found\n".to_owned(),
        ),
    }
}

fn respond(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    extra_header: Option<String>,
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(header) = extra_header {
        head.push_str(&header);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, target: &str) -> (String, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_owned();
        (status, head.to_owned(), body.to_owned())
    }

    #[test]
    fn routes_answer_and_drain_flips_healthz() {
        let metrics = Arc::new(DaemonMetrics::new(2, 8));
        let handle = serve_metrics(Arc::clone(&metrics), "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let (status, head, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        assert!(!head.contains("Retry-After"), "{head}");

        let (status, _, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("tridentd_workers 2\n"), "{body}");
        trident_prof::prom::lint(&body).unwrap();

        let (status, _, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        metrics.set_draining(true);
        let (status, head, body) = get(addr, "/healthz");
        assert!(status.contains("503"), "{status}");
        assert_eq!(body, "draining\n");
        assert!(
            head.contains(&format!("Retry-After: {RETRY_AFTER_SECS}")),
            "a draining daemon must hint when to re-probe: {head}"
        );

        handle.stop();
        handle.join().unwrap();
    }

    #[test]
    fn non_get_methods_are_refused() {
        let metrics = Arc::new(DaemonMetrics::new(1, 4));
        let handle = serve_metrics(metrics, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        handle.stop();
        handle.join().unwrap();
    }
}
