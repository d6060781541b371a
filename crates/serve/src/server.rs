//! Transport: line-delimited JSON over TCP.
//!
//! Each connection is thin framing around [`Service::handle`]: read a
//! line, decode a [`Request`], write the [`Response`] line. Malformed
//! or wrong-version lines are answered with a typed error and the
//! connection continues — one bad client line never takes the daemon
//! down.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::json::{self, BoundedLine};
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use crate::service::Service;

/// Answers every request line on `input`, writing one response line per
/// request to `output`, until end of input or a `shutdown` request.
/// Returns whether shutdown was requested — the caller decides whether
/// end-of-input alone should also drain the service.
///
/// # Errors
///
/// Propagates I/O errors on either stream.
pub(crate) fn serve_lines<R: BufRead, W: Write>(
    service: &Service,
    mut input: R,
    mut output: W,
) -> std::io::Result<bool> {
    loop {
        let line = match json::read_line_bounded(&mut input, json::MAX_LINE_BYTES)? {
            BoundedLine::Eof => break,
            // The oversized line was drained, so the stream stays
            // framed — answer and keep serving.
            BoundedLine::Oversized => {
                let response = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("line exceeds {} bytes", json::MAX_LINE_BYTES),
                };
                output.write_all(response.to_jsonl().as_bytes())?;
                output.write_all(b"\n")?;
                output.flush()?;
                continue;
            }
            BoundedLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse_jsonl(&line) {
            Ok(request) => service.handle(request),
            Err(err) => protocol_error(&err),
        };
        let shutting_down = response == Response::ShuttingDown;
        output.write_all(response.to_jsonl().as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if shutting_down {
            return Ok(true);
        }
    }
    Ok(false)
}

fn protocol_error(err: &ProtoError) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: err.to_string(),
    }
}

/// A listening TCP server; [`join`](ServerHandle::join) blocks until a
/// client requests shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0 to the chosen port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit after its current accept.
    pub fn stop(&self) {
        request_accept_stop(&self.stop, self.addr);
    }

    /// Waits for the accept loop to exit (after [`stop`](Self::stop) or
    /// a client `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates a listener I/O error from the accept loop.
    pub fn join(self) -> std::io::Result<()> {
        self.accept_thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("accept loop panicked")))
    }
}

fn request_accept_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // accept() has no timeout; a throwaway connection wakes it so it
    // observes the flag.
    drop(TcpStream::connect(addr));
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// connections until a client sends `shutdown`. Each connection gets
/// its own thread, so one client blocking on a `result` does not stall
/// others.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_tcp(service: Arc<Service>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || -> std::io::Result<()> {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let service = Arc::clone(&service);
            let conn_stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || {
                let peer = stream.peer_addr();
                let reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(_) => return,
                };
                match serve_lines(&service, reader, &stream) {
                    Ok(true) => {
                        // This client asked for shutdown: stop accepting.
                        if let Ok(local) = stream.local_addr() {
                            request_accept_stop(&conn_stop, local);
                        }
                    }
                    Ok(false) => {}
                    Err(err) => {
                        // A dropped connection is the client's business,
                        // not a daemon failure.
                        eprintln!("# connection {peer:?} ended: {err}");
                    }
                }
            });
        }
        Ok(())
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{JobSpec, PROTO_VERSION};
    use crate::service::ServiceConfig;

    fn quick_spec() -> JobSpec {
        let mut spec = JobSpec::new("GUPS", "Trident");
        spec.scale = 256;
        spec.samples = 1_000;
        spec
    }

    #[test]
    fn serve_lines_answers_each_request_in_order() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            start_paused: false,
        });
        let input = format!(
            "{}\n\n{}\n{}\n",
            Request::Submit(quick_spec()).to_jsonl(),
            Request::Result { id: 1 }.to_jsonl(),
            Request::Shutdown.to_jsonl(),
        );
        let mut output = Vec::new();
        let shutdown = serve_lines(&service, input.as_bytes(), &mut output).unwrap();
        assert!(shutdown);
        let lines: Vec<Response> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Response::parse_jsonl(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "blank lines are skipped");
        assert_eq!(lines[0], Response::Submitted { id: 1 });
        assert!(matches!(lines[1], Response::Result { id: 1, .. }));
        assert_eq!(lines[2], Response::ShuttingDown);
        service.shutdown();
    }

    #[test]
    fn bad_lines_get_typed_errors_and_the_stream_continues() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            start_paused: true,
        });
        let wrong_version = Request::List
            .to_jsonl()
            .replace(&format!("\"v\":{PROTO_VERSION}"), "\"v\":999");
        let input = format!(
            "not json at all\n{wrong_version}\n{}\n",
            Request::List.to_jsonl()
        );
        let mut output = Vec::new();
        let shutdown = serve_lines(&service, input.as_bytes(), &mut output).unwrap();
        assert!(!shutdown, "end of input is not a shutdown request");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Response> = text
            .lines()
            .map(|l| Response::parse_jsonl(l).unwrap())
            .collect();
        assert!(matches!(
            &lines[0],
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        match &lines[1] {
            Response::Error { code, message } => {
                assert_eq!(*code, ErrorCode::BadRequest);
                assert!(message.contains("v999"), "{message}");
            }
            other => panic!("expected version error, got {other:?}"),
        }
        match &lines[2] {
            Response::Jobs {
                jobs,
                service: info,
            } => {
                assert!(jobs.is_empty());
                assert_eq!(info.workers, 1);
            }
            other => panic!("expected Jobs, got {other:?}"),
        }
        service.request_stop();
        service.shutdown();
    }

    #[test]
    fn oversized_lines_get_a_typed_error_and_the_stream_continues() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            start_paused: true,
        });
        let huge = "x".repeat(json::MAX_LINE_BYTES + 1);
        let input = format!("{huge}\n{}\n", Request::List.to_jsonl());
        let mut output = Vec::new();
        serve_lines(&service, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Response> = text
            .lines()
            .map(|l| Response::parse_jsonl(l).unwrap())
            .collect();
        match &lines[0] {
            Response::Error { code, message } => {
                assert_eq!(*code, ErrorCode::BadRequest);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected oversize error, got {other:?}"),
        }
        assert!(matches!(&lines[1], Response::Jobs { .. }));
        service.request_stop();
        service.shutdown();
    }
}
