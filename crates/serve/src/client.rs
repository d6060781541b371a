//! A blocking client for the job service's TCP transport.
//!
//! One [`Client`] owns one connection and speaks strict
//! request/response: [`Client::request`] writes a line and blocks for
//! exactly one answer line. `tridentctl --connect` and the integration
//! tests are built on this.
//!
//! By default a read blocks until the daemon answers, so a dead daemon
//! blocks forever. [`Client::set_deadline`] bounds every later read: an
//! expired deadline surfaces as a typed
//! [`ProtoError::Timeout`](crate::proto::ProtoError) instead of a hang.
//! A timed-out connection is *poisoned*: the response may still arrive
//! later and would misalign request/response framing, so the client
//! refuses further use and the caller reconnects.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, BoundedLine};
use crate::proto::{ProtoError, Request, Response};

/// Why a round-trip failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading failed.
    Io(std::io::Error),
    /// The daemon closed the connection without answering.
    ConnectionClosed,
    /// The daemon answered with something this build cannot decode —
    /// including [`ProtoError::Timeout`] when the read deadline expired.
    Proto(ProtoError),
    /// A previous timeout left the stream mid-message; the connection
    /// must be discarded and re-established.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
            ClientError::ConnectionClosed => f.write_str("daemon closed the connection"),
            ClientError::Proto(err) => write!(f, "{err}"),
            ClientError::Poisoned => {
                f.write_str("connection poisoned by an earlier timeout; reconnect")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

/// One connection to a `tridentd` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    deadline: Option<Duration>,
    poisoned: bool,
}

impl Client {
    /// Connects to a daemon at `addr` (any `host:port` form) with no
    /// read deadline: reads block until the daemon answers or the OS
    /// gives up. Call [`set_deadline`](Self::set_deadline) anywhere a
    /// hung daemon must not hang the caller.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            deadline: None,
            poisoned: false,
        })
    }

    /// Bounds every later read on this connection by `deadline`. A
    /// `result` request waits for its job to settle, so give a deadline
    /// only where every answer is prompt, or one that covers a whole job.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_deadline(&mut self, deadline: Duration) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(Some(deadline))?;
        self.deadline = Some(deadline);
        Ok(())
    }

    /// Sends one request and blocks for its response, for at most the
    /// [`set_deadline`](Self::set_deadline) deadline when one is set.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, an undecodable answer, an
    /// expired deadline ([`ProtoError::Timeout`]) or a connection
    /// poisoned by an earlier timeout.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        self.writer.write_all(request.to_jsonl().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let line = match json::read_line_bounded(&mut self.reader, json::MAX_LINE_BYTES) {
            Ok(BoundedLine::Line(line)) => line,
            Ok(BoundedLine::Eof) => return Err(ClientError::ConnectionClosed),
            Ok(BoundedLine::Oversized) => {
                // The line was drained, framing is intact, but the
                // answer is gone.
                return Err(ClientError::Proto(ProtoError::Malformed("line too long")));
            }
            Err(err) if timed_out(&err) => {
                // The answer may still arrive and would desynchronize
                // the next round-trip; refuse further use.
                self.poisoned = true;
                return Err(ClientError::Proto(ProtoError::Timeout {
                    ms: self.deadline.map_or(0, as_millis),
                }));
            }
            Err(err) => return Err(ClientError::Io(err)),
        };
        Response::parse_jsonl(line.trim_end()).map_err(ClientError::Proto)
    }
}

fn timed_out(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn as_millis(d: Duration) -> u64 {
    d.as_millis().min(u128::from(u64::MAX)) as u64
}
