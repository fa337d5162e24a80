//! A small blocking client for the collaboration wire protocol.
//!
//! [`CollabClient`] wraps one TCP connection and understands the
//! protocol's one asynchronous wrinkle: subscribed connections receive
//! `event` frames at any moment, including between a request and its
//! response. [`request`](CollabClient::request) therefore queues any
//! events it encounters while waiting for the response, and
//! [`next_event`](CollabClient::next_event) drains that queue before
//! touching the socket, so neither path loses frames to the other.
//!
//! Reads go through the same [`LineBuffer`] framer the server uses rather
//! than a `BufReader`: with a read timeout on the socket, a line can
//! arrive in pieces, and the buffer keeps the partial line intact across
//! timeouts.

use crate::fault::{FaultAction, FaultInjector};
use crate::wire::{BufferedLine, Frame, LineBuffer, WireError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long [`request`](CollabClient::request) waits for its response by
/// default; see [`set_request_timeout`](CollabClient::set_request_timeout).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking JSONL wire-protocol client.
#[derive(Debug)]
pub struct CollabClient {
    stream: TcpStream,
    /// Bytes read off the socket but not yet consumed as a full line.
    buffer: LineBuffer,
    /// `event` frames received while waiting for a response.
    events: VecDeque<Frame>,
    /// Response frames received while waiting for an event.
    replies: VecDeque<Frame>,
    /// Server `warn` frames, kept out of the request/response pairing.
    warnings: Vec<String>,
    /// Outbound fault injection, for chaos tests (`None` = clean link).
    injector: Option<FaultInjector>,
    /// How long request/response exchanges wait before timing out.
    request_timeout: Duration,
}

impl CollabClient {
    /// Connects to a collaboration server.
    ///
    /// # Errors
    ///
    /// Propagates the connection error.
    pub fn connect(addr: SocketAddr) -> io::Result<CollabClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(CollabClient {
            stream,
            buffer: LineBuffer::new(),
            events: VecDeque::new(),
            replies: VecDeque::new(),
            warnings: Vec::new(),
            injector: None,
            request_timeout: REQUEST_TIMEOUT,
        })
    }

    /// Arms deterministic fault injection on this connection's *outgoing*
    /// frames.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Overrides how long [`request`](CollabClient::request) and
    /// [`read_snapshot`](CollabClient::read_snapshot) wait for a response
    /// (default 30 s). Resilient callers shorten this so a lost response
    /// turns into a retry instead of a long stall.
    pub fn set_request_timeout(&mut self, timeout: Duration) {
        self.request_timeout = timeout;
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.send_raw(&frame.to_line())
    }

    /// Sends raw bytes verbatim — for protocol error-path tests — through
    /// the fault injector when one is armed.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let Some(injector) = self.injector.as_mut() else {
            self.stream.write_all(line.as_bytes())?;
            return self.stream.flush();
        };
        match injector.transform(line.as_bytes()) {
            FaultAction::Kill => {
                self.stream.shutdown(Shutdown::Both).ok();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection killed by fault plan",
                ))
            }
            FaultAction::Write(chunks) => {
                for (bytes, delay) in chunks {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    self.stream.write_all(&bytes)?;
                }
                self.stream.flush()
            }
        }
    }

    /// Drains the non-fatal `warn` diagnostics the server has pushed.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// Sends a request frame and returns its (non-`event`) response,
    /// queueing any notification frames that arrive in between.
    ///
    /// # Errors
    ///
    /// [`WireError`] on send failure, malformed frames, connection loss,
    /// or timeout.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.send(frame)
            .map_err(|e| WireError::io(format!("send failed: {e}")))?;
        if let Some(reply) = self.replies.pop_front() {
            return Ok(reply);
        }
        let deadline = Instant::now() + self.request_timeout;
        loop {
            match self.poll_frame(deadline)? {
                None => return Err(WireError::timeout("timed out waiting for a response")),
                // Hold async notifications for next_event().
                Some(event @ Frame::Event { .. }) => self.events.push_back(event),
                Some(reply) => return Ok(reply),
            }
        }
    }

    /// Returns the next notification frame, waiting up to `timeout`.
    /// `Ok(None)` means the wait elapsed without one.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed frames or connection loss.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<Frame>, WireError> {
        if let Some(event) = self.events.pop_front() {
            return Ok(Some(event));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.poll_frame(deadline)? {
                None => return Ok(None),
                Some(event @ Frame::Event { .. }) => return Ok(Some(event)),
                Some(reply) => self.replies.push_back(reply),
            }
        }
    }

    /// Receives the next frame of any kind (events included, in arrival
    /// order), waiting up to `timeout`. `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed frames or connection loss.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, WireError> {
        if let Some(event) = self.events.pop_front() {
            return Ok(Some(event));
        }
        if let Some(reply) = self.replies.pop_front() {
            return Ok(Some(reply));
        }
        self.poll_frame(Instant::now() + timeout)
    }

    /// Requests a snapshot and collects the multi-frame response:
    /// the `state` header and one `prop` frame per property.
    ///
    /// # Errors
    ///
    /// [`WireError`] on protocol violations, connection loss, or timeout.
    pub fn read_snapshot(&mut self) -> Result<(Frame, Vec<Frame>), WireError> {
        let state = self.request(&Frame::Snapshot)?;
        if !matches!(state, Frame::State { .. }) {
            return Err(WireError::protocol(format!(
                "expected a state frame, got `{}`",
                state.tag()
            )));
        }
        let deadline = Instant::now() + self.request_timeout;
        let mut props = Vec::new();
        loop {
            match self.poll_frame(deadline)? {
                None => return Err(WireError::timeout("timed out reading the snapshot")),
                Some(Frame::End) => return Ok((state, props)),
                Some(prop @ Frame::Prop { .. }) => props.push(prop),
                Some(event @ Frame::Event { .. }) => self.events.push_back(event),
                Some(other) => {
                    return Err(WireError::protocol(format!(
                        "unexpected `{}` frame in a snapshot",
                        other.tag()
                    )))
                }
            }
        }
    }

    /// Reads frames off the socket until `deadline`, stashing nothing:
    /// the *caller* decides where each frame belongs. Events encountered
    /// here are returned like any other frame. `Ok(None)` on deadline.
    fn poll_frame(&mut self, deadline: Instant) -> Result<Option<Frame>, WireError> {
        loop {
            let line = match self.buffer.take() {
                Some(BufferedLine::Line(line)) => Some(line),
                // An oversized or non-UTF-8 line is a mangled stream, like
                // a line that does not parse below.
                Some(BufferedLine::Skipped { .. }) => {
                    return Err(WireError::io("server sent an oversized or non-UTF-8 line"))
                }
                None => None,
            };
            if let Some(line) = line {
                // A line that does not parse means the *stream* got mangled
                // in transit (torn or corrupted frame) — a transport
                // failure, classified retryable so a resilient caller can
                // reconnect onto a clean stream.
                let parsed = Frame::parse_line(&line).map_err(|e| {
                    WireError::io(format!("malformed frame from the server: {}", e.message))
                })?;
                match parsed {
                    // Liveness and diagnostics are handled inside the
                    // client so they never disturb request/response or
                    // event pairing at the call sites.
                    Frame::Ping { nonce } => {
                        self.send(&Frame::Pong { nonce })
                            .map_err(|e| WireError::io(format!("pong failed: {e}")))?;
                        continue;
                    }
                    Frame::Pong { .. } => continue,
                    Frame::Warning { message } => {
                        self.warnings.push(message);
                        continue;
                    }
                    frame => return Ok(Some(frame)),
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let window = (deadline - now).min(Duration::from_millis(200));
            self.stream
                .set_read_timeout(Some(window.max(Duration::from_millis(1))))
                .map_err(|e| WireError::io(format!("set_read_timeout failed: {e}")))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(WireError::io("connection closed by the server")),
                Ok(n) => self.buffer.push(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(WireError::io(format!("read failed: {e}"))),
            }
        }
    }
}
