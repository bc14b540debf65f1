//! A hand-rolled HTTP/1.1 subset hardened for hostile clients.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the shape of request the SLIF wire protocol uses (a request
//! line, headers, an optional `Content-Length` body) and turns every
//! hostile input into a *typed* refusal instead of unbounded work:
//!
//! * **Slow loris** — every request carries an *absolute* read budget:
//!   [`read_request`] starts a deadline when the request's first byte
//!   arrives and shrinks the socket timeout to the remaining budget
//!   before each read, so a client that dribbles one byte per read
//!   cannot extend its welcome — the whole head-plus-body read is
//!   bounded by one budget, after which it gets [`RecvError::Timeout`]
//!   (wire status 408) and the connection back. The wait *before* the
//!   first byte is bounded by one budget of its own: when it expires the
//!   connection is an idle keep-alive one, not an attack, and closes
//!   silently ([`RecvError::Closed`]). That idle gap is not charged to
//!   the request that follows it, so a connection holds a worker for at
//!   most one idle bound plus one budget per request.
//!   [`write_response`] bounds the write side the same way against a
//!   non-reading client.
//! * **Oversized requests** — header bytes are capped at
//!   [`MAX_HEAD_BYTES`]; a declared `Content-Length` beyond the
//!   configured body cap is refused ([`RecvError::TooLarge`], wire 413)
//!   *without reading the body at all*.
//! * **Truncated or malformed framing** — anything else
//!   ([`RecvError::Malformed`], wire 400).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line plus all header bytes (8 KiB, nginx's
/// default large-header budget).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are not split off; the
    /// SLIF protocol does not use them).
    pub path: String,
    /// Header name/value pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read off the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed (or went idle past the deadline) before sending
    /// any byte of a request — the clean end of a keep-alive connection.
    Closed,
    /// The read deadline expired mid-request: a slow-loris writer.
    Timeout,
    /// The request head or declared body exceeds a size cap.
    TooLarge {
        /// Which measure tripped (`"head bytes"` or `"body bytes"`).
        what: &'static str,
        /// The configured cap.
        limit: usize,
        /// The size seen or declared.
        actual: usize,
    },
    /// The bytes do not frame a request this protocol accepts.
    Malformed(&'static str),
    /// Any other socket error; the connection is unusable.
    Io,
}

/// One response, written by [`write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The reason phrase.
    pub reason: &'static str,
    /// The body (`text/plain; charset=utf-8` unless overridden).
    pub body: Vec<u8>,
    /// The `Content-Type` header; `None` means the text/plain default.
    /// Binary design exports set `application/octet-stream`.
    pub content_type: Option<&'static str>,
    /// An optional `Retry-After` header value in seconds (429/503).
    pub retry_after: Option<u64>,
    /// An optional durable job id, echoed as `x-slif-job-id` so a client
    /// can retrieve the result later via `GET /jobs/{id}` — including
    /// after a server restart.
    pub job_id: Option<u64>,
    /// Whether the server will close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A response with the given status line and body, keep-alive.
    pub fn new(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            reason,
            body: body.into(),
            content_type: None,
            retry_after: None,
            job_id: None,
            close: false,
        }
    }

    /// Overrides the `Content-Type` header.
    #[must_use]
    pub fn with_content_type(mut self, ct: &'static str) -> Self {
        self.content_type = Some(ct);
        self
    }

    /// Adds a `Retry-After` header.
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Attaches the durable job id (`x-slif-job-id` header).
    #[must_use]
    pub fn with_job_id(mut self, id: u64) -> Self {
        self.job_id = Some(id);
        self
    }

    /// Marks the connection for closing after this response.
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads into `buf` with the socket timeout shrunk to whatever remains
/// of the absolute `deadline`. SO_RCVTIMEO alone bounds only a single
/// quiet gap — a client dripping one byte per interval resets it forever
/// — so an exhausted budget is reported as a timeout *without touching
/// the socket*. With no deadline the stream's own timeout (set by the
/// caller) applies per read; the server side always passes a deadline.
fn read_within(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> io::Result<usize> {
    if let Some(deadline) = deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(remaining))?;
    }
    stream.read(buf)
}

/// A small buffered byte reader for the request head. It may read past
/// the head (up to 1024 bytes per syscall), so whatever it over-read —
/// body bytes and any pipelined next request — is handed back via
/// [`HeadReader::leftover`] for the caller to consume or carry over.
struct HeadReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Option<Instant>,
    buf: Vec<u8>,
    pos: usize,
}

impl<'a> HeadReader<'a> {
    /// `carry` seeds the buffer with bytes a previous request over-read
    /// (the start of a pipelined request); they are consumed before the
    /// socket is touched again.
    fn new(stream: &'a mut TcpStream, deadline: Option<Instant>, carry: Vec<u8>) -> Self {
        Self {
            stream,
            deadline,
            buf: carry,
            pos: 0,
        }
    }

    /// The next byte, `Ok(None)` on EOF.
    fn next_byte(&mut self) -> Result<Option<u8>, io::Error> {
        if self.pos == self.buf.len() {
            let mut chunk = [0u8; 1024];
            let n = read_within(self.stream, &mut chunk, self.deadline)?;
            if n == 0 {
                return Ok(None);
            }
            self.buf.clear();
            self.buf.extend_from_slice(&chunk[..n]);
            self.pos = 0;
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// Bytes buffered but not yet consumed (the head of the body, and
    /// possibly the start of a pipelined next request).
    fn leftover(&self) -> &[u8] {
        &self.buf[self.pos..]
    }
}

/// Reads one request within an absolute time `budget`, counted from
/// its first byte, honouring the `max_body` cap. The wait for that
/// first byte is bounded by `budget` too, and ends in
/// [`RecvError::Closed`].
///
/// `carry` holds bytes over-read past the previous request on this
/// connection (a pipelined next request). It is consumed first and
/// refilled on success with whatever this request over-read; on error
/// the caller must drop the connection (every error response closes),
/// so a stale carry is never replayed.
///
/// # Errors
///
/// A typed [`RecvError`]; see the module docs for the taxonomy.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    budget: Duration,
    carry: &mut Vec<u8>,
) -> Result<Request, RecvError> {
    // Read the head byte-wise up to MAX_HEAD_BYTES, splitting CRLF lines.
    // Until the first byte this deadline bounds the idle wait.
    let mut reader = HeadReader::new(stream, Some(Instant::now() + budget), std::mem::take(carry));
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        match reader.next_byte() {
            Ok(Some(b)) => {
                if head.is_empty() {
                    // The request starts here: charge it none of the
                    // keep-alive idle gap before it.
                    reader.deadline = Some(Instant::now() + budget);
                }
                head.push(b);
                if head.len() > MAX_HEAD_BYTES {
                    return Err(RecvError::TooLarge {
                        what: "head bytes",
                        limit: MAX_HEAD_BYTES,
                        actual: head.len(),
                    });
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Ok(None) => {
                return if head.is_empty() {
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Malformed("connection closed mid-head"))
                };
            }
            Err(e) if is_timeout(&e) => {
                return if head.is_empty() {
                    // Idle keep-alive connection, not a slow writer.
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Timeout)
                };
            }
            Err(_) => return Err(RecvError::Io),
        }
    }
    let head_str = std::str::from_utf8(&head).map_err(|_| RecvError::Malformed("non-UTF-8 head"))?;
    let mut lines = head_str.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RecvError::Malformed("empty request line"))?;
    let path = parts
        .next()
        .ok_or(RecvError::Malformed("request line lacks a path"))?;
    let version = parts
        .next()
        .ok_or(RecvError::Malformed("request line lacks a version"))?;
    if parts.next().is_some() {
        return Err(RecvError::Malformed("request line has trailing fields"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RecvError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RecvError::Malformed("header line lacks a colon"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            // RFC 7230 §3.3.2: conflicting (or repeated) Content-Length
            // values are a request-smuggling vector; refuse outright
            // rather than letting any value win. A comma-joined list
            // ("5, 5") already fails the integer parse below.
            if content_length.is_some() {
                return Err(RecvError::Malformed("duplicate content-length"));
            }
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| RecvError::Malformed("unparsable content-length"))?,
            );
        }
        if name == "transfer-encoding" {
            // Chunked bodies are an attack surface this protocol does
            // not need; refuse them outright.
            return Err(RecvError::Malformed("transfer-encoding unsupported"));
        }
        headers.push((name, value));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        // Refuse by declaration — the body is never read, so an
        // attacker cannot make the server swallow it before the 413.
        return Err(RecvError::TooLarge {
            what: "body bytes",
            limit: max_body,
            actual: content_length,
        });
    }
    let deadline = reader.deadline;
    let mut body = Vec::with_capacity(content_length);
    let leftover = reader.leftover();
    let take = leftover.len().min(content_length);
    body.extend_from_slice(&leftover[..take]);
    // Anything past the body is the start of a pipelined next request;
    // hand it back so the next read_request call consumes it.
    *carry = leftover[take..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        match read_within(stream, &mut chunk[..want], deadline) {
            Ok(0) => return Err(RecvError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(_) => return Err(RecvError::Io),
        }
    }
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
    })
}

/// Writes `response` within an absolute time `budget`.
///
/// As on the read side, SO_SNDTIMEO alone bounds only a single blocked
/// `write()`; a client draining one byte at a time would reset it
/// indefinitely. The socket timeout is shrunk to the remaining budget
/// before each write, so the whole response is bounded by one budget.
///
/// # Errors
///
/// Any socket error (including the budget expiring against a
/// non-reading client); the caller should drop the connection.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    budget: Duration,
) -> io::Result<()> {
    let deadline = Instant::now() + budget;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        response.reason,
        response
            .content_type
            .unwrap_or("text/plain; charset=utf-8"),
        response.body.len()
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    if let Some(id) = response.job_id {
        head.push_str(&format!("x-slif-job-id: {id}\r\n"));
    }
    head.push_str(if response.close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&response.body);
    let mut written = 0;
    while written < bytes.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(remaining))?;
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// A client-side view of one response: status code, headers (names
/// lowercased), body.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Reads one response off `stream`. The client half of the protocol,
/// used by the load generator and tests. The server is trusted, so the
/// stream's own read timeout applies per read (no absolute budget).
///
/// The head is read one byte per syscall and the body exact-length, so
/// the reader never consumes past this response — a pipelined client
/// that sent several requests back-to-back reads each response cleanly
/// even when the server's responses coalesce into one TCP segment.
/// Throughput is irrelevant here; never losing bytes is not.
///
/// # Errors
///
/// [`RecvError::Closed`] when the peer closed before a status line,
/// otherwise the same taxonomy as [`read_request`].
pub fn read_response(stream: &mut TcpStream) -> Result<ClientResponse, RecvError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) if head.is_empty() => return Err(RecvError::Closed),
            Ok(0) => return Err(RecvError::Malformed("closed mid-head")),
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > MAX_HEAD_BYTES {
                    return Err(RecvError::TooLarge {
                        what: "head bytes",
                        limit: MAX_HEAD_BYTES,
                        actual: head.len(),
                    });
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(_) => return Err(RecvError::Io),
        }
    }
    let head_str = std::str::from_utf8(&head).map_err(|_| RecvError::Malformed("non-UTF-8 head"))?;
    let mut lines = head_str.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(RecvError::Malformed("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| RecvError::Malformed("bad content-length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::with_capacity(content_length);
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(RecvError::Malformed("closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(_) => return Err(RecvError::Io),
        }
    }
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const BUDGET: Duration = Duration::from_secs(5);

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn read_one(server: &mut TcpStream, max_body: usize, budget: Duration) -> Result<Request, RecvError> {
        read_request(server, max_body, budget, &mut Vec::new())
    }

    #[test]
    fn round_trips_a_request() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/parse HTTP/1.1\r\nX-Api-Key: k1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let req = read_one(&mut server, 1024, BUDGET).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/parse");
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn oversized_declared_body_refused_without_reading() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/parse HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
            .unwrap();
        let err = read_one(&mut server, 1024, BUDGET).unwrap_err();
        assert_eq!(
            err,
            RecvError::TooLarge {
                what: "body bytes",
                limit: 1024,
                actual: 999999
            }
        );
    }

    #[test]
    fn slow_loris_times_out_mid_head() {
        let (mut client, mut server) = pair();
        client.write_all(b"POST /v1/par").unwrap(); // ...and stall
        let err = read_one(&mut server, 1024, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    /// The regression for the real slow-loris shape: a client dripping
    /// bytes fast enough that no single read ever times out must still
    /// be cut off by the absolute budget.
    #[test]
    fn dripped_bytes_cannot_extend_the_budget() {
        let (mut client, mut server) = pair();
        let dripper = std::thread::spawn(move || {
            // One byte every 25 ms: each arrives well inside any
            // per-read timeout, but the request never completes.
            for _ in 0..40 {
                if client.write_all(b"A").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let start = Instant::now();
        let err = read_one(&mut server, 1024, Duration::from_millis(150)).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err, RecvError::Timeout);
        assert!(
            elapsed < Duration::from_millis(600),
            "budget must bound the whole read, took {elapsed:?}"
        );
        drop(server);
        dripper.join().unwrap();
    }

    /// A keep-alive client's idle gap before its next request is not
    /// charged to that request: the budget starts with the first byte.
    #[test]
    fn idle_wait_before_the_first_byte_is_not_charged_to_the_request() {
        let budget = Duration::from_millis(1000);
        let (mut client, mut server) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(budget * 6 / 10);
            client
                .write_all(b"POST /v1/parse HTTP/1.1\r\nContent-Length: 5\r\n\r\n")
                .unwrap();
            std::thread::sleep(budget * 6 / 10);
            client.write_all(b"hello").unwrap();
            client
        });
        let request = read_one(&mut server, 1024, budget);
        drop(writer.join().unwrap());
        assert_eq!(request.unwrap().body, b"hello");
    }

    #[test]
    fn idle_keep_alive_deadline_is_a_clean_close() {
        let (_client, mut server) = pair();
        assert_eq!(
            read_one(&mut server, 1024, Duration::from_millis(30)).unwrap_err(),
            RecvError::Closed
        );
    }

    #[test]
    fn truncated_body_is_malformed() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/parse HTTP/1.1\r\nContent-Length: 64\r\n\r\nshort")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let err = read_one(&mut server, 1024, BUDGET).unwrap_err();
        assert_eq!(err, RecvError::Malformed("connection closed mid-body"));
    }

    #[test]
    fn chunked_encoding_is_refused() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/parse HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
        let err = read_one(&mut server, 1024, BUDGET).unwrap_err();
        assert!(matches!(err, RecvError::Malformed(_)));
    }

    #[test]
    fn duplicate_content_length_is_malformed() {
        let (mut client, mut server) = pair();
        client
            .write_all(
                b"POST /v1/parse HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        let err = read_one(&mut server, 1024, BUDGET).unwrap_err();
        assert_eq!(err, RecvError::Malformed("duplicate content-length"));
        // A comma-joined value is equally refused (unparsable).
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/parse HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello")
            .unwrap();
        let err = read_one(&mut server, 1024, BUDGET).unwrap_err();
        assert_eq!(err, RecvError::Malformed("unparsable content-length"));
    }

    /// Two requests written in one burst: the bytes the head reader
    /// over-reads past the first body must be carried into the second
    /// [`read_request`] call, not dropped.
    #[test]
    fn pipelined_requests_are_carried_over() {
        let (mut client, mut server) = pair();
        client
            .write_all(
                b"POST /v1/parse HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst\
                  POST /v1/estimate HTTP/1.1\r\nContent-Length: 6\r\n\r\nsecond",
            )
            .unwrap();
        // Prove the second request is served from the carry, not the
        // socket: nothing further will ever arrive.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut carry = Vec::new();
        let first = read_request(&mut server, 1024, BUDGET, &mut carry).unwrap();
        assert_eq!(first.path, "/v1/parse");
        assert_eq!(first.body, b"first");
        assert!(!carry.is_empty(), "pipelined bytes must be carried over");
        let second = read_request(&mut server, 1024, BUDGET, &mut carry).unwrap();
        assert_eq!(second.path, "/v1/estimate");
        assert_eq!(second.body, b"second");
        assert_eq!(
            read_request(&mut server, 1024, BUDGET, &mut carry).unwrap_err(),
            RecvError::Closed
        );
    }

    #[test]
    fn response_round_trips() {
        let (mut client, mut server) = pair();
        let resp = Response::new(429, "Too Many Requests", "slow down")
            .with_retry_after(7)
            .with_job_id(42)
            .closing();
        write_response(&mut server, &resp, BUDGET).unwrap();
        let (status, headers, body) = read_response(&mut client).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"slow down");
        assert!(headers.iter().any(|(n, v)| n == "retry-after" && v == "7"));
        assert!(headers.iter().any(|(n, v)| n == "x-slif-job-id" && v == "42"));
        assert!(headers.iter().any(|(n, v)| n == "connection" && v == "close"));
    }

    /// A client that never reads cannot pin the writer past the write
    /// budget, no matter how large the response.
    #[test]
    fn write_budget_bounds_a_non_reading_client() {
        let (client, mut server) = pair();
        let resp = Response::new(200, "OK", vec![0u8; 32 * 1024 * 1024]);
        let start = Instant::now();
        let err = write_response(&mut server, &resp, Duration::from_millis(150)).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock),
            "expected a timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "write budget must bound the whole response"
        );
        drop(client);
    }
}
