//! A hand-rolled HTTP/1.1 subset over `std::net` — just enough protocol for
//! the batch-service API, in the same spirit as the hand-rolled TOML parser
//! this workspace already carries (the build environment has no network
//! crates).
//!
//! Connections persist (RFC 9112 §9.3): one TCP connection carries request
//! after request until either side says `Connection: close`. On localhost a
//! TCP connect plus the server's handler thread costs more than a cached
//! request itself, so a kept-alive connection is most of the saving.
//!
//! Server side: a [`RequestReader`] parses the requests of one connection
//! (request line, headers, `Content-Length` body) through one read buffer,
//! so the bytes of a pipelined next request are never dropped. An HTTP/1.0
//! request, or one saying `Connection: close`, is its connection's last.
//! [`write_response`] emits a complete response, head and body in one
//! write, with the `Connection` header the caller picks.
//!
//! Client side: a [`ClientConn`] exchanges requests over one connection and
//! reports whether the server keeps it open. [`request`] and
//! [`request_meta`] are one-shot round trips over the same exchange.
//!
//! Binary endpoints (`/v1/cache/sync`) stream instead of buffering:
//! [`write_response_head`] emits the head and lets the handler write the
//! body in pieces, and [`request_stream`] hands the caller a bounded
//! [`ByteStream`] reader over the response body — a cache snapshot can
//! exceed the 4 MiB JSON body cap without either side holding it whole.
//!
//! Limits are deliberate: 8 KiB per header line, 64 headers, 4 MiB bodies.
//! A malformed or oversized request produces a clean error (the server
//! turns it into `400`), never a panic or an unbounded allocation.
//!
//! Time is bounded too: a [`RequestReader`] spends at most a fixed
//! **total** budget reading its connection, counted across every byte of
//! every request — a slow-loris client trickling one byte per
//! socket-timeout window, or one sending a fresh request just before each
//! idle timeout would fire, is cut off at the budget, not kept alive
//! indefinitely by per-read timeouts.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Maximum accepted header-line length.
const MAX_LINE: usize = 8 * 1024;
/// Maximum accepted header count.
const MAX_HEADERS: usize = 64;
/// Maximum accepted body size (a large TOML spec is a few KiB; reports a
/// few hundred KiB).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// Request target (path only, query string stripped).
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client may send another request on this connection:
    /// HTTP/1.1 without `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the body is not UTF-8.
    pub fn body_utf8(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))
    }

    /// The value of query parameter `name` (`?name=value&...`), if present.
    /// No percent-decoding — the v1 API's parameter values are plain
    /// tokens (`mode=abort`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`]
/// **consumed** bytes (not kept bytes — a stream of bare `\r`s must not
/// bypass the bound and pin the handler thread).
fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = Vec::new();
    let mut consumed = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !line.is_empty() => break,
            Err(e) => return Err(e),
        }
        consumed += 1;
        let [b] = byte;
        if b == b'\n' {
            break;
        }
        if b != b'\r' {
            line.push(b);
        }
        if consumed > MAX_LINE {
            return Err(bad("header line too long"));
        }
    }
    String::from_utf8(line).map_err(|_| bad("header line is not UTF-8"))
}

/// A [`Read`] adaptor enforcing one **total** deadline across every read:
/// before each syscall the socket timeout is clamped to the time left, so
/// the sum of waits — however the peer paces its bytes — cannot exceed the
/// budget.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self
            .deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "request read deadline exceeded")
            })?;
        self.stream.set_read_timeout(Some(remaining))?;
        (&mut self.stream).read(buf).map_err(|e| {
            // Unix surfaces a socket read timeout as EAGAIN (`WouldBlock`);
            // normalize so callers see one deadline error kind.
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "request read deadline exceeded")
            } else {
                e
            }
        })
    }
}

/// The server side of one connection: every request it carries is parsed
/// through one read buffer, under one total read budget.
pub struct RequestReader<'a> {
    reader: BufReader<DeadlineStream<'a>>,
}

impl<'a> RequestReader<'a> {
    /// Starts reading `stream`, which may take at most `budget` in total —
    /// the slow-loris defense: a client may not hold a handler thread
    /// longer than the budget however it paces its bytes.
    pub fn new(stream: &'a TcpStream, budget: Duration) -> Self {
        Self {
            reader: BufReader::new(DeadlineStream {
                stream,
                deadline: Instant::now() + budget,
            }),
        }
    }

    /// Waits for the first byte of the next request. `false` when the
    /// client closed the connection, or the budget ran out, first: the
    /// idle end of a connection, which closes without a response.
    pub fn await_request(&mut self) -> bool {
        self.reader.fill_buf().is_ok_and(|buf| !buf.is_empty())
    }

    /// Parses the next request.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` when the budget runs out, `InvalidData` for
    /// malformed or over-limit requests, and propagates socket errors.
    pub fn read_request(&mut self) -> io::Result<Request> {
        parse_request(&mut self.reader)
    }
}

fn parse_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad("request line lacks a target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(bad("request target must be an absolute path"));
    }
    // HTTP/1.1 connections persist by default; HTTP/1.0, or a request line
    // without a version, closes after one exchange.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length: Option<usize> = None;
    // One extra iteration beyond MAX_HEADERS for the terminating blank
    // line, so a request with exactly MAX_HEADERS headers is accepted.
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length.unwrap_or(0)];
            reader.read_exact(&mut body)?;
            return Ok(Request {
                method,
                path,
                query,
                body,
                keep_alive,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let len = parse_content_length(value, content_length)?;
            if len > MAX_BODY {
                return Err(bad("body too large"));
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") && says_close(value) {
            keep_alive = false;
        }
    }
    Err(bad("too many headers"))
}

/// Whether a `Connection` header value lists the `close` option.
fn says_close(value: &str) -> bool {
    value
        .split(',')
        .any(|option| option.trim().eq_ignore_ascii_case("close"))
}

/// The `Connection` header value announcing `keep_alive`.
fn connection(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Parses one `Content-Length` value against any previously seen one.
/// Duplicate headers with the **same** value are tolerated (they are
/// unambiguous); *conflicting* duplicates are refused — the historical
/// last-one-wins behavior is exactly the parsing ambiguity behind request
/// smuggling, and a batch API has no reason to guess.
fn parse_content_length(value: &str, previous: Option<usize>) -> io::Result<usize> {
    let len: usize = value
        .trim()
        .parse()
        .map_err(|_| bad("bad Content-Length"))?;
    match previous {
        Some(prev) if prev != len => Err(bad(format!(
            "conflicting Content-Length headers ({prev} vs {len})"
        ))),
        _ => Ok(len),
    }
}

/// Human reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response head: status line, `Content-Type`, `Content-Length`,
/// `Connection`, the extra headers, blank line.
fn response_head(
    status: u16,
    content_type: &str,
    content_length: usize,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\nConnection: {}\r\n",
        reason(status),
        connection(keep_alive),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Writes a complete response, head and body in one write. Extra headers
/// (e.g. `Retry-After` on a `503`) must be token-clean; the caller controls
/// them. `keep_alive` says whether the server will read another request
/// from this connection.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(
    mut w: impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut message =
        response_head(status, content_type, body.len(), extra_headers, keep_alive).into_bytes();
    message.extend_from_slice(body);
    w.write_all(&message)?;
    w.flush()
}

/// Writes only the response head for a body the caller streams itself —
/// exactly `content_length` bytes must follow.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response_head(
    mut w: impl Write,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) -> io::Result<()> {
    w.write_all(response_head(status, content_type, content_length, &[], keep_alive).as_bytes())
}

/// One complete HTTP response as the client sees it.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// UTF-8 body.
    pub body: String,
    /// A parsed `Retry-After: <seconds>` header, if the server sent one
    /// (the saturation gate does, on `503`).
    pub retry_after: Option<u64>,
    /// Whether the connection may carry another request: the server
    /// answered HTTP/1.1 without `Connection: close`, and framed the body
    /// with a `Content-Length`.
    pub keep_alive: bool,
}

/// A response's status line and headers.
struct Head {
    status: u16,
    content_length: Option<usize>,
    retry_after: Option<u64>,
    /// HTTP/1.1 without `Connection: close`.
    keep_alive: bool,
}

/// A client connection, which can carry one request after another while
/// the server keeps it open.
#[derive(Debug)]
pub struct ClientConn {
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    /// Connects to `addr`. `timeout` bounds the connect and every later
    /// read and write separately: a batch API must never hang a client
    /// forever on a wedged peer.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn open(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let stream = connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request, head and body in one write.
    fn send(&mut self, method: &str, path: &str, body: &[u8], keep_alive: bool) -> io::Result<()> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: malec-serve\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            connection(keep_alive),
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.reader.get_mut().write_all(&message)
    }

    /// Sends one request and reads its response; `keep_alive` asks the
    /// server to keep the connection open afterwards. `Ok(None)`: the
    /// connection failed before a byte of the response arrived — as a
    /// kept-alive connection does once the server has closed it — so the
    /// request can be sent again on a fresh one. A timeout is an error,
    /// not `None`: the server may still be working on the request.
    ///
    /// # Errors
    ///
    /// Returns timeouts, socket errors once the response has begun, and
    /// `InvalidData` for a malformed or oversized response.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<Option<Response>> {
        let started = self
            .send(method, path, body, keep_alive)
            .and_then(|()| self.reader.fill_buf().map(|buf| !buf.is_empty()));
        match started {
            Ok(true) => self.read_response().map(Some),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                Err(e)
            }
            Ok(false) | Err(_) => Ok(None),
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head = read_response_head(&mut self.reader)?;
        let body = match head.content_length {
            Some(len) if len > MAX_BODY => return Err(bad("response too large")),
            Some(len) => {
                let mut buf = vec![0u8; len];
                self.reader.read_exact(&mut buf)?;
                buf
            }
            // A response without a length ends at connection close.
            None => {
                let mut buf = Vec::new();
                self.reader
                    .by_ref()
                    .take(MAX_BODY as u64 + 1)
                    .read_to_end(&mut buf)?;
                if buf.len() > MAX_BODY {
                    return Err(bad("response too large"));
                }
                buf
            }
        };
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Response {
            status: head.status,
            body,
            retry_after: head.retry_after,
            // Bytes past the framed body would be misread as the next
            // response: such a connection is not reused.
            keep_alive: head.keep_alive
                && head.content_length.is_some()
                && self.reader.buffer().is_empty(),
        })
    }
}

/// The error for a connection that closed before its response began.
pub(crate) fn closed_before_response() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed before the response",
    )
}

/// Default per-call network timeout for [`request`].
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Performs one HTTP round trip against `addr` and returns
/// `(status, body)`.
///
/// # Errors
///
/// Propagates connection and socket errors; returns `InvalidData` for a
/// malformed response.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, String)> {
    request_meta(addr, method, path, body, CLIENT_TIMEOUT).map(|r| (r.status, r.body))
}

/// [`request`] with an explicit timeout (applied to connect, reads, and
/// writes separately) and response metadata — the retry layer needs the
/// `Retry-After` header, not just the status. One exchange on a fresh
/// connection that asks the server to close it.
///
/// # Errors
///
/// Propagates connection and socket errors; returns `InvalidData` for a
/// malformed response.
pub fn request_meta(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Response> {
    ClientConn::open(addr, timeout)?
        .exchange(method, path, body, false)?
        .ok_or_else(closed_before_response)
}

/// Parses a response's status line and headers off `reader`, leaving the
/// reader at the first body byte. Shared by the buffering and streaming
/// clients; body size limits are the caller's policy.
fn read_response_head(reader: &mut impl BufRead) -> io::Result<Head> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
    let mut head = Head {
        status,
        content_length: None,
        retry_after: None,
        keep_alive: version == Some("HTTP/1.1"),
    };
    let mut headers_ended = false;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader)?;
        if line.is_empty() {
            headers_ended = true;
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = Some(parse_content_length(value, head.content_length)?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                // Only the delta-seconds form; an unparsable value (the
                // HTTP-date form) is ignored, not an error.
                head.retry_after = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") && says_close(value) {
                head.keep_alive = false;
            }
        }
    }
    if !headers_ended {
        // Falling out of the loop would misparse leftover header bytes as
        // the body; refuse like the server side does.
        return Err(bad("too many headers in response"));
    }
    Ok(head)
}

/// A streaming response body: bounded by the response's `Content-Length`
/// when present, by connection close otherwise. What
/// [`request_stream`] hands back.
pub struct ByteStream {
    reader: std::io::Take<BufReader<TcpStream>>,
}

impl Read for ByteStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

/// Performs one bodyless round trip against `addr` and returns the status
/// plus a [`ByteStream`] over the response body — the client side of
/// binary endpoints, where the body may exceed the JSON body cap and
/// should be consumed incrementally (the cache's `ingest` verifies it
/// record by record as it arrives).
///
/// # Errors
///
/// Propagates connection and socket errors; returns `InvalidData` for a
/// malformed response head.
pub fn request_stream(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    timeout: Duration,
) -> io::Result<(u16, ByteStream)> {
    let mut conn = ClientConn::open(addr, timeout)?;
    conn.send(method, path, b"", false)?;
    let head = read_response_head(&mut conn.reader)?;
    let limit = head.content_length.map_or(u64::MAX, |l| l as u64);
    Ok((
        head.status,
        ByteStream {
            reader: conn.reader.take(limit),
        },
    ))
}

/// `TcpStream::connect` with a timeout (std only offers it per
/// `SocketAddr`, so resolve first and try each address).
fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<TcpStream> {
    let mut last: Option<io::Error> = None;
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const BUDGET: Duration = Duration::from_secs(5);

    /// Reads one request off a fresh connection.
    fn read_one(stream: &TcpStream) -> io::Result<Request> {
        RequestReader::new(stream, BUDGET).read_request()
    }

    /// One-shot echo server: accepts a single connection, parses the
    /// request, responds with its own view of it.
    fn spawn_echo() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let (status, body) = match read_one(&stream) {
                Ok(req) => (
                    200,
                    format!(
                        "{} {} {}",
                        req.method,
                        req.path,
                        String::from_utf8_lossy(&req.body)
                    ),
                ),
                Err(e) => (400, e.to_string()),
            };
            write_response(&stream, status, "text/plain", &[], body.as_bytes(), false).ok();
        });
        addr
    }

    #[test]
    fn round_trip_with_body() {
        let addr = spawn_echo();
        let (status, body) = request(addr, "POST", "/v1/jobs", b"[scenario]").expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "POST /v1/jobs [scenario]");
    }

    /// The hardened single-byte reader (destructured, no indexing) keeps
    /// the exact line semantics: CRLF and bare-LF both terminate, a lone
    /// CR is dropped, EOF mid-line yields what arrived.
    #[test]
    fn read_line_handles_terminators_and_eof() {
        let mut crlf = std::io::Cursor::new(b"abc\r\nrest".to_vec());
        assert_eq!(read_line(&mut crlf).expect("line"), "abc");
        let mut lf = std::io::Cursor::new(b"abc\nrest".to_vec());
        assert_eq!(read_line(&mut lf).expect("line"), "abc");
        let mut bare_cr = std::io::Cursor::new(b"a\rb\n".to_vec());
        assert_eq!(read_line(&mut bare_cr).expect("line"), "ab");
        let mut eof = std::io::Cursor::new(b"tail".to_vec());
        assert_eq!(read_line(&mut eof).expect("line"), "tail");
    }

    #[test]
    fn round_trip_without_body() {
        let addr = spawn_echo();
        let (status, body) = request(addr, "GET", "/v1/healthz", b"").expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "GET /v1/healthz ");
    }

    #[test]
    fn query_strings_are_stripped() {
        let addr = spawn_echo();
        let (_, body) = request(addr, "GET", "/v1/jobs/3?verbose=1", b"").expect("request");
        assert!(body.starts_with("GET /v1/jobs/3 "), "{body}");
    }

    #[test]
    fn query_params_parse() {
        let req = Request {
            method: "POST".into(),
            path: "/v1/shutdown".into(),
            query: "mode=abort&x=1".into(),
            body: Vec::new(),
            keep_alive: false,
        };
        assert_eq!(req.query_param("mode"), Some("abort"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.query_param("abort"), None, "values are not keys");
    }

    #[test]
    fn slow_loris_is_cut_at_the_total_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let started = std::time::Instant::now();
            let err = RequestReader::new(&stream, Duration::from_millis(200))
                .read_request()
                .expect_err("dripped request must time out");
            (err, started.elapsed())
        });
        // Drip a valid-looking request one byte at a time, each byte well
        // within any per-read socket timeout — only a *total* deadline
        // stops this.
        let mut stream = TcpStream::connect(addr).expect("connect");
        for b in b"GET /v1/healthz HTTP/1.1\r\n" {
            if stream.write_all(&[*b]).is_err() {
                break; // server hung up at the deadline
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let (err, elapsed) = server.join().expect("server thread");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must fire promptly, took {elapsed:?}"
        );
    }

    #[test]
    fn extra_headers_reach_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            read_one(&stream).ok();
            write_response(
                &stream,
                503,
                "application/json",
                &[("Retry-After", "7")],
                b"{\"error\": \"saturated\"}",
                false,
            )
            .ok();
        });
        let resp = request_meta(addr, "GET", "/", b"", Duration::from_secs(5)).expect("round trip");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(7));
        assert!(resp.body.contains("saturated"));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        // Server side: the request parser must refuse to pick a winner
        // between two disagreeing Content-Length headers.
        let addr = spawn_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nabcdefghijk",
            )
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("conflicting Content-Length"), "{out}");
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        // Duplicates that agree are unambiguous; the body parses normally.
        let addr = spawn_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with("POST /x abc"), "{out}");
    }

    #[test]
    fn client_rejects_conflicting_content_lengths_in_responses() {
        // A malicious or broken server must not trick the client into
        // reading the wrong byte count.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_one(&stream).ok();
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
                )
                .ok();
        });
        let err = request(addr, "GET", "/", b"").expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("conflicting Content-Length"),
            "{err}"
        );
    }

    #[test]
    fn streamed_response_bodies_arrive_whole_and_bounded() {
        // The server writes the head, then the body in two chunks with a
        // pause between (the /v1/cache/sync shape); the client's
        // ByteStream reassembles exactly Content-Length bytes — trailing
        // garbage past the declared length is never surfaced.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let payload: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_one(&stream).ok();
            write_response_head(
                &stream,
                200,
                "application/octet-stream",
                payload.len(),
                false,
            )
            .expect("head");
            let (a, b) = payload.split_at(payload.len() / 2);
            stream.write_all(a).expect("first half");
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(30));
            stream.write_all(b).expect("second half");
            stream.write_all(b"TRAILING-GARBAGE").ok();
        });
        let (status, mut body) =
            request_stream(addr, "GET", "/v1/cache/sync", Duration::from_secs(5)).expect("stream");
        assert_eq!(status, 200);
        let mut got = Vec::new();
        body.read_to_end(&mut got).expect("read body");
        assert_eq!(got, expected, "chunked writes reassemble bit-identically");
    }

    #[test]
    fn malformed_request_is_a_clean_400() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let (status, body) = match read_one(&stream) {
                Ok(_) => (200, "ok"),
                Err(_) => (400, "bad"),
            };
            write_response(&stream, status, "text/plain", &[], body.as_bytes(), false).ok();
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn close_delimited_bodies_over_the_cap_are_refused() {
        // A body with no Content-Length ends at connection close; one
        // longer than the cap must fail like an oversized declared length,
        // not arrive silently cut to its first MAX_BODY bytes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_one(&stream).ok();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")
                .ok();
            stream.write_all(&vec![b'a'; MAX_BODY + 10]).ok();
        });
        let err = request(addr, "GET", "/", b"").expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("response too large"), "{err}");
    }
}
