//! The HTTP/1.1 GET codec of the one [`Server`] listener.
//!
//! Scrape tooling (Prometheus, load balancer health checks, humans with
//! `curl`) speaks HTTP, not the JSON-lines wire. A [`Server`] spawned with
//! [`Codec::Http`] shares the JSON-lines listener's connection cap, I/O
//! timeout and shutdown; this module adds only the protocol half: the
//! request parser over the same [`BoundedLineReader`] (an 8 KiB line cap,
//! capped header counts, a head deadline), the `503 busy` shed reply, and
//! the response writer.
//!
//! Deliberately tiny: `GET` only (anything else is `405`), no bodies read,
//! no chunked encoding, `Content-Length` responses with keep-alive and
//! pipelining. Routes live in the caller-provided responder closure; the
//! transport only knows paths and status codes.
//!
//! Nothing drains the HTTP listener: it keeps answering until process exit
//! so `/healthz` can report `503` while the JSON-lines server drains.
//!
//! [`Server`]: crate::serve::Server
//! [`Codec::Http`]: crate::serve::Codec::Http

use crate::serve::{linger_close, BoundedLineReader, Poll, ServeConfig, ServeShared};
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on one request line. Far below the JSON frame knob: scrape
/// targets are short, and an 8 KiB GET line is already abuse.
pub(crate) const MAX_REQUEST_LINE_BYTES: usize = 8 << 10;
/// Maximum header lines accepted per request before `431`.
const MAX_HEADER_LINES: usize = 64;

/// One rendered HTTP response: status, content type, body, and the
/// bounded-cardinality route label the request counter files it under
/// (`"other"` for anything outside the fixed route table).
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (sent with an exact `Content-Length`).
    pub body: String,
    /// Metric label for `haqjsk_http_requests_total{path=...}`. Must come
    /// from a fixed set — never echo the raw request path.
    pub route: &'static str,
}

impl HttpResponse {
    /// A `text/plain` response.
    pub fn text(status: u16, route: &'static str, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            route,
        }
    }
}

/// Maps a request path (query string already stripped) to a response.
pub type HttpResponder = dyn Fn(&str) -> HttpResponse + Send + Sync;

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a full response. `extra` carries pre-formatted additional header
/// lines (each `\r\n`-terminated), e.g. `Allow: GET` on a `405`.
pub(crate) fn write_response(
    writer: &mut TcpStream,
    response: &HttpResponse,
    close: bool,
    extra: &str,
) -> std::io::Result<()> {
    crate::obs::http_requests_counter(response.route, response.status).inc();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        extra,
        if close { "close" } else { "keep-alive" },
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(response.body.as_bytes())?;
    writer.flush()
}

/// Serves one HTTP connection until EOF, a protocol violation, a timeout,
/// or shutdown. Keep-alive by default; `Connection: close` honored.
pub(crate) fn serve_http_connection(
    mut reader: BoundedLineReader,
    mut writer: TcpStream,
    responder: &HttpResponder,
    shared: &Arc<ServeShared>,
    config: &ServeConfig,
) -> std::io::Result<()> {
    // Mid-line stall timer for the request-line phase: idle between
    // requests is fine (keep-alive), a half-sent line is not.
    let mut frame_started: Option<Instant> = None;
    'conn: loop {
        // Phase 1: the request line.
        let line = loop {
            if shared.shutdown.load(Ordering::Acquire) {
                break 'conn;
            }
            match reader.poll_line()? {
                Poll::Eof => break 'conn,
                Poll::Oversized => {
                    let response = HttpResponse::text(431, "transport", "request line too long\n");
                    write_response(&mut writer, &response, true, "").ok();
                    linger_close(&reader.stream, config.tick, &shared.shutdown);
                    break 'conn;
                }
                Poll::Tick { partial: false } => frame_started = None,
                Poll::Tick { partial: true } => {
                    let started = *frame_started.get_or_insert_with(Instant::now);
                    if let Some(timeout) = config.io_timeout {
                        if started.elapsed() >= timeout {
                            let response =
                                HttpResponse::text(408, "transport", "request timed out\n");
                            write_response(&mut writer, &response, true, "").ok();
                            break 'conn;
                        }
                    }
                }
                Poll::Line(line) => {
                    frame_started = None;
                    if line.is_empty() {
                        continue; // stray CRLF between pipelined requests
                    }
                    break line;
                }
            }
        };

        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            let response = HttpResponse::text(400, "transport", "malformed request line\n");
            write_response(&mut writer, &response, true, "").ok();
            break 'conn;
        };
        if !version.starts_with("HTTP/1.") {
            let response = HttpResponse::text(400, "transport", "unsupported protocol\n");
            write_response(&mut writer, &response, true, "").ok();
            break 'conn;
        }

        // Phase 2: headers, until the blank line. The whole head is one
        // "frame" for slow-loris purposes: a client that trickles complete
        // header lines (or sends none at all) is cut off `io_timeout`
        // after its request line, whether or not a line is half-sent.
        let head_started = Instant::now();
        let mut close_requested = version == "HTTP/1.0";
        let mut header_lines = 0usize;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                break 'conn;
            }
            if let Some(timeout) = config.io_timeout {
                if head_started.elapsed() >= timeout {
                    let response = HttpResponse::text(408, "transport", "headers timed out\n");
                    write_response(&mut writer, &response, true, "").ok();
                    break 'conn;
                }
            }
            match reader.poll_line()? {
                Poll::Eof => break 'conn,
                Poll::Oversized => {
                    let response = HttpResponse::text(431, "transport", "header line too long\n");
                    write_response(&mut writer, &response, true, "").ok();
                    linger_close(&reader.stream, config.tick, &shared.shutdown);
                    break 'conn;
                }
                Poll::Tick { .. } => continue,
                Poll::Line(header) => {
                    if header.is_empty() {
                        break; // end of head
                    }
                    header_lines += 1;
                    if header_lines > MAX_HEADER_LINES {
                        let response = HttpResponse::text(431, "transport", "too many headers\n");
                        write_response(&mut writer, &response, true, "").ok();
                        linger_close(&reader.stream, config.tick, &shared.shutdown);
                        break 'conn;
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        if name.trim().eq_ignore_ascii_case("connection") {
                            match value.trim() {
                                v if v.eq_ignore_ascii_case("close") => close_requested = true,
                                v if v.eq_ignore_ascii_case("keep-alive") => {
                                    close_requested = false
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }

        // Phase 3: dispatch.
        if !method.eq_ignore_ascii_case("GET") {
            let response = HttpResponse::text(405, "transport", "GET only\n");
            write_response(&mut writer, &response, true, "Allow: GET\r\n").ok();
            break 'conn;
        }
        let path = target.split('?').next().unwrap_or(target);
        let response = catch_unwind(AssertUnwindSafe(|| responder(path))).unwrap_or_else(|_| {
            crate::obs::serve_panics_counter().inc();
            HttpResponse::text(500, "transport", "internal error\n")
        });
        write_response(&mut writer, &response, close_requested, "")?;
        if close_requested {
            break 'conn;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Codec, Server};
    use std::io::{BufRead, BufReader, Read};
    use std::time::Duration;

    fn echo_codec() -> Codec {
        Codec::Http(Arc::new(|path: &str| match path {
            "/hello" => HttpResponse::text(200, "/hello", "hi\n"),
            "/boom" => panic!("deliberate test panic"),
            _ => HttpResponse::text(404, "other", "not found\n"),
        }))
    }

    fn fast_config() -> ServeConfig {
        ServeConfig {
            tick: Duration::from_millis(10),
            ..ServeConfig::default()
        }
    }

    /// Reads one response off the stream: (status, headers, body).
    fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, Vec<String>, String)> {
        let mut status_line = String::new();
        if reader.read_line(&mut status_line).ok()? == 0 {
            return None;
        }
        let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).ok()?;
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok()?;
                }
            }
            headers.push(line);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).ok()?;
        Some((status, headers, String::from_utf8_lossy(&body).into_owned()))
    }

    #[test]
    fn get_roundtrip_with_keep_alive_and_pipelining() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer
            .write_all(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hi\n");

        // Two pipelined requests in one write, answered in order on the
        // same connection.
        writer
            .write_all(b"GET /hello HTTP/1.1\r\n\r\nGET /missing HTTP/1.1\r\n\r\n")
            .unwrap();
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn connection_close_is_honored() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(headers.iter().any(|h| h == "Connection: close"));
        assert!(read_response(&mut reader).is_none(), "connection closed");
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"POST /hello HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 405);
        assert!(headers.iter().any(|h| h == "Allow: GET"));
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let long = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1024];
        writer.write_all(b"GET /").unwrap();
        writer.write_all(&long).unwrap();
        let (status, _, _) = read_response(&mut reader).expect("431 before close");
        assert_eq!(status, 431);
        assert!(read_response(&mut reader).is_none(), "connection closed");
        server.shutdown();
    }

    #[test]
    fn slow_loris_headers_are_cut_off() {
        let config = ServeConfig {
            io_timeout: Some(Duration::from_millis(80)),
            ..fast_config()
        };
        let mut server = Server::spawn_with_config("127.0.0.1:0", echo_codec(), config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // A complete request line, then silence: the per-line heuristic
        // alone would never fire, but the head deadline must.
        writer.write_all(b"GET /hello HTTP/1.1\r\n").unwrap();
        writer.flush().unwrap();
        let start = Instant::now();
        let (status, _, _) = read_response(&mut reader).expect("408 before close");
        assert_eq!(status, 408);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(read_response(&mut reader).is_none(), "connection closed");
        server.shutdown();
    }

    #[test]
    fn responder_panics_become_500() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 500);
        // The connection survives the panic.
        writer.write_all(b"GET /hello HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
}
