//! A minimal blocking HTTP/1.1 client: one keep-alive connection, one
//! request at a time, `Content-Length` and chunked response framing.
//!
//! The benchmark carries its own client so that what it measures does
//! not depend on the server crate's own decoders.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response.
pub struct Resp {
    /// Status code.
    pub status: u16,
    /// Header names lower-cased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The de-framed body.
    pub body: Vec<u8>,
}

impl Resp {
    /// First header value named `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    /// A connection to `addr`; the socket opens on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    /// Send one raw request and read its whole response. On any error the
    /// connection is dropped, so the next call starts on a fresh socket.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Resp> {
        let result = self.exchange(raw);
        match &result {
            Ok(resp) if resp.header("connection") != Some("close") => {}
            _ => self.reader = None,
        }
        result
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<Resp> {
        if self.reader.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.reader = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        let reader = self.reader.as_mut().expect("connection opened above");
        reader.get_mut().write_all(raw)?;
        read_response(reader)
    }
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Read one response (status line, headers, body) from `r`.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Resp> {
    let status_line = read_line(r)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let find = |n: &str| headers.iter().find(|(k, _)| k == n).map(|(_, v)| v.clone());
    let mut body = Vec::new();
    if find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            let size_line = read_line(r)?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailers end at the first empty line.
                while !read_line(r)?.is_empty() {}
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            r.read_exact(&mut body[start..])?;
            if !read_line(r)?.is_empty() {
                return Err(bad("chunk not followed by CRLF"));
            }
        }
    } else if let Some(len) = find("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| bad(format!("bad content-length {len:?}")))?;
        if len > 64 << 20 {
            return Err(bad("response body over 64 MiB"));
        }
        body.resize(len, 0);
        r.read_exact(&mut body)?;
    }
    Ok(Resp {
        status,
        headers,
        body,
    })
}

/// A GET request for `target` (path plus query string).
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

/// A POST request for `target` with `body`.
pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Percent-encode `s` for a query-string value (RFC 3986 unreserved kept).
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_sized_and_chunked_bodies() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nX-Cache: HIT\r\n\r\nabc\
HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nhe\r\n3\r\nllo\r\n0\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let a = read_response(&mut r).unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"abc"[..]));
        assert_eq!(a.header("x-cache"), Some("HIT"));
        let b = read_response(&mut r).unwrap();
        assert_eq!(b.body, b"hello");
    }

    #[test]
    fn percent_encoding_keeps_unreserved_only() {
        assert_eq!(encode_component("a b{?}"), "a%20b%7B%3F%7D");
    }
}
