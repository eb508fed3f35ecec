//! An incremental HTTP/1.1 **response** decoder for nonblocking client
//! sockets.
//!
//! Grown out of the open-loop loadgen's private decoder and promoted
//! here so the serve tier's router can reuse it: the scatter-gather
//! shard-client pool drives many upstream sockets from one poll loop and
//! needs exactly this shape — feed bytes as they arrive, learn when a
//! full message (content-length or chunked framing) is present, then
//! extract the de-chunked body.
//!
//! The decoder accumulates the raw wire bytes and walks the chunk
//! framing from the head on each poll — one short size-line scan per
//! chunk, noise compared to the syscalls around it. Lengths taken from
//! the wire (`content-length`, chunk sizes) only bound how many bytes
//! the decoder waits for: they are overflow-checked and never size an
//! allocation.
//!
//! The blocking client reader (`ee_serve::http::read_response`) drives
//! this same decoder from a `BufRead`, using
//! [`message_len`](ResponseDecoder::message_len) to consume exactly one
//! message's bytes.

/// A malformed response: bad status line, unparsable framing headers, or
/// broken chunk framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadResponse(pub String);

impl std::fmt::Display for BadResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed HTTP response: {}", self.0)
    }
}

impl std::error::Error for BadResponse {}

/// Incremental HTTP/1.1 response decoder: feed bytes as they arrive,
/// get `Some(status)` once the full message is present.
pub struct ResponseDecoder {
    buf: Vec<u8>,
    head_end: usize,
    status: u16,
    chunked: bool,
    content_length: usize,
    headers: Vec<(String, String)>,
    /// Wire length of the whole message; `0` until it is complete.
    end: usize,
}

impl ResponseDecoder {
    /// A decoder at the start of a message.
    pub fn new() -> ResponseDecoder {
        ResponseDecoder {
            buf: Vec::new(),
            head_end: 0,
            status: 0,
            chunked: false,
            content_length: 0,
            headers: Vec::new(),
            end: 0,
        }
    }

    /// Append bytes; `Ok(Some(status))` when the response is complete,
    /// `Err` on malformed framing.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<u16>, BadResponse> {
        self.buf.extend_from_slice(bytes);
        if self.head_end == 0 {
            let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(None);
            };
            self.head_end = pos + 4;
            let head = std::str::from_utf8(&self.buf[..pos])
                .map_err(|_| BadResponse("head is not UTF-8".into()))?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().ok_or_else(|| BadResponse("empty head".into()))?;
            self.status = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| BadResponse(format!("bad status line {status_line:?}")))?;
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    self.chunked = true;
                } else if name == "content-length" {
                    self.content_length = value
                        .parse()
                        .map_err(|_| BadResponse(format!("bad content-length {value:?}")))?;
                }
                self.headers.push((name, value.to_string()));
            }
        }
        if !self.chunked {
            let end = self
                .head_end
                .checked_add(self.content_length)
                .ok_or_else(|| {
                    BadResponse(format!("content-length {} overflows", self.content_length))
                })?;
            if self.buf.len() >= end {
                self.end = end;
                return Ok(Some(self.status));
            }
            return Ok(None);
        }
        // Walk the chunk framing from the head each time.
        let mut at = self.head_end;
        loop {
            let Some(nl) = self.buf[at..].windows(2).position(|w| w == b"\r\n") else {
                return Ok(None);
            };
            let size_line = std::str::from_utf8(&self.buf[at..at + nl])
                .map_err(|_| BadResponse("chunk size is not UTF-8".into()))?;
            // Ignore chunk extensions (";…") per RFC 9112 §7.1.1.
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| BadResponse(format!("bad chunk size {size_line:?}")))?;
            // Chunk bytes + CRLF; for the last (zero-size) chunk the CRLF
            // is the empty trailer section.
            let data_end = (at + nl + 2)
                .checked_add(size)
                .and_then(|e| e.checked_add(2))
                .ok_or_else(|| BadResponse(format!("chunk size {size_line:?} overflows")))?;
            if self.buf.len() < data_end {
                return Ok(None);
            }
            if &self.buf[data_end - 2..data_end] != b"\r\n" {
                return Err(BadResponse(if size == 0 {
                    "unexpected trailer".into()
                } else {
                    "chunk not CRLF-terminated".into()
                }));
            }
            if size == 0 {
                self.end = data_end;
                return Ok(Some(self.status));
            }
            at = data_end;
        }
    }

    /// Status code, valid once the head has been parsed (`0` before).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// True once [`feed`](Self::feed) has seen the whole message.
    pub fn is_complete(&self) -> bool {
        self.end > 0
    }

    /// Wire length of the complete message (head plus framed body), or
    /// `None` before it is complete. Bytes fed past it belong to the
    /// next message on the connection.
    pub fn message_len(&self) -> Option<usize> {
        self.is_complete().then_some(self.end)
    }

    /// True when any body byte (anything past the head) has arrived —
    /// the point past which a failed upstream exchange can no longer be
    /// transparently retried on a fresh connection.
    pub fn started_body(&self) -> bool {
        self.head_end > 0 && self.buf.len() > self.head_end
    }

    /// First value of a (lower-cased) header, once the head is parsed.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// All parsed headers (lower-cased names), in wire order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// Whether the server keeps the connection open after this response
    /// (HTTP/1.1 default unless `connection: close`).
    pub fn is_keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The de-chunked body of a **complete** response. Returns the body
    /// bytes with all transfer framing removed; panics if the message is
    /// not complete yet (a state error in the caller, not a wire error).
    pub fn body(&self) -> Vec<u8> {
        assert!(self.is_complete(), "body() before the response completed");
        if !self.chunked {
            return self.buf[self.head_end..self.end].to_vec();
        }
        let mut body = Vec::new();
        let mut at = self.head_end;
        loop {
            let nl = self.buf[at..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .expect("complete message walks cleanly");
            let size_line = std::str::from_utf8(&self.buf[at..at + nl]).expect("checked in feed");
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16).expect("checked in feed");
            if size == 0 {
                return body;
            }
            let data_start = at + nl + 2;
            body.extend_from_slice(&self.buf[data_start..data_start + size]);
            at = data_start + size + 2;
        }
    }
}

impl Default for ResponseDecoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_bodies_decode_byte_at_a_time() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-type: text/plain\r\n\r\nhello";
        let mut dec = ResponseDecoder::new();
        let mut done = None;
        for b in wire.iter() {
            if let Some(s) = dec.feed(std::slice::from_ref(b)).unwrap() {
                done = Some(s);
            }
        }
        assert_eq!(done, Some(200));
        assert!(dec.is_complete());
        assert_eq!(dec.message_len(), Some(wire.len()));
        assert_eq!(dec.body(), b"hello");
        assert_eq!(dec.header("content-type"), Some("text/plain"));
        assert!(dec.is_keep_alive());
    }

    #[test]
    fn chunked_bodies_decode_and_dechunk() {
        let wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nwor\r\n0\r\n\r\n";
        // All at once.
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(wire).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hellowor");
        // Split mid-chunk.
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(&wire[..40]).unwrap(), None);
        assert_eq!(dec.feed(&wire[40..]).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hellowor");
        // Bytes past the terminator belong to the next message.
        let mut dec = ResponseDecoder::new();
        let mut two = wire.to_vec();
        two.extend_from_slice(b"HTTP/1.1 204 No Content\r\n");
        assert_eq!(dec.feed(&two).unwrap(), Some(200));
        assert_eq!(dec.message_len(), Some(wire.len()));
        assert_eq!(dec.body(), b"hellowor");
    }

    #[test]
    fn chunk_extensions_are_ignored_by_decoder() {
        let wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\n\r\n";
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(wire).unwrap(), Some(200));
        assert_eq!(dec.body(), b"hello");
    }

    #[test]
    fn malformed_framing_errors_instead_of_hanging() {
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n")
            .is_err());
        let mut dec = ResponseDecoder::new();
        assert!(dec.feed(b"NONSENSE\r\n\r\n").is_err());
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ncontent-length: pony\r\n\r\n")
            .is_err());
    }

    #[test]
    fn hostile_content_length_is_rejected_not_overflowed() {
        let mut dec = ResponseDecoder::new();
        let err = dec
            .feed(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nab")
            .unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
        assert!(!dec.is_complete());
    }

    #[test]
    fn hostile_chunk_size_is_rejected_not_overflowed() {
        let mut dec = ResponseDecoder::new();
        let err = dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nffffffffffffffff\r\nab")
            .unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
        assert!(!dec.is_complete());
    }

    #[test]
    fn chunk_data_must_end_in_crlf() {
        let mut dec = ResponseDecoder::new();
        let err = dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabcXY0\r\n\r\n")
            .unwrap_err();
        assert!(err.0.contains("not CRLF-terminated"), "{err}");
    }

    #[test]
    fn non_empty_trailer_section_is_rejected() {
        let mut dec = ResponseDecoder::new();
        let err = dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nx-t: 1\r\n\r\n")
            .unwrap_err();
        assert!(err.0.contains("unexpected trailer"), "{err}");
    }

    #[test]
    fn connection_close_and_body_progress_are_visible() {
        let mut dec = ResponseDecoder::new();
        dec.feed(b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: 2\r\n\r\n")
            .unwrap();
        assert!(!dec.is_complete());
        assert!(!dec.started_body());
        assert_eq!(dec.status(), 503);
        assert!(!dec.is_keep_alive());
        assert_eq!(dec.feed(b"no").unwrap(), Some(503));
        assert!(dec.started_body());
        assert_eq!(dec.body(), b"no");
    }

    #[test]
    fn empty_sized_body_completes_at_head_end() {
        let mut dec = ResponseDecoder::new();
        assert_eq!(
            dec.feed(b"HTTP/1.1 304 Not Modified\r\ncontent-length: 0\r\n\r\n")
                .unwrap(),
            Some(304)
        );
        assert_eq!(dec.body(), b"");
    }
}
