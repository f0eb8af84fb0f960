//! A one-request-per-connection HTTP/1.1 client, the shape `efes-serve`
//! speaks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response as read off the socket.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `content-length` of them).
    pub body: Vec<u8>,
    /// From connecting (the first byte sent) to the last response byte
    /// read.
    pub elapsed: Duration,
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Send one request and read the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let elapsed = started.elapsed();

    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator".to_owned()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| bad("response head is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("response has no content-length".to_owned()))?;
    let body = raw.split_off(head_end + 4);
    if body.len() != length {
        return Err(bad(format!(
            "body of {} bytes, content-length {length}",
            body.len()
        )));
    }
    Ok(Reply {
        status,
        body,
        elapsed,
    })
}
