//! A minimal keep-alive HTTP/1.1 client: one connection, one request at
//! a time (the closed loop of a curator who waits for each reply).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response: status and body. Any I/O or framing error is an `Err`.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers".into()));
            }
            let h = line.trim();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad header {h:?}")))?;
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".into()))?;
        Ok(Reply { status, body })
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_json_string(false)
}
