//! A minimal HTTP/1.1 keep-alive client for the loopback workload.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The whole body (a chunked body is de-chunked).
    pub body: Vec<u8>,
    /// When the first body bytes arrived (for a stream, its first line).
    pub first_byte: Instant,
}

impl Response {
    /// The body as text.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` with generous socket timeouts, so a hung server
    /// fails the request instead of the run.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        let stream = self.reader.get_mut();
        stream.write_all(&message)?;
        stream.flush()?;

        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').unwrap_or((&line, ""));
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|e| bad(e.to_string()))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            }
        }
        let mut body = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                let size_line = self.line()?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|e| bad(format!("bad chunk size {size_line:?}: {e}")))?;
                first_byte.get_or_insert_with(Instant::now);
                if size == 0 {
                    self.line()?;
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                self.line()?;
            }
        } else {
            let n = length.ok_or_else(|| bad("response without a length".into()))?;
            body.resize(n, 0);
            self.reader.read_exact(&mut body)?;
            first_byte = Some(Instant::now());
        }
        Ok(Response {
            status,
            body,
            first_byte: first_byte.unwrap_or_else(Instant::now),
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
