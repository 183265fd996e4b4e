//! A busy-polling client connection. The socket is non-blocking and the
//! client thread never sleeps: it keeps polling for replies (yielding the
//! CPU to anything runnable), so a reply is timestamped when it arrives,
//! not when an idle CPU gets round to waking the client up. One thread can
//! both keep an open-loop send schedule and read the replies.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ipg_frontend::protocol::{write_request, Status, Verb, RESPONSE_HEADER_LEN};

/// Gives up on a reply after this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One decoded reply.
#[derive(Debug)]
pub struct Reply {
    pub request_id: u64,
    pub status: Status,
    pub payload: Vec<u8>,
    /// When the client read the reply's last byte.
    pub received: Instant,
}

impl Reply {
    /// `(accepted, grammar_version)` of an `OK` parse-outcome payload.
    pub fn verdict(&self) -> Option<(bool, u64)> {
        if self.status != Status::Ok || self.payload.len() != 9 {
            return None;
        }
        let version = u64::from_le_bytes(self.payload[1..9].try_into().ok()?);
        Some((self.payload[0] != 0, version))
    }
}

#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    /// Bytes of `recv_buf` already consumed by decoded replies.
    consumed: usize,
    pub tenant: u32,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            send_buf: Vec::with_capacity(256),
            recv_buf: Vec::with_capacity(1 << 16),
            consumed: 0,
            tenant: 0,
        })
    }

    pub fn send(&mut self, request_id: u64, verb: Verb, payload: &[u8]) -> io::Result<()> {
        let mut writer = Blocking(&self.stream);
        write_request(
            &mut writer,
            &mut self.send_buf,
            request_id,
            verb,
            0,
            self.tenant,
            payload,
        )
    }

    /// A reply if one has fully arrived, without waiting.
    pub fn poll(&mut self) -> io::Result<Option<Reply>> {
        if let Some(reply) = self.decode()? {
            return Ok(Some(reply));
        }
        let mut chunk = [0u8; 16 << 10];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.recv_buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.decode()
    }

    /// Waits (polling) for the next reply.
    pub fn wait(&mut self) -> io::Result<Reply> {
        let started = Instant::now();
        loop {
            if let Some(reply) = self.poll()? {
                return Ok(reply);
            }
            if started.elapsed() > REPLY_TIMEOUT {
                return Err(io::ErrorKind::TimedOut.into());
            }
            std::thread::yield_now();
        }
    }

    /// One request and its reply.
    pub fn request(&mut self, request_id: u64, verb: Verb, payload: &[u8]) -> io::Result<Reply> {
        self.send(request_id, verb, payload)?;
        let reply = self.wait()?;
        if reply.request_id != request_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply to {} while awaiting {request_id}", reply.request_id),
            ));
        }
        Ok(reply)
    }

    fn decode(&mut self) -> io::Result<Option<Reply>> {
        let pending = &self.recv_buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len < RESPONSE_HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short reply frame",
            ));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = &pending[4..4 + len];
        let status = Status::from_byte(frame[8])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown status"))?;
        let reply = Reply {
            request_id: u64::from_le_bytes(frame[..8].try_into().expect("8 bytes")),
            status,
            payload: frame[RESPONSE_HEADER_LEN..].to_vec(),
            received: Instant::now(),
        };
        self.consumed += 4 + len;
        if self.consumed == self.recv_buf.len() {
            self.recv_buf.clear();
            self.consumed = 0;
        }
        Ok(Some(reply))
    }
}

/// Writes to a non-blocking socket as if it blocked, yielding while the
/// send buffer is full.
struct Blocking<'a>(&'a TcpStream);

impl io::Write for Blocking<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match (&*self.0).write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
