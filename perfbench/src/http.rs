//! The client side of the service: a `fedval_serve` child process and
//! blocking HTTP/1.1 requests over loopback sockets.
//!
//! The server answers every request with `Connection: close`, so each
//! request is one short-lived connection and a client never holds more
//! than one open at a time.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a job may take before its request times out and the job
/// counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Pids of live servers, so the watchdog can stop them before it exits.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    /// POSIX `kill(2)`: the service drains and flushes its cache on
    /// `SIGTERM`, which `Child::kill` (always `SIGKILL`) cannot send.
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is a child this process spawned and has not yet reaped, so
    // the id cannot have been reused by an unrelated process.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Exits the process after `limit` unless it has already ended, first
/// killing every live server, so a hung run still stops what it started
/// and ends within its time budget.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s, aborting", limit.as_secs());
        for &pid in LIVE.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            signal(pid, SIGKILL);
        }
        std::process::exit(3);
    });
}

/// A running `fedval_serve` process. Dropping it kills the process.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin` on an ephemeral loopback port with `cache_dir` as
    /// its `FEDVAL_CACHE_DIR` and returns once `/healthz` answers 200.
    pub fn start(bin: &Path, cache_dir: &Path, log: &Path) -> io::Result<Server> {
        let log = std::fs::File::create(log)?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .env("FEDVAL_CACHE_DIR", cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        LIVE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on, dropping `server` on an error kills the child.
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // "fedval_serve listening on 127.0.0.1:PORT (N methods, M scenarios)"
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        server.addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no listen address in {line:?}")))?;
        let addr = server.addr;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match request(addr, "GET", "/healthz", "") {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err(io::Error::other("server never became healthy"))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Graceful stop: `SIGTERM` (drain, flush the cache), then wait.
    /// Falls back to `SIGKILL` if the drain outlasts its grace.
    pub fn stop(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("server not yet stopped");
        signal(child.id(), SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(40);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                child.kill()?;
                break child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        forget(child.id());
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "fedval_serve exited with {status}"
            )))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            forget(child.id());
        }
    }
}

fn forget(pid: u32) {
    LIVE.lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|&p| p != pid);
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Sends one request and reads the whole response (the server closes
/// the connection after it). A chunked body is decoded.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("head is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let payload = &raw[split + 4..];
    let body = if chunked {
        dechunk(payload).ok_or_else(|| bad("bad chunked body"))?
    } else {
        payload.to_vec()
    };
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Reply { status, body })
}

/// Decodes a chunked body; `None` unless it ends with the zero chunk,
/// so a stream cut short reads as an error, not as a short log.
fn dechunk(mut rest: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let eol = rest.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(std::str::from_utf8(&rest[..eol]).ok()?.trim(), 16).ok()?;
        rest = &rest[eol + 2..];
        if size == 0 {
            return Some(out);
        }
        out.extend_from_slice(rest.get(..size)?);
        rest = rest.get(size + 2..)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_plain_and_chunked_responses() {
        let plain = parse_response(b"HTTP/1.1 202 Accepted\r\nA: b\r\n\r\n{\"job\": 1}").unwrap();
        assert_eq!(plain.status, 202);
        assert_eq!(plain.body, "{\"job\": 1}");
        let chunked = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\nc\n\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(chunked.body, "ab\nc\n");
        assert!(parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n"
        )
        .is_err());
    }
}
