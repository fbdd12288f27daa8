//! A minimal blocking HTTP/1.1 client for the loopback `serve` workload,
//! plus server start-up helpers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use warpstl_serve::{serve, ServeConfig, ServerHandle};

/// One HTTP exchange on a fresh connection (the server closes after each
/// response). Returns the status code and the body.
///
/// # Errors
///
/// Socket failures and unparseable responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)?;
    let reply =
        String::from_utf8(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let status: u16 = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let (_, body) = reply.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// A running server plus the store directory it owns.
pub struct Daemon {
    /// The daemon handle (shut down by [`Daemon::stop`]).
    pub handle: ServerHandle,
    dir: Option<PathBuf>,
}

impl Daemon {
    /// Binds a server with `workers` workers (and a fresh store under
    /// `store_dir`, when given) and waits until `/healthz` answers.
    /// Returns the daemon and the seconds from `serve()` to that first
    /// answer.
    ///
    /// # Errors
    ///
    /// Bind failures, or a server that never answers its health check.
    pub fn start(workers: usize, store_dir: Option<&Path>) -> io::Result<(Daemon, f64)> {
        if let Some(dir) = store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let config = ServeConfig {
            workers: Some(workers),
            cache_dir: store_dir.map(Path::to_path_buf),
            ..ServeConfig::default()
        };
        let start = Instant::now();
        let handle = serve(&config)?;
        let daemon = Daemon {
            handle,
            dir: store_dir.map(Path::to_path_buf),
        };
        loop {
            if let Ok((200, _)) = request(daemon.handle.addr(), "GET", "/healthz", "") {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > Duration::from_secs(10) {
                daemon.stop();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server never became healthy",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drains and joins the server, then removes its store directory.
    pub fn stop(self) {
        self.handle.shutdown();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
