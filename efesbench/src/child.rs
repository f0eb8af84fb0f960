//! The server under test as a child process.

use crate::client;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Every server setting the benchmark depends on, passed on the command
/// line so that no default or environment variable can change it.
pub const SERVER_ARGS: &[&str] = &[
    "--addr",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--queue-capacity",
    "64",
    "--cache-capacity",
    "4096",
    "--ingest-budget",
    "256m",
    "--max-body-bytes",
    "1048576",
    "--max-upload-bytes",
    "67108864",
    "--default-deadline-ms",
    "30000",
    "--max-deadline-ms",
    "120000",
    "--allow-remote-shutdown",
];

/// A running `efes-serve`. Dropping it kills the process and waits for
/// it.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `binary` with [`SERVER_ARGS`] and wait until it listens.
    pub fn spawn(binary: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Owning the child before the first fallible step makes `Drop`
        // reap it on every error path.
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("efes-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected server banner {line:?}"),
                )
            })?;
        Ok(server)
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain and wait until the process has exited.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = client::request(self.addr, "POST", "/shutdown", b"")?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "shutdown answered {}",
                reply.status
            )));
        }
        // The pipe closes when the process exits.
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
