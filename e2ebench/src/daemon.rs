//! The real `objectrunner-serve` binary as a child process, and the
//! load generator's connection to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// A running daemon at its default pool shape, listening on an
/// ephemeral port, with a wrapper store and an object store under
/// `dir`. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn start(bin: &Path, dir: &Path) -> Daemon {
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(dir.join("wrappers"))
            .arg("--object-store")
            .arg(dir.join("objects"))
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("start {}: {e}", bin.display()));
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon exited before listening");
            }
            addr = line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok());
        }
        // Keep reading stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Daemon {
            child,
            drain: Some(drain),
            addr: addr.expect("listening address"),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One closed-loop client connection: `TCP_NODELAY` on, each request
/// line sent in a single write, the next request only after the reply.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            stream,
            reader,
            buf: Vec::new(),
        }
    }

    /// Send one request line and read its response line.
    pub fn request(&mut self, line: &str) -> String {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf).expect("send request");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read response");
        assert!(n > 0, "daemon closed the connection");
        response.truncate(response.trim_end().len());
        response
    }
}
