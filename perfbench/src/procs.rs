//! The processes under test and the client side of the wire: building the
//! release binaries, spawning them with a pinned environment, reading
//! their CPU time and peak memory, and JSON-lines connections.

use haqjsk::engine::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Paths of the release binaries under test.
pub struct Bins {
    pub serve: PathBuf,
    pub worker: PathBuf,
}

/// Builds `haqjsk-serve` and `haqjsk-worker` in release mode into the
/// target directory this benchmark itself was built into, so one
/// `CARGO_TARGET_DIR` holds everything.
pub fn build_binaries() -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let profile_dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .to_path_buf();
    let target_dir = profile_dir
        .parent()
        .ok_or("profile directory has no parent")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "haqjsk-serve", "--bin", "haqjsk-worker"])
        .env("CARGO_TARGET_DIR", target_dir)
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the server binaries failed: {status}"));
    }
    Ok(Bins {
        serve: profile_dir.join("haqjsk-serve"),
        worker: profile_dir.join("haqjsk-worker"),
    })
}

/// A spawned server or worker, killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Held open so a late line on the child's stdout never meets a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Proc {
    /// Spawns `bin` with exactly the environment `env` (nothing is
    /// inherited, so no stray `HAQJSK_*` variable changes what runs) and
    /// waits for its `... listening on HOST:PORT` banner.
    pub fn spawn(bin: &Path, args: &[&str], env: &[(&str, String)]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .env_clear()
            .envs(env.iter().map(|(k, v)| (*k, v.as_str())))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} printed no listen banner: {banner:?}",
                    bin.display()
                ))
            }
        }
    }

    /// User plus system CPU time of the whole process so far, in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15, in clock ticks
        // of 10 ms on Linux.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {}", i + 3))
        };
        Ok((ticks(11)? + ticks(12)?) * 10.0)
    }

    /// Peak resident set size (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One JSON-lines connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(120))))
            .map_err(|e| format!("configure {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone {addr}: {e}"))?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one newline-terminated request line and reads the reply line;
    /// `None` when the reply never arrives.
    pub fn exchange(&mut self, line: &str) -> Option<String> {
        self.writer.write_all(line.as_bytes()).ok()?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Some(reply),
            _ => None,
        }
    }

    /// A control request that must succeed: parsed, `ok:true` checked.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("?");
        self.call_line(&format!("{request}\n"))
            .map_err(|e| format!("'{cmd}': {e}"))
    }

    /// [`Conn::call`] on a request line that is already rendered.
    pub fn call_line(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.exchange(line).ok_or("no reply")?;
        let json = Json::parse(&reply).map_err(|e| format!("bad reply: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request failed: {}", reply.trim_end()));
        }
        Ok(json)
    }
}

/// `{"cmd": <cmd>}`.
pub fn command(cmd: &str) -> Json {
    Json::obj([("cmd", Json::Str(cmd.to_string()))])
}
