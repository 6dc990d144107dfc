//! The three `xpaxos-server` processes of a run: spawning, readiness,
//! liveness checks, kill and restart.

use std::fs::{self, File};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Replicas in a t = 1 cluster.
pub const REPLICAS: usize = 3;

/// A free loopback port: bind port 0, read it back, release it.
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// How to launch the replicas.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The `xpaxos-server` executable.
    pub bin: PathBuf,
    /// Flags shared by every replica (`--t`, `--clients`, `--addrs`, knobs).
    pub flags: Vec<String>,
    /// Directory for logs and (when durable) data and evidence directories.
    pub dir: PathBuf,
    /// Run replicas on durable storage (`--data-dir`).
    pub durable: bool,
    /// Also record accountability evidence (`--evidence-dir`).
    pub evidence: bool,
    /// Serve `/metrics` on these ports (the traced run).
    pub metrics_ports: Option<[u16; REPLICAS]>,
}

struct Replica {
    child: Child,
    log: PathBuf,
}

/// The running replicas.
pub struct Cluster {
    spec: ServerSpec,
    replicas: Vec<Option<Replica>>,
    incarnation: usize,
}

impl ServerSpec {
    /// The data directory of replica `id`.
    pub fn data_dir(&self, id: usize) -> PathBuf {
        self.dir.join(format!("data{id}"))
    }

    /// The evidence directory of replica `id`.
    pub fn evidence_dir(&self, id: usize) -> PathBuf {
        self.dir.join(format!("evidence{id}"))
    }

    /// The `/metrics` address of replica `id`, in the traced run.
    pub fn metrics_addr(&self, id: usize) -> Option<SocketAddr> {
        self.metrics_ports
            .map(|ports| SocketAddr::from(([127, 0, 0, 1], ports[id])))
    }
}

impl Cluster {
    /// Spawns all replicas (without waiting for them to listen).
    pub fn spawn(spec: ServerSpec) -> io::Result<Self> {
        fs::create_dir_all(&spec.dir)?;
        let mut cluster = Cluster {
            spec,
            replicas: (0..REPLICAS).map(|_| None).collect(),
            incarnation: 0,
        };
        for id in 0..REPLICAS {
            cluster.start(id)?;
        }
        Ok(cluster)
    }

    /// Starts replica `id` (again, after a kill: it recovers from its data
    /// directory).
    pub fn start(&mut self, id: usize) -> io::Result<()> {
        self.incarnation += 1;
        let log = self
            .spec
            .dir
            .join(format!("replica{id}-{}.log", self.incarnation));
        let mut cmd = Command::new(&self.spec.bin);
        cmd.arg("--id").arg(id.to_string()).args(&self.spec.flags);
        if self.spec.durable {
            cmd.arg("--data-dir").arg(self.spec.data_dir(id));
        }
        if self.spec.evidence {
            cmd.arg("--evidence-dir").arg(self.spec.evidence_dir(id));
        }
        if let Some(addr) = self.spec.metrics_addr(id) {
            cmd.arg("--metrics-addr").arg(addr.to_string());
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?)
            .spawn()?;
        self.replicas[id] = Some(Replica { child, log });
        Ok(())
    }

    /// Whether replica `id` has logged that it listens.
    pub fn listening(&self, id: usize) -> bool {
        self.replicas[id].as_ref().is_some_and(|r| {
            fs::read_to_string(&r.log)
                .unwrap_or_default()
                .contains(" listening on ")
        })
    }

    /// Waits until replica `id` listens.
    pub fn wait_listening(&mut self, id: usize, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while !self.listening(id) {
            let replica = self.replicas[id]
                .as_mut()
                .ok_or_else(|| format!("replica {id} is not running"))?;
            if let Ok(Some(status)) = replica.child.try_wait() {
                let text = fs::read_to_string(&replica.log).unwrap_or_default();
                return Err(format!(
                    "replica {id} exited at start-up ({status}): {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("replica {id} did not listen within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// The pid of replica `id`, if running.
    pub fn pid(&self, id: usize) -> Option<u32> {
        self.replicas[id].as_ref().map(|r| r.child.id())
    }

    /// Kills replica `id` with SIGKILL and reaps it.
    pub fn kill(&mut self, id: usize) {
        if let Some(mut replica) = self.replicas[id].take() {
            let _ = replica.child.kill();
            let _ = replica.child.wait();
        }
    }

    /// The first replica that exited on its own, with its status and log
    /// tail (any exit is a failed run: servers run until killed).
    pub fn exited(&mut self) -> Option<String> {
        for (id, slot) in self.replicas.iter_mut().enumerate() {
            let Some(replica) = slot else { continue };
            if let Ok(Some(status)) = replica.child.try_wait() {
                let text = fs::read_to_string(&replica.log).unwrap_or_default();
                let tail: String = text.lines().rev().take(5).collect::<Vec<_>>().join(" | ");
                return Some(format!("replica {id} exited ({status}): {tail}"));
            }
        }
        None
    }

    /// Whether any replica's log reports a panic.
    pub fn panicked(&self) -> Option<String> {
        self.replicas.iter().flatten().find_map(|r| {
            let text = fs::read_to_string(&r.log).unwrap_or_default();
            text.lines()
                .find(|l| l.contains("panicked"))
                .map(str::to_string)
        })
    }

    /// The launch spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for id in 0..REPLICAS {
            self.kill(id);
        }
    }
}
