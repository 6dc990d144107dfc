//! `xft-perfbench` — the loopback XPaxos benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload put-saturate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. It builds `xpaxos-server` from source,
//! launches three replicas (t = 1) on loopback and drives them from this
//! process: one `MuxClient` on one endpoint whose sub-clients issue seeded
//! `Put`/`GetVer` operations in a closed loop. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the workload untraced and then traced
//! (`--metrics-addr` on every replica) and prints the per-layer metrics and
//! the CPU budget. The last line of standard output is one JSON object with
//! the correctness verdict and the metrics. See `perfbench/README.md`.

mod cluster;
mod gen;
mod procfs;
mod prom;
mod replay;
mod stats;

use cluster::{free_port, Cluster, ServerSpec, REPLICAS};
use gen::{lock, Book, Generator, Mix};
use procfs::{ProcSnap, Usage};
use prom::Scrape;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_net::{register_cluster_keys, AddressBook, NetConfig, StartMode, TcpRuntime};
use xft_simnet::{PipelineConfig, SimDuration};

/// Warm-up after the key space is populated, before the window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest a phase outside the window may take before the run fails.
const PHASE_TIMEOUT: Duration = Duration::from_secs(30);
/// Granularity of the generator loop (the protocol thread returns to the
/// benchmark this often to check phases and replica liveness).
const SLICE: Duration = Duration::from_millis(5);
/// Replicas stop by themselves this long after the window length, which
/// outlasts a session's every phase timeout.
const ORPHAN_GRACE_S: u64 = 180;

/// One benchmark workload.
#[derive(Debug, Clone)]
struct Workload {
    name: &'static str,
    subs: usize,
    window: usize,
    mix: Mix,
    durable: bool,
    evidence: bool,
    delta_ms: u64,
    retransmit_ms: u64,
    server_flags: &'static [&'static str],
    /// Kill the view-0 primary at this share of the window and restart it
    /// from its data directory at the second share.
    failover: Option<(f64, f64)>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "put-saturate",
            subs: 64,
            window: 8,
            mix: Mix {
                put_permille: 1000,
                keys: 1024,
                value_len: 256,
            },
            durable: false,
            evidence: false,
            delta_ms: 5000,
            retransmit_ms: 2000,
            server_flags: &["--batch-size", "256", "--max-in-flight", "16"],
            failover: None,
        },
        Workload {
            name: "durable-mixed",
            subs: 16,
            window: 4,
            mix: Mix {
                put_permille: 500,
                keys: 1024,
                value_len: 1024,
            },
            durable: true,
            evidence: true,
            delta_ms: 5000,
            retransmit_ms: 2000,
            server_flags: &["--fsync-overlap", "1"],
            failover: None,
        },
        Workload {
            name: "lone-read",
            subs: 1,
            window: 1,
            mix: Mix {
                put_permille: 100,
                keys: 1024,
                value_len: 64,
            },
            durable: false,
            evidence: false,
            delta_ms: 5000,
            retransmit_ms: 2000,
            server_flags: &[],
            failover: None,
        },
        Workload {
            name: "failover",
            subs: 8,
            window: 1,
            mix: Mix {
                put_permille: 500,
                keys: 1024,
                value_len: 256,
            },
            durable: true,
            evidence: false,
            delta_ms: 200,
            retransmit_ms: 1000,
            server_flags: &["--fsync-overlap", "1"],
            failover: Some((0.2, 0.5)),
        },
    ]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                map.insert(flag.clone(), value.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let take = |flag: &str| map.get(flag).cloned().ok_or(format!("missing {flag}"));
    let name = take("--workload")?;
    let workload = workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        take(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: num("--trace")? != 0,
    })
}

/// Builds `xpaxos-server` from the repository's sources and returns its path.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").exists() || !Path::new("crates/net").is_dir() {
        return Err("run from the repository root (crates/net not found)".into());
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "xft-net",
            "--bin",
            "xpaxos-server",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building xpaxos-server failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("xpaxos-server");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
struct Measured {
    window_s: f64,
    committed: u64,
    issued: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    max_gap_s: f64,
    usage: Usage,
    generator_cpu_ns: u64,
    rss_kb: u64,
    scrape: Vec<Scrape>,
    snapshot_file_bytes: u64,
    restart_to_listen_s: f64,
    errors: Vec<String>,
    per_second: Vec<u64>,
    /// Share of the host's CPU time other guests took during the window.
    steal_pct: f64,
}

/// A live cluster plus the generator driving it.
struct Session {
    workload: Workload,
    cluster: Cluster,
    runtime: Option<TcpRuntime<Generator>>,
    book: Arc<Mutex<Book>>,
    setup_s: f64,
}

impl Session {
    /// Spawns the replicas, connects the generator, populates the key space
    /// and warms up. `setup_s` covers all of it.
    fn setup(
        w: &Workload,
        seed: u64,
        seconds: u64,
        bin: &Path,
        dir: &Path,
        traced: bool,
    ) -> Result<Self, String> {
        let start = Instant::now();
        let io = |e: std::io::Error| e.to_string();
        let ports: Vec<u16> = (0..REPLICAS)
            .map(|_| free_port())
            .collect::<Result<_, _>>()
            .map_err(io)?;
        let mux_listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let mux_addr = mux_listener.local_addr().map_err(io)?;
        let mut addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        addrs.extend((0..w.subs).map(|_| mux_addr.to_string()));
        let mut flags: Vec<String> = vec![
            "--t".into(),
            "1".into(),
            "--clients".into(),
            w.subs.to_string(),
            "--addrs".into(),
            addrs.join(","),
            "--delta-ms".into(),
            w.delta_ms.to_string(),
            "--retransmit-ms".into(),
            w.retransmit_ms.to_string(),
            "--window".into(),
            w.window.to_string(),
            // A replica left behind by a killed benchmark stops on its own.
            "--run-secs".into(),
            (seconds + ORPHAN_GRACE_S).to_string(),
        ];
        flags.extend(w.server_flags.iter().map(|s| s.to_string()));
        let metrics_ports = if traced {
            let p: Vec<u16> = (0..REPLICAS)
                .map(|_| free_port())
                .collect::<Result<_, _>>()
                .map_err(io)?;
            Some([p[0], p[1], p[2]])
        } else {
            None
        };
        let mut cluster = Cluster::spawn(ServerSpec {
            bin: bin.to_path_buf(),
            flags,
            dir: dir.to_path_buf(),
            durable: w.durable,
            evidence: w.evidence,
            metrics_ports,
        })
        .map_err(|e| format!("spawning replicas: {e}"))?;
        for id in 0..REPLICAS {
            cluster.wait_listening(id, PHASE_TIMEOUT)?;
        }

        let config = XPaxosConfig::new(1, w.subs)
            .with_delta(SimDuration::from_millis(w.delta_ms))
            .with_client_retransmit(SimDuration::from_millis(w.retransmit_ms))
            .with_pipeline(PipelineConfig::default().with_client_window(w.window));
        let registry = KeyRegistry::new(1 ^ 0x5eed);
        register_cluster_keys(&registry, &config);
        let book_addrs: Vec<_> = ports
            .iter()
            .map(|p| std::net::SocketAddr::from(([127, 0, 0, 1], *p)))
            .chain((0..w.subs).map(|_| mux_addr))
            .collect();
        let address_book = AddressBook::from_ordered(&book_addrs);
        let book = Arc::new(Mutex::new(Book::new(seed, w.mix, w.subs)));
        let generator = Generator::new(&config, &registry, Arc::clone(&book), w.subs);
        let runtime = TcpRuntime::start(
            generator,
            REPLICAS,
            address_book,
            mux_listener,
            NetConfig {
                seed: seed ^ 0xC11E47,
                ..NetConfig::default()
            },
            StartMode::Fresh,
        )
        .map_err(|e| format!("starting the generator: {e}"))?;
        let mut session = Session {
            workload: w.clone(),
            cluster,
            runtime: Some(runtime),
            book,
            setup_s: 0.0,
        };
        session.run_until("populate", PHASE_TIMEOUT, |b| b.populated())?;
        lock(&session.book).start_run();
        let warm_end = Instant::now() + WARMUP;
        session.run_until("warm-up", PHASE_TIMEOUT, |_| Instant::now() >= warm_end)?;
        session.setup_s = start.elapsed().as_secs_f64();
        Ok(session)
    }

    fn runtime(&mut self) -> &mut TcpRuntime<Generator> {
        self.runtime
            .as_mut()
            .expect("generator runs until teardown")
    }

    /// Drives the generator until `done` holds, failing on a replica exit
    /// or after `timeout`.
    fn run_until(
        &mut self,
        what: &str,
        timeout: Duration,
        mut done: impl FnMut(&Book) -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let mut checks = 0u32;
        loop {
            if done(&lock(&self.book)) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("{what} did not finish within {timeout:?}"));
            }
            self.runtime().run_for(SLICE);
            checks += 1;
            if checks.is_multiple_of(10) {
                if let Some(exit) = self.cluster.exited() {
                    return Err(exit);
                }
            }
        }
    }

    fn snapshots(&self) -> Result<Vec<Option<ProcSnap>>, String> {
        (0..REPLICAS)
            .map(|id| match self.cluster.pid(id) {
                Some(pid) => procfs::snapshot(pid, false)
                    .map(Some)
                    .map_err(|e| format!("/proc of replica {id}: {e}")),
                None => Ok(None),
            })
            .collect()
    }

    fn scrape(&self, id: usize) -> Option<Scrape> {
        let addr = self.cluster.spec().metrics_addr(id)?;
        self.cluster.pid(id)?;
        prom::scrape(addr)
            .map_err(|e| eprintln!("xft-perfbench: scraping replica {id}: {e}"))
            .ok()
    }

    /// The measured window, then drain and verification.
    fn measure(&mut self, seconds: u64) -> Result<Measured, String> {
        let roles = ["primary", "follower", "passive"];
        let traced = self.cluster.spec().metrics_ports.is_some();
        let mut m = Measured::default();
        let mut usage = Usage::default();
        let mut scrapes: Vec<Scrape> = vec![Scrape::default(); REPLICAS];
        let window = Duration::from_secs(seconds);

        let gen_pid = std::process::id();
        let gen_start = procfs::snapshot(gen_pid, true).map_err(|e| format!("/proc self: {e}"))?;
        let host_start = procfs::host_cpu().ok();
        let mut starts = self.snapshots()?;
        let mut scrape_starts: Vec<Option<Scrape>> =
            (0..REPLICAS).map(|id| self.scrape(id)).collect();
        let start = Instant::now();
        lock(&self.book).open_window(start);

        let mut pending = self.workload.failover.map(|(kill, restart)| {
            (
                start + window.mul_f64(kill),
                start + window.mul_f64(restart),
                false,
            )
        });
        let mut restarted_at = None;
        let mut checks = 0u32;
        while start.elapsed() < window {
            self.runtime()
                .run_for(SLICE.min(window.saturating_sub(start.elapsed())));
            if let Some((kill_at, restart_at, killed)) = pending.as_mut() {
                let now = Instant::now();
                if !*killed && now >= *kill_at {
                    // Account the primary's share up to the kill.
                    if let (Some(pid), Some(s)) = (self.cluster.pid(0), starts[0].take()) {
                        if let Ok(end) = procfs::snapshot(pid, false) {
                            m.rss_kb = m.rss_kb.max(end.hwm_kb);
                            usage.add(roles[0], Some(&s), &end);
                        }
                    }
                    if let (Some(before), Some(after)) = (scrape_starts[0].take(), self.scrape(0)) {
                        scrapes[0] = prom::delta(&before, &after);
                    }
                    self.cluster.kill(0);
                    *killed = true;
                } else if *killed && now >= *restart_at {
                    self.cluster
                        .start(0)
                        .map_err(|e| format!("restarting replica 0: {e}"))?;
                    restarted_at = Some(Instant::now());
                    pending = None;
                }
            }
            checks += 1;
            if checks.is_multiple_of(10) {
                if let Some(exit) = self.cluster.exited() {
                    return Err(exit);
                }
            }
            if let (Some(at), true) = (restarted_at, m.restart_to_listen_s == 0.0) {
                if self.cluster.listening(0) {
                    m.restart_to_listen_s = at.elapsed().as_secs_f64();
                }
            }
        }
        let end = Instant::now();
        if let (Some((s0, t0)), Ok((s1, t1))) = (host_start, procfs::host_cpu()) {
            m.steal_pct =
                100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        }
        let ends = self.snapshots()?;
        let gen_end = procfs::snapshot(gen_pid, true).map_err(|e| format!("/proc self: {e}"))?;
        let restarted = restarted_at.is_some();
        for id in 0..REPLICAS {
            if let Some(end_snap) = &ends[id] {
                m.rss_kb = m.rss_kb.max(end_snap.hwm_kb);
                // A restarted replica counts from its spawn.
                let from = if restarted && id == 0 {
                    None
                } else {
                    starts[id].as_ref()
                };
                usage.add(roles[id], from, end_snap);
            }
            if traced {
                if let Some(after) = self.scrape(id) {
                    let before = if restarted && id == 0 {
                        Scrape::default()
                    } else {
                        scrape_starts[id].take().unwrap_or_default()
                    };
                    // A restarted replica 0 adds its second life to the first.
                    scrapes[id].add(&prom::delta(&before, &after));
                }
            }
        }
        let servers_cpu_ns = usage.cpu_ns;
        usage.add("client", Some(&gen_start), &gen_end);
        m.generator_cpu_ns = usage.cpu_ns - servers_cpu_ns;
        if self.workload.durable {
            m.snapshot_file_bytes = std::fs::metadata(
                self.cluster
                    .spec()
                    .data_dir(1)
                    .join(xft_store::SNAPSHOT_FILE),
            )
            .map(|md| md.len())
            .unwrap_or(0);
        }
        m.usage = usage;
        m.scrape = scrapes;
        m.window_s = end.duration_since(start).as_secs_f64();
        {
            let mut book = lock(&self.book);
            book.close_window();
            m.committed = book.commit_ns.len() as u64;
            m.issued = book.issued_in_window;
            let mut commits = std::mem::take(&mut book.commit_ns);
            commits.sort_unstable();
            let window_ns = end.duration_since(start).as_nanos() as u64;
            m.max_gap_s = stats::max_gap(&commits, 0, window_ns) as f64 / 1e9;
            let mut per_second = vec![0u64; window_ns.div_ceil(1_000_000_000) as usize];
            let last = per_second.len() - 1;
            for &t in &commits {
                per_second[((t / 1_000_000_000) as usize).min(last)] += 1;
            }
            m.per_second = per_second;
            m.latency_ms = book.latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            m.latency_ms.sort_by(f64::total_cmp);
        }

        // Drain: no new workload operations; wait for the open ones.
        let drained = self.run_until("drain", PHASE_TIMEOUT, |b| b.open_work() == 0);
        m.failed = lock(&self.book).open_from_window;
        let allow_open = self.workload.failover.is_some();
        if let Err(e) = drained {
            if !allow_open {
                m.errors.push(e);
            }
        }
        lock(&self.book).start_verify();
        let keys = self.workload.mix.keys;
        if let Err(e) = self.run_until("verification", PHASE_TIMEOUT, |b| {
            b.verified_count() == keys
        }) {
            m.errors.push(e);
        }
        let book = lock(&self.book);
        m.errors.extend(book.check(allow_open));
        if self.workload.failover.is_none() {
            let views: Vec<u64> = self
                .runtime
                .as_ref()
                .map(|r| r.actor().clients().iter().map(|c| c.view().0).collect())
                .unwrap_or_default();
            if book.suspects > 0 || views.iter().any(|&v| v > 0) {
                m.errors.push(format!(
                    "view change on a steady workload ({} suspects, client views up to {})",
                    book.suspects,
                    views.iter().max().unwrap_or(&0)
                ));
            }
        }
        drop(book);
        if let Some(exit) = self.cluster.exited() {
            m.errors.push(exit);
        }
        if let Some(panic) = self.cluster.panicked() {
            m.errors.push(format!("replica panicked: {panic}"));
        }
        Ok(m)
    }

    fn teardown(mut self) {
        if let Some(runtime) = self.runtime.take() {
            runtime.shutdown();
        }
        // Dropping the cluster kills and reaps the replicas.
    }
}

/// Runs one set-up plus measured window in a fresh directory.
fn session_run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    bin: &Path,
    dir: &Path,
    traced: bool,
) -> Result<(f64, Measured), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut session = Session::setup(w, seed, seconds, bin, dir, traced)?;
    let setup_s = session.setup_s;
    let measured = session.measure(seconds);
    session.teardown();
    let _ = std::fs::remove_dir_all(dir);
    measured.map(|m| (setup_s, m))
}

/// An end-to-end report of one measured window.
struct EndToEnd {
    throughput: f64,
    p50: stats::Percentile,
    p99: stats::Percentile,
    cpu_us_per_op: f64,
    failed_pct: f64,
    max_gap_s: f64,
    rss_mb: f64,
}

fn end_to_end(m: &Measured) -> Result<EndToEnd, String> {
    if m.committed == 0 {
        return Err("no operation committed in the window".into());
    }
    let p50 = stats::nearest_rank(&m.latency_ms, 50.0).ok_or("no latency samples")?;
    let p99 = stats::nearest_rank(&m.latency_ms, 99.0).ok_or("no latency samples")?;
    Ok(EndToEnd {
        throughput: m.committed as f64 / m.window_s,
        p50,
        p99,
        cpu_us_per_op: m.usage.cpu_ns as f64 / 1e3 / m.committed as f64,
        failed_pct: 100.0 * m.failed as f64 / m.issued.max(1) as f64,
        max_gap_s: m.max_gap_s,
        rss_mb: m.rss_kb as f64 / 1024.0,
    })
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns a negative zero into zero.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json_metrics(metrics)
    );
}

fn print_end_to_end(w: &Workload, e: &EndToEnd, setup_s: f64, m: &Measured) {
    println!(
        "workload {}: {} sub-clients x window {}, {} keys, {} B values, {} % Put",
        w.name,
        w.subs,
        w.window,
        w.mix.keys,
        w.mix.value_len,
        w.mix.put_permille / 10
    );
    println!(
        "  throughput_ops_s  {:>12.1} ops/s  ({} committed in {:.3} s)",
        e.throughput, m.committed, m.window_s
    );
    println!(
        "  latency_p50_ms    {:>12.4} ms     (n = {})",
        e.p50.value, e.p50.samples
    );
    println!(
        "  latency_p99_ms    {:>12.4} ms     (n = {}, {} beyond)",
        e.p99.value, e.p99.samples, e.p99.beyond
    );
    println!(
        "  cpu_us_per_op     {:>12.2} us     (3 servers + generator)",
        e.cpu_us_per_op
    );
    println!(
        "  failed_pct        {:>12.4} %      ({} of {} issued still open after the drain)",
        e.failed_pct, m.failed, m.issued
    );
    println!("  max_gap_s         {:>12.4} s", e.max_gap_s);
    println!("  server_rss_mb     {:>12.2} MB", e.rss_mb);
    println!(
        "  setup_s           {:>12.4} s      (median of the set-ups)",
        setup_s
    );
    println!("  commits per second of the window: {:?}", m.per_second);
    println!(
        "  host CPU stolen by other guests during the window: {:.1} %; {:.0} MB written to disk",
        m.steal_pct,
        m.usage.write_bytes as f64 / 1e6
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let bin = build_server()?;
    let run_dir = PathBuf::from(".bench_run").join(format!("{}-{}", w.name, std::process::id()));
    let result = if args.trace {
        traced_run(args, &bin, &run_dir)
    } else {
        untraced_run(args, &bin, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn untraced_run(args: &Args, bin: &Path, run_dir: &Path) -> Result<bool, String> {
    let w = &args.workload;
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let _ = std::fs::remove_dir_all(run_dir);
        let session = Session::setup(w, args.seed, args.seconds, bin, run_dir, false)?;
        setups.push(session.setup_s);
        session.teardown();
    }
    let (setup_s, m) = session_run(w, args.seed, args.seconds, bin, run_dir, false)?;
    setups.push(setup_s);
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let e = end_to_end(&m)?;
    print_end_to_end(w, &e, setup_s, &m);
    report_errors(&m.errors);
    let correct = m.errors.is_empty();
    println!("verdict: {}", if correct { "PASS" } else { "FAIL" });
    let metrics = vec![
        ("throughput_ops_s".into(), e.throughput, "ops/s"),
        ("latency_p50_ms".into(), e.p50.value, "ms"),
        ("latency_p99_ms".into(), e.p99.value, "ms"),
        ("cpu_us_per_op".into(), e.cpu_us_per_op, "us"),
        ("server_rss_mb".into(), e.rss_mb, "MB"),
        ("setup_s".into(), setup_s, "s"),
    ];
    print_result(correct, m.issued, m.failed, &metrics);
    Ok(correct)
}

fn report_errors(errors: &[String]) {
    for e in errors {
        println!("  correctness: {e}");
    }
}

fn traced_run(args: &Args, bin: &Path, run_dir: &Path) -> Result<bool, String> {
    let w = &args.workload;
    let (_, plain) = session_run(w, args.seed, args.seconds, bin, run_dir, false)?;
    let plain_e = end_to_end(&plain)?;
    let (_, m) = session_run(w, args.seed, args.seconds, bin, run_dir, true)?;
    let e = end_to_end(&m)?;
    let ops = m.committed as f64;
    let per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let mut all = Scrape::default();
    for s in &m.scrape {
        all.add(s);
    }
    let total = |name: &str| all.get(name);
    let max_of = |name: &str| m.scrape.iter().map(|s| s.get(name)).fold(0.0, f64::max);

    let batch_mean = total("xft_batch_size_sum") / total("xft_batch_size_count").max(1.0);
    let appends = total("xft_wal_appends_total");
    let wal_bytes = total("xft_wal_bytes_written_total");
    let wal_record = if appends > 0.0 {
        wal_bytes / appends
    } else {
        0.0
    };
    std::fs::create_dir_all(run_dir).map_err(|e| e.to_string())?;
    let (replay, rr) = replay::run(
        &replay::ReplayInput {
            seed: args.seed,
            mix: w.mix,
            batch: batch_mean.round().max(1.0) as usize,
            wal_record: wal_record.round() as usize,
        },
        run_dir,
    )
    .map_err(|e| format!("replay: {e}"))?;
    let spans_path = PathBuf::from(".bench_run").join(format!("spans-{}.jsonl", w.name));
    replay
        .write(&spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;

    let u = &m.usage;
    let class = |c: &str| u.sum(|_, class| class == c);
    let role_class = |r: &str, c: &str| u.sum(|role, class| role == r && class == c);
    let all_ctxsw = u.sum(|_, _| true).ctxsw;
    let fsync = all.buckets("xft_wal_fsync_seconds");
    let ms = |q: f64| prom::bucket_quantile(&fsync, q).map_or(0.0, |s| s * 1e3);
    let overhead_pct = 100.0 * (plain_e.throughput - e.throughput) / plain_e.throughput;

    let mut metrics: Vec<(String, f64, &str)> = vec![
        (
            "net.read_cpu_us_per_op".into(),
            per_op(class("net.read").cpu_ns),
            "us",
        ),
        (
            "net.write_cpu_us_per_op".into(),
            per_op(class("net.write").cpu_ns),
            "us",
        ),
        (
            "net.accept_cpu_us_per_op".into(),
            per_op(class("net.accept").cpu_ns),
            "us",
        ),
        ("net.ctxsw_per_op".into(), all_ctxsw as f64 / ops, "count"),
        (
            "net.read_syscalls_per_op".into(),
            u.syscr as f64 / ops,
            "count",
        ),
        (
            "net.write_syscalls_per_op".into(),
            u.syscw as f64 / ops,
            "count",
        ),
        (
            "net.frames_sent_per_op".into(),
            total("xft_net_frames_sent_total") / ops,
            "count",
        ),
        (
            "net.dropped_total".into(),
            total("xft_net_dropped_total"),
            "count",
        ),
        (
            "order.primary_cpu_us_per_op".into(),
            per_op(role_class("primary", "order").cpu_ns),
            "us",
        ),
        (
            "order.follower_cpu_us_per_op".into(),
            per_op(role_class("follower", "order").cpu_ns),
            "us",
        ),
        (
            "order.passive_cpu_us_per_op".into(),
            per_op(role_class("passive", "order").cpu_ns),
            "us",
        ),
        ("order.batch_size_mean".into(), batch_mean, "count"),
        (
            "order.batches_per_s".into(),
            total("xft_batches_proposed_total") / m.window_s,
            "1/s",
        ),
        (
            "order.shed_per_op".into(),
            total("xft_shed_total") / ops,
            "count",
        ),
        (
            "order.reply_deferred_per_op".into(),
            total("xft_reply_deferred_total") / ops,
            "count",
        ),
    ];
    for name in [
        "crypto.sign_us",
        "crypto.verify_us",
        "crypto.verify_batch_us_per_sig",
    ] {
        metrics.push((name.into(), rr.get(name), "us"));
    }
    metrics.push((
        "crypto.sha256_mb_s".into(),
        rr.get("crypto.sha256_mb_s"),
        "MB/s",
    ));
    metrics.push((
        "crypto.merkle_root_ms".into(),
        rr.get("crypto.merkle_root_ms"),
        "ms",
    ));
    metrics.push((
        "crypto.verify_s_per_op".into(),
        total("xft_crypto_verify_seconds_sum") / ops,
        "s",
    ));
    metrics.push((
        "crypto.pool_cpu_us_per_op".into(),
        per_op(class("crypto.pool").cpu_ns),
        "us",
    ));
    for msg in ["request", "prepare", "commit", "reply"] {
        for dir in ["encode", "decode"] {
            let name = format!("wire.{dir}_us.{msg}");
            let v = rr.get(&name);
            metrics.push((name, v, "us"));
        }
    }
    for op in ["put", "getver"] {
        let name = format!("kvstore.apply_us.{op}");
        let v = rr.get(&name);
        metrics.push((name, v, "us"));
    }
    metrics.extend([
        ("store.appends_per_op".into(), appends / ops, "count"),
        ("store.bytes_per_op".into(), wal_bytes / ops, "B"),
        (
            "store.fsyncs_per_op".into(),
            total("xft_wal_fsyncs_total") / ops,
            "count",
        ),
        ("store.fsync_p50_ms".into(), ms(0.5), "ms"),
        ("store.fsync_p99_ms".into(), ms(0.99), "ms"),
        (
            "store.fsync_cpu_us_per_op".into(),
            per_op(class("store.fsync").cpu_ns),
            "us",
        ),
        (
            "store.disk_write_bytes_per_op".into(),
            u.write_bytes as f64 / ops,
            "B",
        ),
        ("store.append_us".into(), rr.get("store.append_us"), "us"),
        (
            "checkpoint.per_s".into(),
            total("xft_checkpoints_total") / m.window_s,
            "1/s",
        ),
        (
            "checkpoint.snapshot_bytes".into(),
            if m.snapshot_file_bytes > 0 {
                m.snapshot_file_bytes
            } else {
                rr.snapshot_bytes as u64
            } as f64,
            "B",
        ),
        (
            "checkpoint.capture_ms".into(),
            rr.get("checkpoint.capture_ms"),
            "ms",
        ),
        (
            "checkpoint.install_ms".into(),
            rr.get("checkpoint.install_ms"),
            "ms",
        ),
        (
            "evidence.cpu_us_per_op".into(),
            per_op(class("evidence").cpu_ns),
            "us",
        ),
        (
            "evidence.bytes_per_op".into(),
            class("evidence").wchar as f64 / ops,
            "B",
        ),
        (
            "view_change.count".into(),
            max_of("xft_view_changes_total"),
            "count",
        ),
        (
            "view_change.suspects".into(),
            total("xft_suspects_total"),
            "count",
        ),
        (
            "state_transfer.adopted".into(),
            total("xft_state_transfers_adopted_total"),
            "count",
        ),
        (
            "state_transfer.chunks_verified".into(),
            total("xft_state_chunks_verified_total"),
            "count",
        ),
        (
            "recovery.restart_to_listen_s".into(),
            m.restart_to_listen_s,
            "s",
        ),
        (
            "client.cpu_us_per_op".into(),
            per_op(m.generator_cpu_ns),
            "us",
        ),
        ("trace.overhead_pct".into(), overhead_pct, "%"),
    ]);

    println!(
        "workload {} (traced run; untraced comparison run first)",
        w.name
    );
    println!(
        "  host CPU stolen by other guests: {:.1} % untraced, {:.1} % traced",
        plain.steal_pct, m.steal_pct
    );
    println!(
        "  untraced: {:.1} ops/s, {:.2} us CPU/op; traced: {:.1} ops/s, {:.2} us CPU/op; \
         trace.overhead_pct {:.2} % of throughput, {:.2} % of CPU/op",
        plain_e.throughput,
        plain_e.cpu_us_per_op,
        e.throughput,
        e.cpu_us_per_op,
        overhead_pct,
        100.0 * (e.cpu_us_per_op - plain_e.cpu_us_per_op) / plain_e.cpu_us_per_op
    );
    // Every replica checkpoint captures a snapshot of the working set;
    // durable replicas also install it on disk.
    let install_ms = if w.durable {
        rr.get("checkpoint.install_ms")
    } else {
        0.0
    };
    let checkpoint_us_per_op =
        total("xft_checkpoints_total") / ops * 1e3 * (rr.get("checkpoint.capture_ms") + install_ms);
    print_budget(
        &m,
        &e,
        &rr,
        batch_mean.max(1.0),
        appends / ops,
        checkpoint_us_per_op,
        f64::from(w.mix.put_permille) / 1000.0,
    );
    println!("  per-layer metrics:");
    for (name, value, unit) in &metrics {
        let value = value + 0.0;
        if value != 0.0 && value.abs() < 0.01 {
            println!("    {name:<34} {value:>14.4e} {unit}");
        } else {
            println!("    {name:<34} {value:>14.4} {unit}");
        }
    }
    println!("  spans written to {}", spans_path.display());
    let mut errors = plain.errors.clone();
    errors.extend(m.errors.iter().cloned());
    report_errors(&errors);
    let correct = errors.is_empty();
    println!("verdict: {}", if correct { "PASS" } else { "FAIL" });
    print_result(
        correct,
        m.issued + plain.issued,
        m.failed + plain.failed,
        &metrics,
    );
    Ok(correct)
}

/// Prints the CPU budget: one row per (replica role, thread class) plus the
/// process CPU no live thread accounts for, summing to `cpu_us_per_op`; then
/// the replay estimate per layer and its unattributed remainder.
fn print_budget(
    m: &Measured,
    e: &EndToEnd,
    rr: &replay::ReplayResult,
    batch: f64,
    appends_per_op: f64,
    checkpoint_us_per_op: f64,
    put_share: f64,
) {
    let ops = m.committed as f64;
    println!("  CPU budget, us per committed op (measured, /proc):");
    let mut attributed = 0.0;
    for ((role, class), usage) in &m.usage.classes {
        let us = usage.cpu_ns as f64 / 1e3 / ops;
        attributed += us;
        println!("    {role:<9} {class:<15} {us:>10.3}");
    }
    let rest = e.cpu_us_per_op - attributed;
    println!(
        "    {:<25} {rest:>10.3}",
        "unattributed (exited threads, tick rounding)"
    );
    println!("    {:<25} {:>10.3}", "= cpu_us_per_op", e.cpu_us_per_op);
    // Per committed op in the t = 1 common case: the client signs its request
    // and both active replicas verify it (batched); per batch the primary
    // signs a PREPARE and the follower a COMMIT, each verified once. Request
    // and reply cross the wire once each way; PREPARE and COMMIT once per
    // batch. Both active replicas execute the op.
    let rows = [
        (
            "crypto sign",
            rr.get("crypto.sign_us") * (1.0 + 2.0 / batch),
        ),
        (
            "crypto verify",
            2.0 * rr.get("crypto.verify_batch_us_per_sig")
                + 2.0 / batch * rr.get("crypto.verify_us"),
        ),
        (
            "wire request+reply",
            rr.get("wire.encode_us.request")
                + rr.get("wire.decode_us.request")
                + rr.get("wire.encode_us.reply")
                + rr.get("wire.decode_us.reply"),
        ),
        (
            "wire prepare+commit",
            (rr.get("wire.encode_us.prepare")
                + rr.get("wire.decode_us.prepare")
                + rr.get("wire.encode_us.commit")
                + rr.get("wire.decode_us.commit"))
                / batch,
        ),
        (
            "kvstore apply",
            2.0 * (rr.get("kvstore.apply_us.put") * put_share
                + rr.get("kvstore.apply_us.getver") * (1.0 - put_share)),
        ),
        ("store append", appends_per_op * rr.get("store.append_us")),
        ("checkpoint", checkpoint_us_per_op),
    ];
    println!("  replay estimate, us per committed op:");
    let mut estimated = 0.0;
    for (name, us) in rows {
        estimated += us;
        println!("    {name:<25} {:>10.3}", us + 0.0);
    }
    println!(
        "    {:<25} {:>10.3}",
        "unattributed remainder",
        e.cpu_us_per_op - estimated
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xft-perfbench: {e}");
            eprintln!(
                "usage: xft-perfbench --workload <put-saturate|durable-mixed|lone-read|failover> \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xft-perfbench: {e}");
            println!("verdict: FAIL ({e})");
            ExitCode::from(1)
        }
    }
}
