//! Per-process and per-thread resource sampling from `/proc`, taken from
//! outside the measured programs.
//!
//! Process CPU comes from `/proc/<pid>/stat` (utime + stime, clock ticks; it
//! includes threads that already exited). Thread CPU comes from
//! `/proc/<pid>/task/<tid>/schedstat` (nanoseconds on CPU), context switches
//! from the task's `status`, syscall and disk counts from `/proc/<pid>/io`.
//! Threads are grouped by name into the program's layers.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;

/// Clock ticks per second of `utime`/`stime` (`sysconf(_SC_CLK_TCK)`, which
/// is 100 on every Linux target this runs on).
pub const CLK_TCK: u64 = 100;

/// `(comm, utime + stime in ticks)` from a `stat` line. The command name is
/// the text between the first `(` and the last `)`, which may itself hold
/// spaces or parentheses.
pub fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    // Fields after the comm start at field 3 (state); utime and stime are
    // fields 14 and 15.
    let rest: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Nanoseconds on CPU: the first field of `schedstat`.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `key: value` pairs of a `status` or `io` file, keeping the first number of
/// each value (`VmHWM:  1432 kB` gives 1432).
pub fn parse_fields(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(':')?;
            let number = value.split_whitespace().next()?.parse().ok()?;
            Some((key.trim().to_string(), number))
        })
        .collect()
}

/// `(steal, total)` clock ticks of the aggregate `cpu` line of `/proc/stat`:
/// the time other guests of the host took from this machine's processors,
/// and all time (user, nice, system, idle, iowait, irq, softirq, steal).
pub fn parse_host_cpu(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// The host's `(steal, total)` ticks now.
pub fn host_cpu() -> io::Result<(u64, u64)> {
    parse_host_cpu(&fs::read_to_string("/proc/stat")?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc/stat"))
}

/// The layer a thread belongs to, from its name. The process's main thread
/// is the protocol thread of a server or the generator's client loop.
pub fn thread_class(comm: &str, main_thread: bool, generator: bool) -> &'static str {
    if main_thread {
        return if generator { "client" } else { "order" };
    }
    match comm {
        c if c.starts_with("xft-read") => "net.read",
        c if c.starts_with("xft-write") || c.starts_with("xft-send") => "net.write",
        c if c.starts_with("xft-accept") => "net.accept",
        c if c.starts_with("xft-crypto") => "crypto.pool",
        "xft-fsync" => "store.fsync",
        "xft-evidence" => "evidence",
        c if c.starts_with("xft-metrics") => "telemetry.http",
        _ => "other",
    }
}

/// One thread at one instant.
#[derive(Debug, Clone, Default)]
pub struct ThreadSnap {
    class: &'static str,
    cpu_ns: u64,
    voluntary: u64,
    involuntary: u64,
    wchar: u64,
}

/// One process at one instant.
#[derive(Debug, Clone, Default)]
pub struct ProcSnap {
    cpu_ns: u64,
    threads: HashMap<u32, ThreadSnap>,
    io: HashMap<String, u64>,
    /// Peak resident set (`VmHWM`) in kB.
    pub hwm_kb: u64,
}

/// Reads a snapshot of process `pid` (`generator` marks the load generator).
pub fn snapshot(pid: u32, generator: bool) -> io::Result<ProcSnap> {
    let base = format!("/proc/{pid}");
    let (_, ticks) = parse_stat(&fs::read_to_string(format!("{base}/stat"))?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat"))?;
    let status = parse_fields(&fs::read_to_string(format!("{base}/status"))?);
    let io_fields = parse_fields(&fs::read_to_string(format!("{base}/io")).unwrap_or_default());
    let mut threads = HashMap::new();
    for entry in fs::read_dir(format!("{base}/task"))? {
        let Ok(tid) = entry?.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let task = format!("{base}/task/{tid}");
        // A thread may exit between listing and reading: skip it.
        let (Ok(stat), Ok(sched), Ok(status), Ok(task_io)) = (
            fs::read_to_string(format!("{task}/stat")),
            fs::read_to_string(format!("{task}/schedstat")),
            fs::read_to_string(format!("{task}/status")),
            fs::read_to_string(format!("{task}/io")),
        ) else {
            continue;
        };
        let (Some((comm, _)), Some(cpu_ns)) = (parse_stat(&stat), parse_schedstat(&sched)) else {
            continue;
        };
        let fields = parse_fields(&status);
        threads.insert(
            tid,
            ThreadSnap {
                class: thread_class(&comm, tid == pid, generator),
                cpu_ns,
                voluntary: fields.get("voluntary_ctxt_switches").copied().unwrap_or(0),
                involuntary: fields
                    .get("nonvoluntary_ctxt_switches")
                    .copied()
                    .unwrap_or(0),
                wchar: parse_fields(&task_io).get("wchar").copied().unwrap_or(0),
            },
        );
    }
    Ok(ProcSnap {
        cpu_ns: ticks * (1_000_000_000 / CLK_TCK),
        threads,
        io: io_fields,
        hwm_kb: status.get("VmHWM").copied().unwrap_or(0),
    })
}

/// CPU time and context switches of one thread class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassUsage {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: u64,
    /// Bytes passed to `write`-family syscalls.
    pub wchar: u64,
}

/// Resource use of a set of processes over an interval.
#[derive(Debug, Clone, Default)]
pub struct Usage {
    /// Process CPU (from `stat`, so including exited threads), in ns.
    pub cpu_ns: u64,
    /// Per `(role, class)` thread usage.
    pub classes: BTreeMap<(String, &'static str), ClassUsage>,
    /// `read`-family syscalls.
    pub syscr: u64,
    /// `write`-family syscalls.
    pub syscw: u64,
    /// Bytes sent to the block layer.
    pub write_bytes: u64,
}

impl Usage {
    /// Adds the interval `start → end` of one process playing `role`. A
    /// process started inside the interval passes `start = None`.
    pub fn add(&mut self, role: &str, start: Option<&ProcSnap>, end: &ProcSnap) {
        let empty = ProcSnap::default();
        let start = start.unwrap_or(&empty);
        self.cpu_ns += end.cpu_ns.saturating_sub(start.cpu_ns);
        let io = |key: &str| {
            let get = |s: &ProcSnap| s.io.get(key).copied().unwrap_or(0);
            get(end).saturating_sub(get(start))
        };
        self.syscr += io("syscr");
        self.syscw += io("syscw");
        self.write_bytes += io("write_bytes");
        for (tid, t) in &end.threads {
            let before = start.threads.get(tid);
            let usage = self.classes.entry((role.to_string(), t.class)).or_default();
            usage.cpu_ns += t.cpu_ns.saturating_sub(before.map_or(0, |b| b.cpu_ns));
            usage.ctxsw += (t.voluntary + t.involuntary)
                .saturating_sub(before.map_or(0, |b| b.voluntary + b.involuntary));
            usage.wchar += t.wchar.saturating_sub(before.map_or(0, |b| b.wchar));
        }
    }

    /// Total of the classes matching `pred`.
    pub fn sum(&self, pred: impl Fn(&str, &str) -> bool) -> ClassUsage {
        self.classes
            .iter()
            .filter(|((role, class), _)| pred(role, class))
            .fold(ClassUsage::default(), |acc, (_, u)| ClassUsage {
                cpu_ns: acc.cpu_ns + u.cpu_ns,
                ctxsw: acc.ctxsw + u.ctxsw,
                wchar: acc.wchar + u.wchar,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (xft-read-0) S 4240 4240 4240 0 -1 4194368 120 0 0 0 \
                        731 205 0 0 20 0 12 0 267743 2703360 327 18446744073709551615";

    #[test]
    fn parses_stat_fixture() {
        assert_eq!(parse_stat(STAT), Some(("xft-read-0".to_string(), 936)));
        // A command name with spaces and parentheses.
        let odd = "7 (a (b) c) R 1 1 1 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat(odd), Some(("a (b) c".to_string(), 11)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn parses_status_io_and_schedstat_fixtures() {
        let status = "Name:\txpaxos-server\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n\
                      voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t27\n";
        let f = parse_fields(status);
        assert_eq!(f["VmHWM"], 51234);
        assert_eq!(f["voluntary_ctxt_switches"], 1500);
        assert_eq!(f["nonvoluntary_ctxt_switches"], 27);
        assert!(!f.contains_key("Name"));
        let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n\
                  write_bytes: 8192\ncancelled_write_bytes: 0\n";
        let f = parse_fields(io);
        assert_eq!((f["syscr"], f["syscw"], f["write_bytes"]), (9, 4, 8192));
        assert_eq!(parse_schedstat("55328123 1200 17\n"), Some(55_328_123));
    }

    #[test]
    fn parses_host_cpu_fixture() {
        let stat = "cpu  100 5 50 800 10 0 5 30 0 0\ncpu0 50 2 25 400 5 0 2 15 0 0\n";
        assert_eq!(parse_host_cpu(stat), Some((30, 1000)));
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
    }

    #[test]
    fn classifies_threads_by_name() {
        assert_eq!(thread_class("xpaxos-server", true, false), "order");
        assert_eq!(thread_class("xft-perfbench", true, true), "client");
        assert_eq!(thread_class("xft-read-2", false, false), "net.read");
        assert_eq!(thread_class("xft-write-0-1", false, false), "net.write");
        assert_eq!(thread_class("xft-accept-1", false, false), "net.accept");
        assert_eq!(thread_class("xft-crypto-0", false, false), "crypto.pool");
        assert_eq!(thread_class("xft-fsync", false, false), "store.fsync");
        assert_eq!(thread_class("xft-evidence", false, false), "evidence");
        assert_eq!(
            thread_class("xft-metrics-htt", false, false),
            "telemetry.http"
        );
        assert_eq!(thread_class("worker", false, false), "other");
    }

    #[test]
    fn usage_takes_deltas_and_counts_new_threads_whole() {
        let thread = |class, cpu_ns, voluntary| ThreadSnap {
            class,
            cpu_ns,
            voluntary,
            involuntary: 1,
            wchar: cpu_ns / 100,
        };
        let start = ProcSnap {
            cpu_ns: 1_000,
            threads: HashMap::from([(1, thread("order", 400, 10))]),
            io: HashMap::from([("syscr".to_string(), 5)]),
            hwm_kb: 0,
        };
        let end = ProcSnap {
            cpu_ns: 3_000,
            threads: HashMap::from([
                (1, thread("order", 1_400, 30)),
                (2, thread("net.read", 500, 7)),
            ]),
            io: HashMap::from([("syscr".to_string(), 25)]),
            hwm_kb: 10,
        };
        let mut usage = Usage::default();
        usage.add("primary", Some(&start), &end);
        assert_eq!(usage.cpu_ns, 2_000);
        assert_eq!(usage.syscr, 20);
        let order = usage.classes[&("primary".to_string(), "order")];
        assert_eq!(
            order,
            ClassUsage {
                cpu_ns: 1_000,
                ctxsw: 20,
                wchar: 10
            }
        );
        let read = usage.classes[&("primary".to_string(), "net.read")];
        assert_eq!(
            read,
            ClassUsage {
                cpu_ns: 500,
                ctxsw: 8,
                wchar: 5
            }
        );
        assert_eq!(usage.sum(|_, _| true).cpu_ns, 1_500);
    }
}
