//! Replay spans: the benchmark times calls into the public functions of
//! `xft-crypto`, `xft-wire`/`xft_core::wire`, `xft-kvstore` and `xft-store`
//! on inputs shaped like the workload's own (its seed, payload size, the
//! traced mean batch size and WAL record size, its working set).
//!
//! Spans are kept in memory and written out once, at the end of the run.

use crate::gen::{encode, workload_op, Mix, OpKind};
use bytes::Bytes;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use xft_core::messages::{client_request_digest, CommitMsg, PrepareMsg, ReplyMsg, SignedRequest};
use xft_core::state_machine::StateMachine;
use xft_core::types::{client_key, replica_key, Batch, ClientId, Request, SeqNum, ViewNumber};
use xft_core::XPaxosMsg;
use xft_crypto::{merkle_root, sha256, Digest, KeyRegistry, Signer, Verifier};
use xft_kvstore::CoordinationService;
use xft_store::disk::DiskStorage;
use xft_store::{Storage, SyncPolicy};
use xft_wire::{decode_msg, encode_msg_vec};

/// Minimum wall time each timed span covers; short calls repeat until then.
const SPAN_TIME: Duration = Duration::from_millis(15);

/// One timed span: `calls` calls of one public function.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (the per-layer metric it feeds).
    pub name: String,
    /// Parent span (the layer).
    pub parent: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Calls made inside the span.
    pub calls: u64,
}

impl Span {
    /// Mean µs per call.
    pub fn us_per_call(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3 / self.calls as f64
    }
}

/// The recorder: spans in memory, in the order they ran.
pub struct Replay {
    origin: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Replay {
    fn new() -> Self {
        Replay {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` repeatedly for at least [`SPAN_TIME`] and records the span.
    fn time<R>(&mut self, parent: &'static str, name: &str, mut f: impl FnMut() -> R) -> f64 {
        black_box(f()); // warm caches and lazy set-up
        let start = Instant::now();
        let mut calls = 0;
        while calls == 0 || start.elapsed() < SPAN_TIME {
            black_box(f());
            calls += 1;
        }
        let end = Instant::now();
        let span = Span {
            name: name.to_string(),
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            calls,
        };
        let us = span.us_per_call();
        self.spans.push(span);
        us
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.name, s.parent, s.start_ns, s.end_ns, s.calls
            );
        }
        std::fs::write(path, out)
    }
}

/// Inputs of a replay, taken from the workload and its traced run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayInput {
    /// Workload seed.
    pub seed: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Traced mean requests per batch (at least 1).
    pub batch: usize,
    /// Traced mean WAL record size in bytes (0 = no WAL in this workload).
    pub wal_record: usize,
}

/// Results of a replay, µs per call unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct ReplayResult {
    /// Named per-layer values.
    pub metrics: Vec<(String, f64)>,
    /// Snapshot blob size of the working set.
    pub snapshot_bytes: usize,
}

impl ReplayResult {
    /// The value named `name` (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs every replay span. `work_dir` is an empty directory for store spans.
pub fn run(input: &ReplayInput, work_dir: &Path) -> std::io::Result<(Replay, ReplayResult)> {
    let mut r = Replay::new();
    let mut out = ReplayResult::default();
    let mix = input.mix;
    let batch = input.batch.max(1);

    // The workload's own first operation (sub-client 0's first seeded draw).
    let (kind, key, fill) = workload_op(input.seed, 0, 0, &mix);
    let request_op = encode(kind, key, fill, mix.value_len);

    // The working set: every key written once, as after populating.
    let mut service = CoordinationService::new();
    for key in 0..mix.keys {
        service.apply(&encode(OpKind::Put, key, 0, mix.value_len));
    }

    // crypto
    let registry = KeyRegistry::new(1 ^ 0x5eed);
    registry.register(replica_key(0));
    registry.register(client_key(ClientId(0)));
    let signer = Signer::new(&registry, client_key(ClientId(0)));
    let verifier = Verifier::new(registry.clone());
    let requests: Vec<Request> = (0..batch as u64)
        .map(|ts| Request::new(ClientId(0), ts + 1, request_op.clone()))
        .collect();
    let digests: Vec<Digest> = requests.iter().map(client_request_digest).collect();
    let sigs: Vec<_> = digests.iter().map(|d| signer.sign_digest(d)).collect();
    let items: Vec<(Digest, _)> = digests.iter().copied().zip(sigs.iter().copied()).collect();
    let sign_us = r.time("crypto", "crypto.sign_us", || {
        signer.sign_digest(&digests[0])
    });
    let verify_us = r.time("crypto", "crypto.verify_us", || {
        verifier.verify_digest(&digests[0], &sigs[0])
    });
    let batch_us = r.time("crypto", "crypto.verify_batch", || {
        verifier.verify_batch(&items)
    });
    let buf = vec![0x5a_u8; 64 * 1024];
    let sha_us = r.time("crypto", "crypto.sha256_64k", || sha256(&buf));
    let leaves = service.tree().merkle_leaves();
    let merkle_us = r.time("crypto", "crypto.merkle_root", || merkle_root(&leaves));
    out.metrics.extend([
        ("crypto.sign_us".into(), sign_us),
        ("crypto.verify_us".into(), verify_us),
        (
            "crypto.verify_batch_us_per_sig".into(),
            batch_us / batch as f64,
        ),
        ("crypto.sha256_mb_s".into(), buf.len() as f64 / sha_us),
        ("crypto.merkle_root_ms".into(), merkle_us / 1e3),
    ]);

    // wire: the four common-case messages at the workload's payload and the
    // traced batch size.
    let signed = SignedRequest {
        request: requests[0].clone(),
        signature: sigs[0],
    };
    let commit = CommitMsg {
        view: ViewNumber(0),
        sn: SeqNum(1),
        batch_digest: Batch::new(requests.clone()).digest(),
        replica: 1,
        reply_digest: Some(Digest::of(b"reply")),
        signature: sigs[0],
    };
    // A read returns its value; a write-only mix returns the 8-byte version.
    let reply_len = if mix.put_permille < 1000 {
        9 + mix.value_len
    } else {
        9
    };
    let messages = [
        ("request", XPaxosMsg::Replicate(signed)),
        (
            "prepare",
            XPaxosMsg::Prepare(PrepareMsg {
                view: ViewNumber(0),
                sn: SeqNum(1),
                batch: Batch::new(requests.clone()),
                client_sigs: sigs.clone(),
                signature: sigs[0],
            }),
        ),
        ("commit", XPaxosMsg::Commit(commit.clone())),
        (
            "reply",
            XPaxosMsg::Reply(ReplyMsg {
                view: ViewNumber(0),
                sn: SeqNum(1),
                client: ClientId(0),
                timestamp: 1,
                reply_digest: Digest::of(b"reply"),
                payload: Some(Bytes::from(vec![1u8; reply_len])),
                replica: 0,
                follower_commit: Some(commit),
            }),
        ),
    ];
    for (name, msg) in &messages {
        let encoded = encode_msg_vec(msg);
        let enc = r.time("wire", &format!("wire.encode_us.{name}"), || {
            encode_msg_vec(msg)
        });
        let dec = r.time("wire", &format!("wire.decode_us.{name}"), || {
            decode_msg::<XPaxosMsg>(&encoded).expect("own encoding decodes")
        });
        out.metrics.push((format!("wire.encode_us.{name}"), enc));
        out.metrics.push((format!("wire.decode_us.{name}"), dec));
    }

    // kvstore: apply on the working set (a Put overwrites an existing key).
    for (name, kind) in [("put", OpKind::Put), ("getver", OpKind::GetVer)] {
        let encoded = encode(kind, key, fill, mix.value_len);
        let us = r.time("kvstore", &format!("kvstore.apply_us.{name}"), || {
            service.apply(&encoded)
        });
        out.metrics.push((format!("kvstore.apply_us.{name}"), us));
    }

    // store: WAL append (page cache only; fsync time is traced) at the
    // traced record size, or one request's size when the workload has no WAL.
    let record = vec![
        0xA5_u8;
        if input.wal_record > 0 {
            input.wal_record
        } else {
            request_op.len() + 64
        }
    ];
    let wal_dir = work_dir.join("replay-wal");
    let mut wal = DiskStorage::open(&wal_dir, SyncPolicy::every(0))?;
    let mut appended = 0u64;
    let append_us = r.time("store", "store.append_us", || {
        wal.append(&record);
        appended += 1;
        // Keep the replay's file small: restart the log now and then.
        if appended.is_multiple_of(4096) {
            wal.install_snapshot(b"", &[]);
        }
    });
    out.metrics.push(("store.append_us".into(), append_us));
    drop(wal);

    // checkpoint: capture = snapshot + SHA-256 + Merkle root over the working
    // set; install = the durable snapshot install a checkpoint performs.
    let blob = service.snapshot();
    out.snapshot_bytes = blob.len();
    let capture_us = r.time("checkpoint", "checkpoint.capture_ms", || {
        let blob = service.snapshot();
        let digest = sha256(&blob);
        let root = merkle_root(&service.tree().merkle_leaves());
        (blob.len(), digest, root)
    });
    let snap_dir = work_dir.join("replay-snapshot");
    let mut snap = DiskStorage::open(&snap_dir, SyncPolicy::every(1))?;
    let install_us = r.time("checkpoint", "checkpoint.install_ms", || {
        snap.install_snapshot(&blob, &[])
    });
    out.metrics
        .push(("checkpoint.capture_ms".into(), capture_us / 1e3));
    out.metrics
        .push(("checkpoint.install_ms".into(), install_us / 1e3));
    drop(snap);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
    Ok((r, out))
}
