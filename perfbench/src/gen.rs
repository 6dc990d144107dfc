//! The seeded load generator: one [`MuxClient`] whose sub-clients draw
//! `Put`/`GetVer` operations from a per-(seed, sub-client) sequence, wrapped
//! in an actor that observes every commit.
//!
//! The servers only ever see the encoded operations. The workload seed
//! decides the sequence of operations each sub-client issues; how far into
//! its sequence a sub-client gets depends on timing. A run moves through four
//! phases: `Populate` (one Put per key, so every key exists), `Run` (the
//! seeded mix; warm-up and the measured window), `Drain` (no new workload
//! operations; sub-clients issue a fixed filler read while the open ones
//! commit) and `Verify` (one `GetVer` per key, checked against the Puts
//! issued to it).

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use xft_core::client::{Client, ClientWorkload, MuxClient};
use xft_core::messages::XPaxosMsg;
use xft_core::types::ClientId;
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_kvstore::KvOp;
use xft_simnet::{Actor, Context, ControlCode, NodeId};

/// The operation mix of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of Puts, in permille; the rest are GetVer reads.
    pub put_permille: u32,
    /// Size of the key space.
    pub keys: usize,
    /// Bytes per Put value.
    pub value_len: usize,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Create-or-overwrite `key`.
    Put,
    /// Versioned read of `key`.
    GetVer,
}

/// SplitMix64 finaliser: a fixed bijective mixer for seeding.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th workload operation of sub-client `sub` under `seed`:
/// `(kind, key, value fill byte)`.
pub fn workload_op(seed: u64, sub: usize, index: u64, mix: &Mix) -> (OpKind, usize, u8) {
    let h = mix64(mix64(seed ^ mix64(sub as u64)) ^ index);
    let kind = if (h % 1000) < u64::from(mix.put_permille) {
        OpKind::Put
    } else {
        OpKind::GetVer
    };
    let key = ((h >> 16) % mix.keys as u64) as usize;
    (kind, key, (h >> 56) as u8)
}

fn key_path(key: usize) -> String {
    format!("/k{key}")
}

/// Encodes an operation for the coordination service.
pub fn encode(kind: OpKind, key: usize, fill: u8, value_len: usize) -> Bytes {
    let path = key_path(key);
    match kind {
        OpKind::Put => KvOp::Put {
            path,
            data: Bytes::from(vec![fill; value_len]),
        },
        OpKind::GetVer => KvOp::GetVer { path },
    }
    .encode()
}

/// The run phase the generator is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One Put per key.
    Populate,
    /// The seeded mix.
    Run,
    /// Only filler reads are issued while open operations commit.
    Drain,
    /// One GetVer per key.
    Verify,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Populate,
    Work,
    Filler,
    Verify,
}

struct Open {
    class: Class,
    kind: OpKind,
    key: usize,
    issued: Instant,
    in_window: bool,
    payload: Option<Bytes>,
}

/// Everything the generator knows about issued and committed operations.
pub struct Book {
    seed: u64,
    mix: Mix,
    phase: Phase,
    next_index: Vec<u64>,
    next_populate: usize,
    populate_committed: usize,
    next_verify: usize,
    open: HashMap<(usize, u64), Open>,
    /// Populate and workload operations issued but not committed.
    open_work: u64,
    puts_issued: Vec<u32>,
    puts_committed: Vec<u32>,
    window_start: Option<Instant>,
    window_open: bool,
    /// Operations issued inside the measured window.
    pub issued_in_window: u64,
    /// Of those, the ones still open (updated as they commit).
    pub open_from_window: u64,
    /// Commit instants (ns since the window start) inside the window.
    pub commit_ns: Vec<u64>,
    /// Issue→commit latencies (ns) of the operations committed in the window.
    pub latency_ns: Vec<u64>,
    /// Verified reads: `(key, version)`; `None` marks a read that failed.
    verified: Vec<(usize, Option<u64>)>,
    /// `(puts committed, puts issued)` per key when verification began.
    verify_bounds: Vec<(u32, u32)>,
    /// SUSPECT notices the generator received (any means a view change ran).
    pub suspects: u64,
    filler: Bytes,
}

impl Book {
    /// A fresh book for `subs` sub-clients.
    pub fn new(seed: u64, mix: Mix, subs: usize) -> Self {
        Book {
            seed,
            mix,
            phase: Phase::Populate,
            next_index: vec![0; subs],
            next_populate: 0,
            populate_committed: 0,
            next_verify: 0,
            open: HashMap::new(),
            open_work: 0,
            puts_issued: vec![0; mix.keys],
            puts_committed: vec![0; mix.keys],
            window_start: None,
            window_open: false,
            issued_in_window: 0,
            open_from_window: 0,
            commit_ns: Vec::new(),
            latency_ns: Vec::new(),
            verified: Vec::new(),
            verify_bounds: Vec::new(),
            suspects: 0,
            filler: KvOp::GetVer {
                path: "/filler".into(),
            }
            .encode(),
        }
    }

    /// Whether every key has been written once.
    pub fn populated(&self) -> bool {
        self.populate_committed == self.mix.keys
    }

    /// Populate and workload operations still open.
    pub fn open_work(&self) -> u64 {
        self.open_work
    }

    /// Verification reads committed so far.
    pub fn verified_count(&self) -> usize {
        self.verified.len()
    }

    /// Starts the measured window at `now`.
    pub fn open_window(&mut self, now: Instant) {
        self.phase = Phase::Run;
        self.window_start = Some(now);
        self.window_open = true;
    }

    /// Ends the measured window; sub-clients switch to filler reads.
    pub fn close_window(&mut self) {
        self.window_open = false;
        self.phase = Phase::Drain;
    }

    /// Starts verification: records each key's committed/issued Put counts.
    pub fn start_verify(&mut self) {
        self.verify_bounds = (0..self.mix.keys)
            .map(|k| (self.puts_committed[k], self.puts_issued[k]))
            .collect();
        self.phase = Phase::Verify;
    }

    /// Moves from populating to the workload mix once every key exists.
    pub fn start_run(&mut self) {
        if self.phase == Phase::Populate {
            self.phase = Phase::Run;
        }
    }

    /// Produces the next operation for sub-client `sub`'s request `ts`.
    fn next_op(&mut self, sub: usize, ts: u64) -> Bytes {
        let (class, kind, key, fill) = match self.phase {
            Phase::Populate if self.next_populate < self.mix.keys => {
                self.next_populate += 1;
                (Class::Populate, OpKind::Put, self.next_populate - 1, 0)
            }
            Phase::Populate | Phase::Drain => return self.filler_op(sub, ts),
            Phase::Run => {
                let index = self.next_index[sub];
                self.next_index[sub] += 1;
                let (kind, key, fill) = workload_op(self.seed, sub, index, &self.mix);
                (Class::Work, kind, key, fill)
            }
            Phase::Verify if self.next_verify < self.mix.keys => {
                self.next_verify += 1;
                (Class::Verify, OpKind::GetVer, self.next_verify - 1, 0)
            }
            Phase::Verify => return self.filler_op(sub, ts),
        };
        if kind == OpKind::Put {
            self.puts_issued[key] += 1;
        }
        if matches!(class, Class::Populate | Class::Work) {
            self.open_work += 1;
        }
        if self.window_open {
            self.issued_in_window += 1;
            self.open_from_window += 1;
        }
        self.open.insert(
            (sub, ts),
            Open {
                class,
                kind,
                key,
                issued: Instant::now(),
                in_window: self.window_open,
                payload: None,
            },
        );
        encode(kind, key, fill, self.mix.value_len)
    }

    fn filler_op(&mut self, sub: usize, ts: u64) -> Bytes {
        self.open.insert(
            (sub, ts),
            Open {
                class: Class::Filler,
                kind: OpKind::GetVer,
                key: 0,
                issued: Instant::now(),
                in_window: false,
                payload: None,
            },
        );
        self.filler.clone()
    }

    fn note_payload(&mut self, sub: usize, ts: u64, payload: &Bytes) {
        if let Some(op) = self.open.get_mut(&(sub, ts)) {
            if op.class == Class::Verify && op.payload.is_none() {
                op.payload = Some(payload.clone());
            }
        }
    }

    fn on_commit(&mut self, sub: usize, ts: u64, now: Instant) {
        let Some(op) = self.open.remove(&(sub, ts)) else {
            return;
        };
        if op.kind == OpKind::Put {
            self.puts_committed[op.key] += 1;
        }
        match op.class {
            Class::Populate => {
                self.populate_committed += 1;
                self.open_work -= 1;
            }
            Class::Work => self.open_work -= 1,
            Class::Verify => {
                let version = op.payload.as_deref().and_then(decode_version);
                self.verified.push((op.key, version));
            }
            Class::Filler => {}
        }
        if op.in_window {
            self.open_from_window -= 1;
        }
        if self.window_open {
            if let Some(start) = self.window_start {
                self.commit_ns
                    .push(now.saturating_duration_since(start).as_nanos() as u64);
                self.latency_ns
                    .push(now.saturating_duration_since(op.issued).as_nanos() as u64);
            }
        }
    }

    /// Checks every verification read against the Puts issued to its key:
    /// a key written `p` times has version `p - 1`. Where Puts were still
    /// open when verification began (allowed only with `allow_open`), the
    /// version must lie between what had committed and what was issued.
    /// Returns the first mismatches found (empty = correct).
    pub fn check(&self, allow_open: bool) -> Vec<String> {
        let mut errors = Vec::new();
        if self.verified.len() != self.mix.keys {
            errors.push(format!(
                "{} of {} verification reads committed",
                self.verified.len(),
                self.mix.keys
            ));
        }
        for &(key, version) in &self.verified {
            let (committed, issued) = self.verify_bounds[key];
            if !allow_open && committed != issued {
                errors.push(format!(
                    "key {key}: {} Puts still open at verification",
                    issued - committed
                ));
            }
            let ok = match version {
                Some(v) => v + 1 >= u64::from(committed) && v < u64::from(issued),
                None => false,
            };
            if !ok {
                errors.push(format!(
                    "key {key}: read version {version:?}, expected {}..={} (Puts committed {committed}, issued {issued})",
                    i64::from(committed) - 1,
                    i64::from(issued) - 1
                ));
            }
            if errors.len() >= 5 {
                break;
            }
        }
        errors
    }
}

/// Decodes a committed `GetVer` reply (`KvResult::Ok(version ‖ data)`).
pub fn decode_version(payload: &[u8]) -> Option<u64> {
    match payload {
        [1, rest @ ..] if rest.len() >= 8 => Some(u64::from_le_bytes(
            rest[..8].try_into().expect("eight bytes"),
        )),
        _ => None,
    }
}

/// Locks the book; the generator's actor and its op factories all run on
/// the generator's protocol thread, so the lock is never contended.
pub fn lock(book: &Mutex<Book>) -> MutexGuard<'_, Book> {
    book.lock().expect("generator book poisoned")
}

/// The generator actor: a [`MuxClient`] plus commit observation.
pub struct Generator {
    mux: MuxClient,
    book: Arc<Mutex<Book>>,
}

impl Generator {
    /// Builds `subs` sub-clients that draw their operations from `book`.
    pub fn new(
        config: &XPaxosConfig,
        registry: &Arc<KeyRegistry>,
        book: Arc<Mutex<Book>>,
        subs: usize,
    ) -> Self {
        let clients = (0..subs)
            .map(|sub| {
                let factory_book = Arc::clone(&book);
                let workload = ClientWorkload {
                    op_factory: Some(Arc::new(move |ts| lock(&factory_book).next_op(sub, ts))),
                    ..ClientWorkload::default()
                };
                Client::new(ClientId(sub as u64), config.clone(), registry, workload)
            })
            .collect();
        Generator {
            mux: MuxClient::new(clients),
            book,
        }
    }

    /// The wrapped sub-clients.
    pub fn clients(&self) -> &[Client] {
        self.mux.clients()
    }
}

impl Actor for Generator {
    type Msg = XPaxosMsg;

    fn on_start(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.mux.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        let XPaxosMsg::Reply(reply) = &msg else {
            if matches!(msg, XPaxosMsg::Suspect(_) | XPaxosMsg::SuspectToClient(_)) {
                lock(&self.book).suspects += 1;
            }
            self.mux.on_message(from, msg, ctx);
            return;
        };
        let sub = reply.client.0 as usize;
        let ts = reply.timestamp;
        if let Some(payload) = &reply.payload {
            lock(&self.book).note_payload(sub, ts, payload);
        }
        let before = self.mux.clients().get(sub).map(Client::committed);
        self.mux.on_message(from, msg, ctx);
        let after = self.mux.clients().get(sub).map(Client::committed);
        // One reply can complete at most its own request.
        if after > before {
            lock(&self.book).on_commit(sub, ts, Instant::now());
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        self.mux.on_timer(token, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.mux.on_recover(ctx);
    }

    fn on_control(&mut self, code: ControlCode, ctx: &mut Context<XPaxosMsg>) {
        self.mux.on_control(code, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        put_permille: 500,
        keys: 1024,
        value_len: 16,
    };

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<_> = (0..500).map(|i| workload_op(7, 3, i, &MIX)).collect();
        let b: Vec<_> = (0..500).map(|i| workload_op(7, 3, i, &MIX)).collect();
        assert_eq!(a, b);
        let c: Vec<_> = (0..500).map(|i| workload_op(8, 3, i, &MIX)).collect();
        assert_ne!(a, c, "another seed gives another sequence");
        let d: Vec<_> = (0..500).map(|i| workload_op(7, 4, i, &MIX)).collect();
        assert_ne!(a, d, "sub-clients draw distinct sequences");
    }

    #[test]
    fn mix_and_key_space_are_respected() {
        let ops: Vec<_> = (0..10_000).map(|i| workload_op(1, 0, i, &MIX)).collect();
        let puts = ops.iter().filter(|o| o.0 == OpKind::Put).count();
        assert!((4_500..5_500).contains(&puts), "{puts} puts of 10000");
        assert!(ops.iter().all(|o| o.1 < MIX.keys));
        let all_puts = Mix {
            put_permille: 1000,
            ..MIX
        };
        assert!((0..1000).all(|i| workload_op(1, 0, i, &all_puts).0 == OpKind::Put));
    }

    #[test]
    fn book_issues_populate_then_workload_in_seed_order() {
        let mix = Mix {
            put_permille: 1000,
            keys: 4,
            value_len: 8,
        };
        let mut book = Book::new(9, mix, 2);
        let encoded: Vec<Bytes> = (1..=4)
            .map(|ts| book.next_op(ts as usize % 2, ts))
            .collect();
        for (key, op) in encoded.iter().enumerate() {
            assert_eq!(op, &encode(OpKind::Put, key, 0, 8));
        }
        // Key space populated but not committed: still in Populate, so filler.
        assert_eq!(book.next_op(0, 5), book.filler);
        for ts in 1..=4 {
            book.on_commit(ts as usize % 2, ts, Instant::now());
        }
        assert!(book.populated());
        book.start_run();
        let (kind, key, fill) = workload_op(9, 1, 0, &mix);
        assert_eq!(book.next_op(1, 6), encode(kind, key, fill, 8));
        book.on_commit(1, 6, Instant::now());
        book.close_window();
        book.start_verify();
        for (ts, key) in (7..11).zip(0..4) {
            assert_eq!(book.next_op(0, ts), encode(OpKind::GetVer, key, 0, 8));
            let puts = u64::from(book.puts_issued[key]);
            let mut payload = vec![1];
            payload.extend_from_slice(&(puts - 1).to_le_bytes());
            book.note_payload(0, ts, &Bytes::from(payload));
            book.on_commit(0, ts, Instant::now());
        }
        assert!(book.check(false).is_empty(), "{:?}", book.check(false));
    }

    #[test]
    fn check_flags_a_wrong_version() {
        let mix = Mix {
            put_permille: 1000,
            keys: 1,
            value_len: 8,
        };
        let mut book = Book::new(1, mix, 1);
        book.next_op(0, 1);
        book.on_commit(0, 1, Instant::now());
        book.start_verify();
        book.next_op(0, 2);
        let mut payload = vec![1];
        payload.extend_from_slice(&5u64.to_le_bytes());
        book.note_payload(0, 2, &Bytes::from(payload));
        book.on_commit(0, 2, Instant::now());
        assert_eq!(book.check(false).len(), 1);
    }

    #[test]
    fn decodes_getver_replies() {
        let mut ok = vec![1];
        ok.extend_from_slice(&42u64.to_le_bytes());
        ok.extend_from_slice(b"data");
        assert_eq!(decode_version(&ok), Some(42));
        assert_eq!(decode_version(b"\0NoNode"), None);
        assert_eq!(decode_version(&[1, 2, 3]), None);
    }
}
