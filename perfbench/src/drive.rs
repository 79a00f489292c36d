//! The wire run against a `streamrel-serve` child: set-up, then
//! alternating closed-loop capacity parts and open-loop latency parts,
//! with every delivered window checked against the reference as it
//! arrives.
//!
//! Two load-generator threads over two connections: the producer (this
//! thread) sends batches and heartbeats; the collector owns the
//! subscriber connection, drains every logical subscription, and sends
//! the live attaches and snapshot queries.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use streamrel_cq::CqOutput;
use streamrel_net::{wire, Client, ClientOptions, SubscriptionStream};
use streamrel_types::{Relation, Timestamp, Value};

use crate::child::Child;
use crate::replay::{window_bytes, RefWindow};
use crate::stats::{micros, Schedule};
use crate::workload::{Kind, Op, Source, Spec, SETUPS_AFTER_PART};

/// How long a part may wait for its last windows before the missing
/// ones count as failures.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Spin (instead of sleeping) for the last stretch before a due time.
const SPIN: Duration = Duration::from_micros(150);

/// One instrument of the server's `streamrel_metrics` relation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inst {
    pub value: i64,
    pub sum: i64,
    pub p50: i64,
    pub p99: i64,
}

pub type Stats = HashMap<String, Inst>;

fn parse_stats(rel: &Relation) -> Stats {
    let int = |v: &Value| v.as_int().unwrap_or(0);
    rel.rows()
        .iter()
        .filter_map(|r| {
            let name = r.first()?.as_text().ok()?.to_string();
            Some((
                name,
                Inst {
                    value: int(&r[2]),
                    sum: int(&r[3]),
                    p50: int(&r[6]),
                    p99: int(&r[8]),
                },
            ))
        })
        .collect()
}

struct Sub {
    stream: SubscriptionStream,
    source: usize,
    /// Next expected reference index; `None` until a live-attached
    /// member's first window fixes where its suffix starts.
    next: Option<usize>,
    live: bool,
    got: usize,
    /// Reference index of the first window this member received.
    first: Option<usize>,
    /// Reference index of the first window this member must receive:
    /// 0 for members attached at set-up; for a live member, the first
    /// window closed by an operation sent after its attach was acked.
    owed_from: usize,
}

impl Sub {
    fn fixed(stream: SubscriptionStream, source: usize) -> Sub {
        Sub {
            stream,
            source,
            next: Some(0),
            live: false,
            got: 0,
            first: None,
            owed_from: 0,
        }
    }

    /// Windows this member is owed: every one from the earlier of its
    /// first delivery and the first window it must receive.
    fn owed(&self, total: usize) -> usize {
        total - self.first.unwrap_or(total).min(self.owed_from)
    }
}

/// A server with its schema, subscribers and both connections ready.
struct Ready {
    producer: Client,
    collector: Client,
    subs: Vec<Sub>,
    primary: u64,
    child: Child,
}

/// One closed-loop capacity part: rows sent, wall time until its last
/// window reached every subscriber, and server CPU time meanwhile.
pub struct Capacity {
    pub rows: usize,
    pub secs: f64,
    pub cpu_s: f64,
}

/// Everything the wire run measured.
#[derive(Default)]
pub struct Wire {
    pub setup_s: Vec<f64>,
    pub capacity: Vec<Capacity>,
    pub result_us: Vec<f64>,
    pub ack_us: Vec<f64>,
    pub subscribe_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub backlog_end: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub guard_errors: Vec<String>,
    pub s0: Stats,
    pub s1: Stats,
    pub gauges_max: HashMap<String, i64>,
    pub data_growth_bytes: Option<u64>,
    pub windows_closed: usize,
    pub routed: usize,
}

impl Wire {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn delta(&self, name: &str) -> i64 {
        let end = self.s1.get(name).map_or(0, |i| i.value);
        let start = self.s0.get(name).map_or(0, |i| i.value);
        end - start
    }

    pub fn end(&self, name: &str) -> Inst {
        self.s1.get(name).copied().unwrap_or_default()
    }
}

fn e(what: &str) -> impl Fn(streamrel_net::NetError) -> String + '_ {
    move |err| format!("{what}: {err}")
}

fn data_dir(work: &Path, rep: usize) -> PathBuf {
    work.join(format!("data-{rep}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|en| match en.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&en.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Spawn the server and bring it to the first timed batch: DDL, table
/// preload, CQ registration and initial subscribers.
fn setup(spec: &Spec, server: &Path, work: &Path, rep: usize) -> Result<Ready, String> {
    let data = spec.kind.durable().then(|| data_dir(work, rep));
    if let Some(dir) = &data {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|err| format!("create {}: {err}", dir.display()))?;
    }
    let child = Child::spawn(server, data.as_deref())?;
    let producer = Client::connect(child.addr).map_err(e("connect producer"))?;
    // Deep client queues: the collector drains every stream, and a
    // window shed client-side would read as a failed delivery.
    let collector = Client::connect_with(
        child.addr,
        ClientOptions {
            sub_queue_capacity: 1 << 16,
            ..ClientOptions::default()
        },
    )
    .map_err(e("connect collector"))?;
    for sql in spec.setup_sql.iter().chain(&spec.raw_archive_sql) {
        producer.execute(sql).map_err(e("setup statement"))?;
    }
    let mut subs = Vec::new();
    for (k, src) in spec.sources.iter().enumerate() {
        let stream = match src {
            Source::Cq(sql) => collector.subscribe(sql).map_err(e("subscribe"))?,
            Source::Derived(name) => collector
                .subscribe_from(name, i64::MIN)
                .map_err(e("subscribe to derived stream"))?,
        };
        subs.push(Sub::fixed(stream, k));
    }
    let primary = subs[0].stream.id();
    for _ in 0..spec.pre_attach {
        let stream = collector.subscribe_attach(primary).map_err(e("attach"))?;
        subs.push(Sub::fixed(stream, 0));
    }
    Ok(Ready {
        producer,
        collector,
        subs,
        primary,
        child,
    })
}

/// Mechanism guard: `EXPLAIN CHECK` must admit the CQ with no warning
/// that it would fall off the shared slice group.
fn check_shared(client: &Client, sql: &str) -> Result<(), String> {
    let rel = client
        .execute(&format!("EXPLAIN CHECK {sql}"))
        .map_err(e("explain check"))?;
    for row in rel.rows() {
        let kind = row[0].as_text().unwrap_or("");
        let rule = row[1].as_text().unwrap_or("");
        let detail = row[2].as_text().unwrap_or("");
        if kind == "verdict" && !detail.starts_with("admit") {
            return Err(format!("guard: EXPLAIN CHECK verdict `{detail}` for {sql}"));
        }
        if rule == "shared-grid-mismatch" || kind == "reject" {
            return Err(format!("guard: CQ would run unshared ({rule}): {sql}"));
        }
    }
    Ok(())
}

/// Progress the producer and the collector share, per part.
struct Shared {
    /// Operations the producer has had acked. It sends the next one only
    /// after storing this, so at most the operation at this index is in
    /// flight when another thread reads it.
    acked: AtomicUsize,
    /// When each latency part's schedule started.
    start: Vec<OnceLock<Instant>>,
    /// Deliveries to fixed members of windows each part closed...
    got: Vec<AtomicUsize>,
    /// ... how many the reference expects ...
    expected: Vec<usize>,
    /// ... and when the last of them arrived.
    done: Vec<OnceLock<Instant>>,
    /// Every part done and every live member caught up.
    all_done: OnceLock<Instant>,
    stop: AtomicBool,
}

/// What the collector measured and checked.
#[derive(Default)]
struct Collected {
    result_us: Vec<f64>,
    subscribe_us: Vec<f64>,
    query_us: Vec<f64>,
    late_us: Vec<f64>,
    queries: Vec<(Timestamp, Vec<u8>)>,
    attempted: u64,
    failures: Vec<String>,
    missing: usize,
}

struct Collector<'a> {
    spec: &'a Spec,
    refs: &'a [Vec<RefWindow>],
    shared: &'a Shared,
    out: Collected,
}

impl Collector<'_> {
    fn record(&mut self, sub: &mut Sub, out: &CqOutput, at: Instant) {
        let w = &self.refs[sub.source];
        let found = w.binary_search_by_key(&out.close, |r| r.close).ok();
        let idx = match (sub.next, found) {
            (_, None) => {
                self.out.failures.push(format!(
                    "window closing at {} not in the reference",
                    out.close
                ));
                return;
            }
            (None, Some(i)) => i,
            (Some(next), Some(i)) => {
                if i < next {
                    self.out
                        .failures
                        .push(format!("window {} delivered twice", out.close));
                    return;
                }
                // Windows skipped before this one were lost.
                self.out.missing += i - next;
                i
            }
        };
        let r = &w[idx];
        if r.bytes != window_bytes(out) {
            self.out
                .failures
                .push(format!("window {} differs from the reference", out.close));
        }
        sub.next = Some(idx + 1);
        sub.first.get_or_insert(idx);
        sub.got += 1;
        let (part, idx) = self.spec.part_of(r.op);
        if !sub.live
            && self.shared.got[part].fetch_add(1, Ordering::SeqCst) + 1
                == self.shared.expected[part]
        {
            let _ = self.shared.done[part].set(at);
        }
        if let Some(&start) = self.shared.start[part].get() {
            let sched = Schedule::new(start, self.spec.rate_ops);
            self.out.result_us.push(sched.since_due_us(idx, at));
        }
    }

    /// Drain every subscription without blocking; returns windows seen.
    fn drain(&mut self, subs: &mut [Sub]) -> usize {
        let mut n = 0;
        for sub in subs.iter_mut() {
            while let Some(out) = sub.stream.try_next() {
                let at = Instant::now();
                self.record(sub, &out, at);
                n += 1;
            }
        }
        n
    }

    /// When a planned event (part, fraction of the part) is due, once
    /// its part has started.
    fn due(&self, (part, frac): (usize, f64)) -> Option<Instant> {
        let start = *self.shared.start[part].get()?;
        Some(start + Duration::from_secs_f64(frac * self.spec.part_secs))
    }

    fn run(&mut self, client: &Client, primary: u64, mut subs: Vec<Sub>) -> Vec<Sub> {
        let spec = self.spec;
        let attach_plan = spec.spread_over_latency(spec.live_attach);
        let query_plan = spec.spread_over_latency(spec.queries);
        let (mut attaches, mut queries) = (0, 0);
        let last = spec.parts() - 1;
        loop {
            let seen = self.drain(&mut subs);
            while let Some(due) = attach_plan.get(attaches).and_then(|&e| self.due(e)) {
                if Instant::now() < due {
                    break;
                }
                self.out.late_us.push(micros(due.elapsed()));
                attaches += 1;
                self.out.attempted += 1;
                let t = Instant::now();
                match client.subscribe_attach(primary) {
                    Ok(stream) => {
                        self.out.subscribe_us.push(micros(t.elapsed()));
                        // The server offers a window to the members joined
                        // when its closing operation runs, before acking
                        // it. Every operation after the one possibly in
                        // flight was sent after this attach joined, so
                        // the windows they close are owed to the member.
                        let acked = self.shared.acked.load(Ordering::SeqCst);
                        subs.push(Sub {
                            stream,
                            source: 0,
                            next: None,
                            live: true,
                            got: 0,
                            first: None,
                            owed_from: self.refs[0].partition_point(|r| r.op <= acked),
                        });
                    }
                    Err(err) => self.out.failures.push(format!("live attach: {err}")),
                }
            }
            while let Some(due) = query_plan.get(queries).and_then(|&e| self.due(e)) {
                if Instant::now() < due {
                    break;
                }
                self.out.late_us.push(micros(due.elapsed()));
                queries += 1;
                self.out.attempted += 1;
                // Every window up to the last one delivered is already
                // archived, so this range's answer is fixed.
                let hi = subs[0]
                    .next
                    .and_then(|n| n.checked_sub(1))
                    .map(|i| self.refs[0][i].close);
                let Some(hi) = hi else { continue };
                match client.execute(&spec.archive_query(hi)) {
                    Ok(rel) => {
                        self.out.query_us.push(micros(due.elapsed()));
                        self.out.queries.push((hi, wire::encode_rows(&rel)));
                    }
                    Err(err) => self.out.failures.push(format!("snapshot query: {err}")),
                }
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                self.drain(&mut subs);
                break;
            }
            if let Some(&fixed_done) = self.shared.done[last].get() {
                if self.shared.all_done.get().is_none()
                    && live_complete(&subs, self.refs, fixed_done)
                {
                    let _ = self.shared.all_done.set(Instant::now());
                }
            }
            if seen == 0 {
                let first = &mut subs[0];
                if let Some(out) = first.stream.next_timeout(Duration::from_micros(500)) {
                    let at = Instant::now();
                    self.record(first, &out, at);
                }
            }
        }
        subs
    }
}

/// Live members share the fixed members' sweeps but their frames can
/// land a little later: each must reach the last window. One that owes
/// nothing and received nothing gets a grace period for a window whose
/// close raced its attach.
fn live_complete(subs: &[Sub], refs: &[Vec<RefWindow>], fixed_done: Instant) -> bool {
    let grace = fixed_done.elapsed() >= Duration::from_millis(200);
    subs.iter().filter(|s| s.live).all(|s| {
        let total = refs[s.source].len();
        match s.first {
            Some(_) => s.next == Some(total),
            None => s.owed_from == total && grace,
        }
    })
}

/// (window, member) deliveries the reference expects for the fixed
/// members, per part.
fn expected(spec: &Spec, refs: &[Vec<RefWindow>]) -> Vec<usize> {
    let mut per_part = vec![0; spec.parts()];
    for (k, w) in refs.iter().enumerate() {
        let members = if k == 0 { 1 + spec.pre_attach } else { 1 };
        for r in w {
            per_part[spec.part_of(r.op).0] += members;
        }
    }
    per_part
}

fn send(client: &Client, stream: &str, op: &Op) -> Result<(), String> {
    match op {
        Op::Ingest(rows) => client.ingest_batch(stream, rows).map(|_| ()),
        Op::Heartbeat(ts) => client.heartbeat(stream, *ts),
    }
    .map_err(|err| format!("{err}"))
}

fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn wait_for(cell: &OnceLock<Instant>, timeout: Duration) -> Option<Instant> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(&t) = cell.get() {
            return Some(t);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The server's metrics, folding its queue gauges into the sampled
/// maxima.
fn snapshot(producer: &Client, w: &mut Wire) -> Result<Stats, String> {
    let s = parse_stats(&producer.stats().map_err(e("stats"))?);
    for name in [
        "db.sub_queue_depth",
        "pool.queue_depth",
        "pool.busy_workers",
    ] {
        let v = s.get(name).map_or(0, |i| i.value);
        let m = w.gauges_max.entry(name.to_string()).or_insert(0);
        *m = (*m).max(v);
    }
    Ok(s)
}

/// Closed loop: each batch after the previous ack, inputs generated
/// before the clock starts; timed until every window the part closed has
/// reached every subscriber.
fn capacity_part(
    spec: &Spec,
    producer: &Client,
    child: &Child,
    shared: &Shared,
    part: usize,
    w: &mut Wire,
) -> Result<(), String> {
    let ops: Vec<Op> = spec.part(part).collect();
    let cpu0 = child.cpu_secs()?;
    let t0 = Instant::now();
    let first = spec.part_range(part).start;
    for (i, op) in ops.iter().enumerate() {
        w.attempted += 1;
        if let Err(err) = send(producer, spec.stream, op) {
            w.fail(format!("capacity op: {err}"));
        }
        shared.acked.store(first + i + 1, Ordering::SeqCst);
    }
    let done = wait_for(&shared.done[part], DRAIN_TIMEOUT)
        .ok_or("capacity part windows never all arrived")?;
    w.capacity.push(Capacity {
        rows: spec.part_rows(part),
        // A part that closes no window is done as soon as it is sent.
        secs: if done > t0 { done - t0 } else { t0.elapsed() }.as_secs_f64(),
        cpu_s: child.cpu_secs()? - cpu0,
    });
    Ok(())
}

/// Open loop: every operation on a fixed schedule, timed from its due
/// time; then wait for the part's windows before the next part.
fn latency_part(spec: &Spec, producer: &Client, shared: &Shared, part: usize, w: &mut Wire) {
    let sched = Schedule::new(Instant::now() + Duration::from_millis(5), spec.rate_ops);
    let _ = shared.start[part].set(sched.start());
    let first = spec.part_range(part).start;
    for (i, op) in spec.part(part).enumerate() {
        wait_until(sched.due(i));
        w.late_us.push(sched.since_due_us(i, Instant::now()));
        w.attempted += 1;
        match send(producer, spec.stream, &op) {
            Ok(()) => {
                if let Op::Ingest(_) = op {
                    w.ack_us.push(sched.since_due_us(i, Instant::now()));
                }
            }
            Err(err) => w.fail(format!("latency op: {err}")),
        }
        shared.acked.store(first + i + 1, Ordering::SeqCst);
    }
    let fixed = spec.sources.len() + spec.pre_attach;
    let outstanding = shared.expected[part].saturating_sub(shared.got[part].load(Ordering::SeqCst));
    w.backlog_end = w.backlog_end.max(outstanding as f64 / fixed as f64);
    if wait_for(&shared.done[part], DRAIN_TIMEOUT).is_none() {
        w.guard_errors
            .push(format!("latency part {part}: windows never all arrived"));
    }
}

pub fn run(
    spec: &Spec,
    refs: &[Vec<RefWindow>],
    reference: &streamrel_core::Db,
    server: &Path,
    work: &Path,
) -> Result<Wire, String> {
    let mut w = Wire::default();
    let t = Instant::now();
    let Ready {
        producer,
        collector,
        subs,
        primary,
        child,
    } = setup(spec, server, work, 0)?;
    w.setup_s.push(t.elapsed().as_secs_f64());
    let data = spec.kind.durable().then(|| data_dir(work, 0));
    w.attempted += subs.len() as u64;
    if spec.kind == Kind::Jellybean {
        // Guards on the final set-up, outside the timed ones.
        for src in &spec.sources {
            if let Source::Cq(sql) = src {
                check_shared(&producer, sql)?;
            }
        }
        let shared = producer
            .execute("SELECT count(*) FROM streamrel_trace WHERE kind = 'cq.share'")
            .map_err(e("trace query"))?;
        let n = shared.rows()[0][0].as_int().unwrap_or(0);
        if n != spec.sources.len() as i64 {
            w.guard_errors.push(format!(
                "guard: {n} of {} CQs joined a shared slice group",
                spec.sources.len()
            ));
        }
    }

    let expected = expected(spec, refs);
    let shared = Shared {
        acked: AtomicUsize::new(0),
        start: (0..spec.parts()).map(|_| OnceLock::new()).collect(),
        got: (0..spec.parts()).map(|_| AtomicUsize::new(0)).collect(),
        done: expected
            .iter()
            .map(|&n| {
                let cell = OnceLock::new();
                if n == 0 {
                    let _ = cell.set(Instant::now());
                }
                cell
            })
            .collect(),
        expected,
        all_done: OnceLock::new(),
        stop: AtomicBool::new(false),
    };
    w.s0 = snapshot(&producer, &mut w)?;
    let dir0 = data.as_deref().map(dir_bytes);

    let (collected, subs) = std::thread::scope(|scope| -> Result<(Collected, Vec<Sub>), String> {
        let collector_thread = scope.spawn(|| {
            let mut c = Collector {
                spec,
                refs,
                shared: &shared,
                out: Collected::default(),
            };
            let subs = c.run(&collector, primary, subs);
            (c.out, subs)
        });
        let result = (|| -> Result<(), String> {
            for part in 0..spec.parts() {
                if Spec::is_latency(part) {
                    latency_part(spec, &producer, &shared, part, &mut w);
                } else {
                    capacity_part(spec, &producer, &child, &shared, part, &mut w)?;
                }
                for k in 0..SETUPS_AFTER_PART {
                    let rep = 1 + part * SETUPS_AFTER_PART + k;
                    let t = Instant::now();
                    let extra = setup(spec, server, work, rep)?;
                    w.setup_s.push(t.elapsed().as_secs_f64());
                    drop(extra);
                    if spec.kind.durable() {
                        let _ = std::fs::remove_dir_all(data_dir(work, rep));
                    }
                }
            }
            if wait_for(&shared.all_done, DRAIN_TIMEOUT).is_none() {
                w.guard_errors
                    .push("live members never received their last windows".into());
            }
            Ok(())
        })();
        shared.stop.store(true, Ordering::SeqCst);
        let collected = collector_thread
            .join()
            .map_err(|_| "collector panicked".to_string())?;
        result.map(|()| collected)
    })?;
    w.s1 = snapshot(&producer, &mut w)?;
    w.peak_rss_mib = child.peak_rss_mib()?;
    if let (Some(dir), Some(before)) = (data.as_deref(), dir0) {
        w.data_growth_bytes = Some(dir_bytes(dir).saturating_sub(before));
    }

    // Delivery accounting against the reference.
    w.result_us = collected.result_us;
    w.subscribe_us = collected.subscribe_us;
    w.query_us = collected.query_us;
    w.late_us.extend(collected.late_us);
    w.attempted += collected.attempted;
    w.windows_closed = refs.iter().map(Vec::len).sum();
    let mut routed = 0;
    let mut received = 0;
    for sub in &subs {
        let expect = sub.owed(refs[sub.source].len());
        routed += expect;
        received += sub.got;
        if sub.got < expect {
            w.fail(format!(
                "subscriber {} received {} of {expect} windows",
                sub.stream.id(),
                sub.got
            ));
        }
    }
    w.routed = routed;
    w.attempted += routed as u64;
    for f in collected.failures {
        w.fail(f);
    }
    if collected.missing > 0 {
        w.fail(format!(
            "{} windows skipped mid-sequence",
            collected.missing
        ));
    }
    let sent =
        w.delta("net.windows_sent") + w.delta("net.outbox_drops") + w.delta("net.delivery_lost");
    if sent != routed as i64 {
        w.guard_errors.push(format!(
            "guard: windows sent + outbox drops + delivery lost = {sent}, windows routed = {routed}"
        ));
    }
    if received != routed {
        w.guard_errors.push(format!(
            "guard: received {received} of {routed} routed windows"
        ));
    }
    if w.delta("db.late_drops") != 0 {
        w.guard_errors
            .push("guard: late tuples were dropped".into());
    }
    match spec.kind {
        Kind::Fanout => {
            let encodes = w.delta("net.fanout.encodes");
            if encodes != w.windows_closed as i64 {
                w.guard_errors.push(format!(
                    "guard: net.fanout.encodes = {encodes}, windows closed = {}",
                    w.windows_closed
                ));
            }
        }
        Kind::DurableArchive => {
            let (lowered, fallback) = (w.end("ivm.lowered").value, w.end("ivm.fallback").value);
            if lowered < 1 || fallback != 0 {
                w.guard_errors.push(format!(
                    "guard: ivm.lowered = {lowered}, ivm.fallback = {fallback}"
                ));
            }
            check_archive(&mut w, &producer, reference, &collected.queries, spec)?;
        }
        Kind::Jellybean => {}
    }
    drop(producer);
    drop(collector);
    drop(child);
    if let Some(dir) = data {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(w)
}

/// Snapshot answers and the Active Tables' final contents must match
/// the reference; the archived row count must match `db.rows_archived`.
fn check_archive(
    w: &mut Wire,
    producer: &Client,
    reference: &streamrel_core::Db,
    queries: &[(Timestamp, Vec<u8>)],
    spec: &Spec,
) -> Result<(), String> {
    for (hi, got) in queries {
        let want = reference
            .execute(&spec.archive_query(*hi))
            .map_err(|err| format!("reference query: {err}"))?
            .rows();
        if wire::encode_rows(&want) != *got {
            w.fail(format!(
                "snapshot query up to {hi} differs from the reference"
            ));
        }
    }
    let count = |db: &str, sql: &str| -> Result<i64, String> {
        let rel = match db {
            "server" => producer.execute(sql).map_err(e("count query"))?,
            _ => reference
                .execute(sql)
                .map_err(|err| format!("reference count: {err}"))?
                .rows(),
        };
        Ok(rel.rows()[0][0].as_int().unwrap_or(-1))
    };
    let sql = "SELECT count(*) FROM deny_report";
    let (report, want) = (count("server", sql)?, count("reference", sql)?);
    w.attempted += 1;
    if report != want {
        w.fail(format!(
            "deny_report holds {report} rows, the reference {want}"
        ));
    }
    // The raw archive holds every ingested row.
    let raw = count("server", "SELECT count(*) FROM raw_events")?;
    w.attempted += 1;
    if raw != spec.total_rows() as i64 {
        w.fail(format!(
            "raw_events holds {raw} rows, {} were ingested",
            spec.total_rows()
        ));
    }
    let archived = report + raw;
    let counter = w.end("db.rows_archived").value;
    if archived != counter {
        w.fail(format!(
            "Active Tables hold {archived} rows but db.rows_archived = {counter}"
        ));
    }
    Ok(())
}
