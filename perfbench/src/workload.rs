//! The three workloads: their SQL, their seeded inputs and their knobs.
//!
//! Every knob comes from `perfbench/workloads.json` (passed in as
//! `--set key=value` by `run.py`); the inputs are a pure function of the
//! knobs, the seed and the run length, so the reference `Db`, the wire
//! run and the traced replay all see the same operation sequence.

use std::collections::BTreeMap;

use streamrel_types::{format_timestamp, Row, Timestamp};
use streamrel_workload::{ClickstreamGen, NetsecGen};

/// Capacity parts per run, alternating with as many latency parts
/// (capacity first), so both sample the whole run rather than one
/// stretch of a noisy host.
const SEGMENTS: usize = 5;
/// Extra set-ups timed after each part, on servers torn down at once;
/// `setup_s` is the median of these and the measured server's set-up,
/// spread over the run like the parts.
pub const SETUPS_AFTER_PART: usize = 2;
/// Spreads the per-part generator seeds apart.
const PART_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Jellybean,
    Fanout,
    DurableArchive,
}

impl Kind {
    pub fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "jellybean" => Ok(Kind::Jellybean),
            "fanout" => Ok(Kind::Fanout),
            "durable_archive" => Ok(Kind::DurableArchive),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    pub fn durable(self) -> bool {
        self == Kind::DurableArchive
    }
}

/// `--set key=value` knobs with typed, checked access.
pub struct Knobs(BTreeMap<String, String>);

impl Knobs {
    pub fn new(pairs: BTreeMap<String, String>) -> Knobs {
        Knobs(pairs)
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        let v = self
            .0
            .get(key)
            .ok_or_else(|| format!("missing knob `{key}`"))?;
        let x: f64 = v
            .parse()
            .map_err(|_| format!("knob `{key}`: `{v}` is not a number"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("knob `{key}` must be finite and non-negative"));
        }
        Ok(x)
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        let x = self.f64(key)?;
        if x.fract() != 0.0 {
            return Err(format!("knob `{key}` must be a whole number"));
        }
        Ok(x as usize)
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing knob `{key}`"))
    }

    pub fn pairs(&self) -> &BTreeMap<String, String> {
        &self.0
    }
}

/// One producer operation.
#[derive(Debug, Clone)]
pub enum Op {
    Ingest(Vec<Row>),
    Heartbeat(Timestamp),
}

/// The seeded row generator a workload draws from.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Click { urls: usize },
    Netsec { sources: usize },
}

/// Where a logical subscriber's windows come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A continuous SELECT registered by the subscriber connection.
    Cq(String),
    /// The pass-through feed of a derived stream.
    Derived(String),
}

/// Everything one run needs, derived from knobs, seed and run length.
pub struct Spec {
    pub kind: Kind,
    pub stream: &'static str,
    /// The stream's CQTIME column.
    pub cqtime: &'static str,
    /// The SELECT behind the derived stream, if the workload has one.
    pub derived_select: Option<String>,
    /// Statements run before any subscriber registers (DDL, preload).
    pub setup_sql: Vec<String>,
    /// The raw-archive channel (durable archive only). The oracle leaves
    /// it out: the raw archive's expected content is every ingested row,
    /// and holding a second copy in the oracle would double the run's
    /// memory.
    pub raw_archive_sql: Option<String>,
    /// One primary subscription per source.
    pub sources: Vec<Source>,
    /// Members attached to source 0 during set-up (fan-out), beyond the
    /// primary.
    pub pre_attach: usize,
    /// Members attached to source 0 while windows flow.
    pub live_attach: usize,
    /// Snapshot queries sent while windows flow (durable archive).
    pub queries: usize,
    gen: Gen,
    seed: u64,
    event_rate: u64,
    batch: usize,
    /// Batches per capacity part and per latency part; every part ends
    /// with a heartbeat.
    part_batches: [usize; 2],
    /// Each part's closing heartbeat; a part's rows start after the
    /// previous part's heartbeat.
    heartbeats: Vec<Timestamp>,
    /// First operation index of each part, then the total.
    bounds: Vec<usize>,
    /// Open-loop rate of the latency parts, operations per second.
    pub rate_ops: f64,
    /// Length of one latency part.
    pub part_secs: f64,
    /// Window advance, for heartbeat alignment and query ranges.
    pub advance: Timestamp,
}

impl Spec {
    pub fn build(kind: Kind, knobs: &Knobs, seed: u64, seconds: f64) -> Result<Spec, String> {
        let batch = knobs.usize("batch_rows")?.max(1);
        let cap_share = knobs.f64("capacity_share")?;
        if !(0.05..=0.95).contains(&cap_share) {
            return Err("knob `capacity_share` must lie in [0.05, 0.95]".into());
        }
        // Fixed work, not fixed time: the capacity parts send the rows a
        // host like the calibration host moves in their share of the run,
        // so the inputs (and the oracle) do not depend on this host's speed.
        let cap_rows = knobs.f64("capacity_rows_per_s")? * seconds * cap_share;
        let cap_part = (cap_rows / (batch * SEGMENTS) as f64) as usize;
        let latency_secs = seconds * (1.0 - cap_share);
        let lat_rows = knobs.f64("open_loop_rows_per_s")? * latency_secs;
        let lat_part = (lat_rows / (batch * SEGMENTS) as f64).round() as usize;
        if cap_part == 0 || lat_part == 0 {
            return Err("run too short for the configured rates and segments".into());
        }
        let part_secs = latency_secs / SEGMENTS as f64;
        let event_rate = knobs.usize("event_rows_per_s")? as u64;
        let window = knobs.str("window")?.to_string();
        let advance = streamrel_types::parse_interval(&window).map_err(|e| e.to_string())?;
        let mut spec = Spec {
            kind,
            stream: "",
            cqtime: "",
            derived_select: None,
            setup_sql: Vec::new(),
            raw_archive_sql: None,
            sources: Vec::new(),
            pre_attach: 0,
            live_attach: 0,
            queries: 0,
            gen: Gen::Click { urls: 0 },
            seed,
            event_rate,
            batch,
            part_batches: [cap_part, lat_part],
            heartbeats: Vec::new(),
            bounds: vec![0],
            // One extra scheduled op: the part's closing heartbeat.
            rate_ops: (lat_part + 1) as f64 / part_secs,
            part_secs,
            advance,
        };
        match kind {
            Kind::Jellybean | Kind::Fanout => {
                spec.stream = "clicks";
                spec.cqtime = "atime";
                spec.setup_sql
                    .push(ClickstreamGen::create_stream_sql("clicks"));
                let urls = knobs.usize("urls")?;
                if kind == Kind::Jellybean {
                    for i in 0..knobs.usize("cqs")? {
                        let visible = 1 + (i % 4);
                        spec.sources.push(Source::Cq(format!(
                            "SELECT url, count(*) c FROM clicks \
                             <VISIBLE '{visible} minutes' ADVANCE '{window}'> \
                             GROUP BY url ORDER BY c DESC LIMIT 10"
                        )));
                    }
                } else {
                    spec.sources.push(Source::Cq(format!(
                        "SELECT count(*) hits, cq_close(*) w FROM clicks <TUMBLING '{window}'>"
                    )));
                    let subs = knobs.usize("subscribers")?;
                    spec.live_attach = (subs as f64 * knobs.f64("live_share")?).round() as usize;
                    spec.pre_attach = subs.saturating_sub(spec.live_attach + 1);
                }
                spec.gen = Gen::Click { urls };
            }
            Kind::DurableArchive => {
                spec.stream = "events";
                spec.cqtime = "etime";
                let n_sources = knobs.usize("sources")?;
                spec.setup_sql.push(NetsecGen::create_stream_sql("events"));
                spec.setup_sql.push(
                    "CREATE TABLE sources (src_ip varchar(40), site varchar(16), tier integer)"
                        .into(),
                );
                spec.setup_sql.extend(source_inserts(n_sources));
                spec.setup_sql
                    .push(NetsecGen::create_table_sql("raw_events"));
                spec.setup_sql.push(
                    "CREATE TABLE deny_report (src_ip varchar(40), denies bigint, \
                     total_bytes bigint, w timestamp)"
                        .into(),
                );
                let select = format!(
                    "SELECT e.src_ip, count(*) denies, sum(e.bytes) total_bytes, cq_close(*) w \
                     FROM events <TUMBLING '{window}'> e \
                     JOIN sources s ON e.src_ip = s.src_ip \
                     WHERE e.action = 'deny' AND e.severity >= 3 \
                     GROUP BY e.src_ip"
                );
                spec.setup_sql
                    .push(format!("CREATE STREAM deny_now AS {select}"));
                spec.derived_select = Some(select);
                spec.setup_sql
                    .push("CREATE CHANNEL deny_ch FROM deny_now INTO deny_report APPEND".into());
                spec.raw_archive_sql =
                    Some("CREATE CHANNEL raw_ch FROM events INTO raw_events APPEND".into());
                spec.sources.push(Source::Derived("deny_now".into()));
                spec.queries = (knobs.f64("queries_per_s")? * latency_secs).round() as usize;
                spec.gen = Gen::Netsec { sources: n_sources };
            }
        }
        // Run each part's generator once to place its closing heartbeat.
        for part in 0..spec.parts() {
            let mut rows = spec.rows(part);
            let mut clock = spec.heartbeats.last().copied().unwrap_or(0);
            for _ in 0..spec.batches(part) {
                if let Some(r) = rows(spec.batch).last() {
                    clock = r
                        .iter()
                        .rev()
                        .find_map(|v| v.as_timestamp().ok())
                        .unwrap_or(clock);
                }
            }
            spec.heartbeats.push(align_up(clock, advance));
            let end = spec.bounds[part] + spec.batches(part) + 1;
            spec.bounds.push(end);
        }
        Ok(spec)
    }

    pub fn parts(&self) -> usize {
        2 * SEGMENTS
    }

    /// Even parts are closed-loop capacity parts, odd ones open-loop
    /// latency parts.
    pub fn is_latency(part: usize) -> bool {
        part % 2 == 1
    }

    fn batches(&self, part: usize) -> usize {
        self.part_batches[part % 2]
    }

    /// A fresh row source for `part`, positioned at its first row.
    fn rows(&self, part: usize) -> Box<dyn FnMut(usize) -> Vec<Row>> {
        let seed = self.seed.wrapping_add(part as u64 * PART_SEED);
        let start = match part {
            0 => 0,
            _ => self.heartbeats[part - 1],
        };
        match self.gen {
            Gen::Click { urls } => {
                let mut g = ClickstreamGen::new(seed, urls, start, self.event_rate);
                Box::new(move |n| g.take_rows(n))
            }
            Gen::Netsec { sources } => {
                let mut g = NetsecGen::new(seed, sources, start, self.event_rate);
                Box::new(move |n| g.take_rows(n))
            }
        }
    }

    /// One part's operations, generated on demand so a run never holds
    /// its whole input.
    pub fn part(&self, part: usize) -> impl Iterator<Item = Op> + '_ {
        let mut rows = self.rows(part);
        let batch = self.batch;
        (0..self.batches(part))
            .map(move |_| Op::Ingest(rows(batch)))
            .chain(std::iter::once(Op::Heartbeat(self.heartbeats[part])))
    }

    /// Every operation, in run order.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.parts()).flat_map(|p| self.part(p))
    }

    /// Operation indexes of `part`.
    pub fn part_range(&self, part: usize) -> std::ops::Range<usize> {
        self.bounds[part]..self.bounds[part + 1]
    }

    /// The part an operation belongs to, and its index within the part.
    pub fn part_of(&self, op: usize) -> (usize, usize) {
        let part = self.bounds.partition_point(|&b| b <= op) - 1;
        (part, op - self.bounds[part])
    }

    pub fn part_rows(&self, part: usize) -> usize {
        self.batches(part) * self.batch
    }

    pub fn total_rows(&self) -> usize {
        (0..self.parts()).map(|p| self.part_rows(p)).sum()
    }

    /// `n` events (live attaches, queries) spread evenly over the latency
    /// parts' combined time: each as (part, fraction of the part elapsed).
    pub fn spread_over_latency(&self, n: usize) -> Vec<(usize, f64)> {
        let total = SEGMENTS as f64;
        (0..n)
            .map(|k| {
                let at = (k as f64 + 0.5) / n as f64 * total;
                let j = (at.floor() as usize).min(SEGMENTS - 1);
                (2 * j + 1, at - j as f64)
            })
            .collect()
    }

    /// The snapshot query over the archive for the closes `(lo, hi]`: an
    /// Example 5 style look back over recent windows.
    pub fn archive_query(&self, hi: Timestamp) -> String {
        let lo = hi - 10 * self.advance;
        format!(
            "SELECT src_ip, sum(denies) denies, sum(total_bytes) total_bytes \
             FROM deny_report WHERE w > timestamp '{}' AND w <= timestamp '{}' \
             GROUP BY src_ip ORDER BY denies DESC, src_ip LIMIT 20",
            format_timestamp(lo),
            format_timestamp(hi)
        )
    }

    /// Every continuous SELECT the server runs, in registration order.
    pub fn cq_texts(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.derived_select.iter().map(String::as_str).collect();
        out.extend(self.sources.iter().filter_map(|s| match s {
            Source::Cq(sql) => Some(sql.as_str()),
            Source::Derived(_) => None,
        }));
        out
    }

    pub fn subscribers(&self) -> usize {
        self.sources.len() + self.pre_attach + self.live_attach
    }
}

/// The first multiple of `advance` at or after `ts` — a heartbeat there
/// closes every window the part's rows opened.
fn align_up(ts: Timestamp, advance: Timestamp) -> Timestamp {
    (ts / advance + 1) * advance
}

/// The `sources` dimension: every address `NetsecGen` can emit, with a
/// site and tier, loaded in multi-row INSERTs.
fn source_inserts(n: usize) -> Vec<String> {
    let ips: Vec<String> = (0..n)
        .map(|i| format!("10.{}.{}.{}", i / 65536 % 256, i / 256 % 256, i % 256))
        .collect();
    ips.chunks(500)
        .enumerate()
        .map(|(c, chunk)| {
            let values: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(j, ip)| {
                    let i = c * 500 + j;
                    format!("('{ip}', 'site{}', {})", i % 16, i % 3)
                })
                .collect();
            format!("INSERT INTO sources VALUES {}", values.join(", "))
        })
        .collect()
}
