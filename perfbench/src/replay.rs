//! In-process replays of a workload's operation sequence.
//!
//! [`run`] feeds an embedded `Db` exactly what the wire run sends and
//! polls every live subscription after each operation, as the server's
//! delivery sweep does. Its window sequence is the correctness oracle;
//! with an enabled [`Tracer`] it also times each public call per
//! operation. [`cq_layer`] replays the same rows through standalone
//! `ContinuousQuery` runtimes built from the same analyzed SQL, to time
//! the CQ layer's staging and window evaluation on their own.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel_core::{Db, DbOptions, ExecResult, SubscriptionId};
use streamrel_cq::{ConsistencyMode, ContinuousQuery, CqOutput, SharedRegistry};
use streamrel_net::wire;
use streamrel_sql::analyzer::{RelKind, SchemaProvider};
use streamrel_sql::plan::SchemaRef;
use streamrel_sql::{parse_statement, Analyzer, Statement};
use streamrel_types::Timestamp;

use crate::trace::Tracer;
use crate::workload::{Op, Source, Spec};

/// Probe attaches on workloads without live attaches, so every workload
/// times `Db::subscribe_attach`.
const PROBES: usize = 32;

/// One window the oracle expects on a source, with the operation that
/// closed it.
pub struct RefWindow {
    pub op: usize,
    pub close: Timestamp,
    pub bytes: Vec<u8>,
}

pub struct Replay {
    /// Expected windows per source, in delivery order.
    pub windows: Vec<Vec<RefWindow>>,
    /// The reference database after the last operation.
    pub db: Db,
    /// Wall time of the operation loop.
    pub wall: Duration,
}

/// The bytes a delivered window is compared on.
pub fn window_bytes(out: &CqOutput) -> Vec<u8> {
    wire::encode_rows(&out.relation)
}

/// `n` operation indexes spread evenly over `[start, start + len)`.
pub fn spread(n: usize, start: usize, len: usize) -> Vec<usize> {
    (0..n)
        .map(|j| start + ((2 * j + 1) * len) / (2 * n))
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    format!("reference: {e}")
}

/// Replay every operation into a fresh embedded `Db`; `raw_archive`
/// adds the raw-archive channel, as the server has it.
pub fn run(spec: &Spec, t: &mut Tracer, raw_archive: bool) -> Result<Replay, String> {
    let db = Db::in_memory(DbOptions::default());
    let archive = spec.raw_archive_sql.iter().filter(|_| raw_archive);
    for sql in spec.setup_sql.iter().chain(archive) {
        db.execute(sql).map_err(err)?;
    }
    let mut live: Vec<SubscriptionId> = Vec::new();
    for src in &spec.sources {
        let id = match src {
            Source::Cq(sql) => {
                // Registration text, kept apart from `sql.parse` (the
                // snapshot queries' parse).
                t.request();
                let o = t.enter("sql.parse_cq");
                parse_statement(sql).map_err(err)?;
                t.exit(o);
                match db.execute(sql).map_err(err)? {
                    ExecResult::Subscribed(id) => id,
                    other => return Err(err(format!("expected a subscription, got {other:?}"))),
                }
            }
            Source::Derived(name) => db.subscribe_stream(name).map_err(err)?,
        };
        live.push(id);
    }
    for _ in 0..spec.pre_attach {
        live.push(db.subscribe_attach(live[0]).map_err(err)?);
    }
    // Live attaches and queries land on the operations the wire run's
    // schedule would interleave them with.
    let op_at = |(part, frac): (usize, f64)| {
        let r = spec.part_range(part);
        r.start + ((frac * r.len() as f64) as usize).min(r.len() - 1)
    };
    let attach_at: Vec<usize> = spec
        .spread_over_latency(spec.live_attach)
        .into_iter()
        .map(op_at)
        .collect();
    let query_at: Vec<usize> = spec
        .spread_over_latency(spec.queries)
        .into_iter()
        .map(op_at)
        .collect();
    let probe_at = if spec.live_attach == 0 {
        spread(PROBES, 0, spec.part_range(spec.parts() - 1).end)
    } else {
        Vec::new()
    };
    let n_sources = spec.sources.len();
    let mut windows: Vec<Vec<RefWindow>> = (0..n_sources).map(|_| Vec::new()).collect();
    let start = Instant::now();
    for (i, op) in spec.ops().enumerate() {
        t.request();
        match op {
            Op::Ingest(rows) => {
                // The producer's encode is client work, outside the spans.
                let payload = wire::encode_ingest(spec.stream, &rows);
                drop(rows);
                let root = t.enter("replay.op");
                let o = t.enter("net.wire.decode_ingest");
                let (stream, rows) = wire::decode_ingest(&payload).map_err(err)?;
                t.exit(o);
                let o = t.enter("core.ingest_batch");
                db.ingest_batch(&stream, rows).map_err(err)?;
                t.exit(o);
                t.exit(root);
            }
            Op::Heartbeat(ts) => {
                let root = t.enter("replay.op");
                let o = t.enter("core.heartbeat");
                db.heartbeat(spec.stream, ts).map_err(err)?;
                t.exit(o);
                t.exit(root);
            }
        }
        // Attaches and the delivery sweep follow the operation, as on
        // the server's reactor.
        let root = t.enter("replay.sweep");
        for _ in attach_at.iter().filter(|&&k| k == i) {
            let o = t.enter("core.subscribe_attach");
            let id = db.subscribe_attach(live[0]).map_err(err)?;
            t.exit(o);
            live.push(id);
        }
        if probe_at.contains(&i) {
            let o = t.enter("core.subscribe_attach");
            let id = db.subscribe_attach(live[0]).map_err(err)?;
            t.exit(o);
            db.unsubscribe(id).map_err(err)?;
        }
        let o = t.enter("core.poll_shared_many");
        let drained = db.poll_shared_many(&live);
        t.exit(o);
        // Serialize each distinct window once, as the fan-out sweep does.
        let mut encoded: HashSet<*const CqOutput> = HashSet::new();
        for out in drained.iter().flatten() {
            if encoded.insert(Arc::as_ptr(out)) {
                let o = t.enter("net.wire.encode_window_body");
                std::hint::black_box(wire::encode_window_body(out));
                t.exit(o);
            }
        }
        t.exit(root);
        for (k, outs) in drained.iter().take(n_sources).enumerate() {
            for out in outs {
                windows[k].push(RefWindow {
                    op: i,
                    close: out.close,
                    bytes: window_bytes(out),
                });
            }
        }
        for _ in query_at.iter().filter(|&&k| k == i) {
            let Some(hi) = windows[0].last().map(|w| w.close) else {
                continue;
            };
            let sql = spec.archive_query(hi);
            t.request();
            let o = t.enter("sql.parse");
            parse_statement(&sql).map_err(err)?;
            t.exit(o);
            let o = t.enter("core.execute_snapshot");
            db.execute(&sql).map_err(err)?;
            t.exit(o);
        }
    }
    Ok(Replay {
        windows,
        db,
        wall: start.elapsed(),
    })
}

/// Resolves the workload's base stream and the reference database's
/// tables, as the server's catalog would.
struct Provider<'a> {
    db: &'a Db,
    stream: &'a str,
    cqtime: Option<usize>,
}

impl SchemaProvider for Provider<'_> {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        if name.eq_ignore_ascii_case(self.stream) {
            let schema = self.db.stream_schema(self.stream)?;
            return Some((
                schema,
                RelKind::Stream {
                    cqtime: self.cqtime,
                },
            ));
        }
        self.db
            .engine()
            .table_schema(name)
            .ok()
            .map(|s| (s, RelKind::Table))
    }
}

/// Replay the rows through standalone CQ runtimes (shared or
/// IVM-lowered exactly when the server's would be), timing
/// `stage_tuple` and `WindowTask::run`. Returns the windows produced.
pub fn cq_layer(spec: &Spec, db: &Db, t: &mut Tracer) -> Result<usize, String> {
    let schema = db
        .stream_schema(spec.stream)
        .ok_or_else(|| err("stream missing from the reference"))?;
    let cqtime = schema.index_of(spec.cqtime).ok();
    let provider = Provider {
        db,
        stream: spec.stream,
        cqtime,
    };
    let mut registry = SharedRegistry::new();
    let mut cqs = Vec::new();
    for (i, sql) in spec.cq_texts().into_iter().enumerate() {
        let Statement::Select(query) = parse_statement(sql).map_err(err)? else {
            return Err(err("CQ text is not a SELECT"));
        };
        let analyzed = Analyzer::new(&provider).analyze(&query).map_err(err)?;
        let mut cq = ContinuousQuery::new(
            format!("replay_{i}"),
            &analyzed,
            db.engine().clone(),
            ConsistencyMode::WindowBoundary,
        )
        .map_err(err)?;
        if !cq.try_share(&mut registry) {
            cq.try_lower_ivm();
        }
        cqs.push(cq);
    }
    // Fold each tuple into each distinct shared group once.
    let mut groups = Vec::new();
    for cq in &cqs {
        if let Some(g) = cq.shared_group() {
            if !groups.iter().any(|h| Arc::ptr_eq(h, &g)) {
                groups.push(g);
            }
        }
    }
    let cqtime = cqtime.ok_or_else(|| err("stream has no CQTIME column"))?;
    let mut produced = 0;
    for op in spec.ops() {
        t.request();
        let root = t.enter("replay.cq_op");
        let mut staged = Vec::new();
        match op {
            Op::Ingest(rows) => {
                for row in &rows {
                    let o = t.enter("cq.stage_tuple");
                    for g in &groups {
                        g.lock().on_tuple(row).map_err(err)?;
                    }
                    let ts = row[cqtime].as_timestamp().map_err(err)?;
                    for (k, cq) in cqs.iter_mut().enumerate() {
                        let tasks = if cq.is_shared() {
                            cq.stage_note_shared(ts)
                        } else {
                            cq.stage_tuple(row.clone())
                        }
                        .map_err(err)?;
                        staged.extend(tasks.into_iter().map(|task| (k, task)));
                    }
                    t.exit(o);
                }
            }
            Op::Heartbeat(ts) => {
                let o = t.enter("cq.stage_heartbeat");
                for (k, cq) in cqs.iter_mut().enumerate() {
                    let tasks = cq.stage_heartbeat(ts).map_err(err)?;
                    staged.extend(tasks.into_iter().map(|task| (k, task)));
                }
                t.exit(o);
            }
        }
        for (k, task) in staged {
            let o = t.enter("cq.window_task_run");
            let out = task.run().map_err(err)?;
            t.exit(o);
            cqs[k].finish_window(task.input_rows(), &out);
            produced += 1;
        }
        t.exit(root);
    }
    Ok(produced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_even_and_in_range() {
        assert_eq!(spread(4, 10, 8), vec![11, 13, 15, 17]);
        assert_eq!(spread(1, 0, 10), vec![5]);
        assert!(spread(0, 0, 10).is_empty());
        let s = spread(1000, 100, 50);
        assert!(s.iter().all(|&i| (100..150).contains(&i)));
    }
}
