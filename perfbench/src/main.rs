//! perfbench — wire-level end-to-end benchmark for `streamrel-serve`.
//!
//! ```text
//! perfbench --workload <jellybean|fanout|durable_archive> --seed <n>
//!           --seconds <s> --trace <0|1> --server <streamrel-serve>
//!           --work-dir <dir> [--set key=value ...]
//! ```
//!
//! One run: build the workload's seeded inputs, replay them through an
//! embedded `Db` (the correctness oracle), then drive a server child
//! over TCP through set-up and alternating closed-loop capacity parts
//! and open-loop latency parts, checking every delivered window against
//! the oracle. With `--trace 1` it also replays the inputs in-process with
//! spans around each public call into the engine's layers. The last
//! stdout line is one JSON object with every measurement; `run.py`
//! builds the binaries, supplies the knobs and reports.

#![deny(unsafe_code)]

mod child;
mod drive;
mod json;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;

use json::J;
use stats::{median, percentile, quantile};
use trace::{summarise, Tracer};
use workload::{Kind, Knobs, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    knobs: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        server: PathBuf::new(),
        work: PathBuf::new(),
        knobs: BTreeMap::new(),
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| "--seconds wants a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--server" => a.server = PathBuf::from(v),
            "--work-dir" => a.work = PathBuf::from(v),
            "--set" => {
                let (k, val) = v.split_once('=').ok_or("--set wants key=value")?;
                a.knobs.insert(k.to_string(), val.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload.is_empty() || a.seconds == 0.0 || a.server.as_os_str().is_empty() {
        return Err("--workload, --seconds and --server are required".into());
    }
    if a.work.as_os_str().is_empty() {
        return Err("--work-dir is required".into());
    }
    Ok(a)
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A metric for the result line.
fn metric(name: &str, unit: &str, value: f64, samples: usize) -> (String, J) {
    (
        name.to_string(),
        J::obj([
            ("value", J::Num(value)),
            ("unit", J::str(unit)),
            ("samples", J::Int(samples as i64)),
        ]),
    )
}

/// Median and p99 of a sample set, each only where the sample supports
/// it; names of the unsupported ones go to `omitted`.
fn percentiles(out: &mut Vec<(String, J)>, omitted: &mut Vec<J>, base: &str, samples: &[f64]) {
    for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
        let name = format!("{base}_{suffix}_us");
        match percentile(samples, q) {
            Some(v) => out.push(metric(&name, "us", v, samples.len())),
            None => omitted.push(J::str(format!("{name} ({} samples)", samples.len()))),
        }
    }
}

fn run(args: &Args) -> Result<J, String> {
    let kind = Kind::parse(&args.workload)?;
    let knobs = Knobs::new(args.knobs.clone());
    let spec = Spec::build(kind, &knobs, args.seed, args.seconds)?;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;

    let reference = replay::run(&spec, &mut Tracer::new(false), false)?;
    let reference_s = reference.wall.as_secs_f64();
    let wire = drive::run(
        &spec,
        &reference.windows,
        &reference.db,
        &args.server,
        &args.work,
    )?;
    drop(reference);

    let total_rows = spec.total_rows() as f64;
    let cap_rows = wire.capacity.iter().map(|c| c.rows).sum::<usize>() as f64;
    let mut metrics = vec![
        metric("setup_s", "s", median(&wire.setup_s), wire.setup_s.len()),
        // Over the whole capacity phase: its rows over the wall time and
        // the server CPU time of its parts.
        metric(
            "ingest_rows_per_s",
            "rows/s",
            cap_rows / wire.capacity.iter().map(|c| c.secs).sum::<f64>(),
            wire.capacity.len(),
        ),
        metric(
            "server_cpu_us_per_row",
            "us/row",
            wire.capacity.iter().map(|c| c.cpu_s).sum::<f64>() * 1e6 / cap_rows,
            wire.capacity.len(),
        ),
        metric("peak_rss_mb", "MiB", wire.peak_rss_mib, 1),
        metric(
            "failed_ops_frac",
            "ratio",
            wire.failed as f64 / wire.attempted.max(1) as f64,
            wire.attempted as usize,
        ),
    ];
    let mut omitted = Vec::new();
    percentiles(
        &mut metrics,
        &mut omitted,
        "result_latency",
        &wire.result_us,
    );
    percentiles(&mut metrics, &mut omitted, "ingest_ack", &wire.ack_us);
    percentiles(&mut metrics, &mut omitted, "subscribe", &wire.subscribe_us);
    // Attach cost against subscriber count: the first and the last
    // hundred live attaches (fan-out grows the group while they run).
    if wire.subscribe_us.len() >= 200 {
        let (early, late) = (
            &wire.subscribe_us[..100],
            &wire.subscribe_us[wire.subscribe_us.len() - 100..],
        );
        percentiles(&mut metrics, &mut omitted, "subscribe_first100", early);
        percentiles(&mut metrics, &mut omitted, "subscribe_last100", late);
    }
    percentiles(&mut metrics, &mut omitted, "snapshot_query", &wire.query_us);

    let layers = layer_metrics(&wire, total_rows);
    let mut fields = vec![
        ("workload", J::str(&args.workload)),
        ("seed", J::Int(args.seed as i64)),
        ("trace", J::Bool(args.trace)),
        (
            "correct",
            J::Bool(wire.failed == 0 && wire.guard_errors.is_empty()),
        ),
        ("attempted", J::Int(wire.attempted as i64)),
        ("failed", J::Int(wire.failed as i64)),
        (
            "errors",
            J::Arr(
                wire.guard_errors
                    .iter()
                    .chain(&wire.errors)
                    .map(J::str)
                    .collect(),
            ),
        ),
        ("metrics", J::Obj(metrics)),
        ("omitted", J::Arr(omitted)),
        ("layers", J::Obj(layers)),
        (
            "shape",
            J::obj([
                ("cores", J::Int(cores() as i64)),
                ("subscribers", J::Int(spec.subscribers() as i64)),
                ("sources", J::Int(spec.sources.len() as i64)),
                ("live_attaches", J::Int(spec.live_attach as i64)),
                ("snapshot_queries", J::Int(spec.queries as i64)),
                ("parts", J::Int(spec.parts() as i64)),
                ("ops", J::Int(spec.part_range(spec.parts() - 1).end as i64)),
                ("open_loop_ops_per_s", J::Num(spec.rate_ops)),
                ("rows", J::Int(total_rows as i64)),
                ("windows_closed", J::Int(wire.windows_closed as i64)),
                ("deliveries", J::Int(wire.routed as i64)),
                ("setup_reps", J::Int(wire.setup_s.len() as i64)),
                (
                    "setup_s",
                    J::Arr(wire.setup_s.iter().map(|&s| J::Num(s)).collect()),
                ),
                (
                    "capacity_parts_rows_per_s",
                    J::Arr(
                        wire.capacity
                            .iter()
                            .map(|c| J::Num(c.rows as f64 / c.secs))
                            .collect(),
                    ),
                ),
                ("reference_replay_s", J::Num(reference_s)),
            ]),
        ),
        (
            "knobs",
            J::Obj(
                knobs
                    .pairs()
                    .iter()
                    .map(|(k, v)| (k.clone(), J::str(v)))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        let csv = args.work.join(format!("{}.spans.csv", args.workload));
        fields.extend(traced(&spec, &csv)?);
    }
    Ok(J::obj(fields))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The per-layer table sourced from server counters (deltas over the
/// timed parts) and client-side measurements.
fn layer_metrics(w: &drive::Wire, total_rows: f64) -> Vec<(String, J)> {
    let windows = w.windows_closed.max(1) as f64;
    let mut m: Vec<(String, J)> = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        m.push((
            name.to_string(),
            J::obj([("value", J::Num(value)), ("unit", J::str(unit))]),
        ));
    };
    put(
        "net.reactor.wakeups_per_window",
        "count",
        w.delta("net.reactor.wakeups") as f64 / windows,
    );
    for name in [
        "net.fanout.encodes",
        "net.windows_sent",
        "net.outbox_drops",
        "net.delivery_lost",
        "net.frames_in",
        "net.frames_out",
        "db.tuples_in",
        "db.windows_out",
        "db.sub_drops",
        "db.late_drops",
        "db.shard.contention",
        "ivm.delta.rows",
        "db.rows_archived",
    ] {
        put(name, "count", w.delta(name) as f64);
    }
    for name in [
        "db.sub_queue_depth",
        "pool.queue_depth",
        "pool.busy_workers",
    ] {
        put(
            &format!("{name}.max"),
            "count",
            w.gauges_max.get(name).copied().unwrap_or(0) as f64,
        );
    }
    let closes: Vec<_> =
        w.s1.iter()
            .filter(|(k, _)| k.starts_with("cq.close_us."))
            .collect();
    let close_sum: i64 = closes
        .iter()
        .map(|(k, i)| i.sum - w.s0.get(*k).map_or(0, |s| s.sum))
        .sum();
    put("cq.close_us.sum", "us", close_sum as f64);
    put(
        "cq.close_us.p99",
        "us",
        closes.iter().map(|(_, i)| i.p99).max().unwrap_or(0) as f64,
    );
    put("ivm.lowered", "count", w.end("ivm.lowered").value as f64);
    put("ivm.fallback", "count", w.end("ivm.fallback").value as f64);
    put(
        "ivm.state.bytes",
        "bytes",
        w.end("ivm.state.bytes").value as f64,
    );
    put(
        "exec.plans_run_per_window",
        "count",
        w.delta("exec.plans_run") as f64 / windows,
    );
    put(
        "exec.rows_out_per_window",
        "count",
        w.delta("exec.rows_out") as f64 / windows,
    );
    put(
        "storage.commit_us.count",
        "count",
        w.delta("storage.commit_us") as f64,
    );
    let commit = w.end("storage.commit_us");
    put("storage.commit_us.p50", "us", commit.p50 as f64);
    put("storage.commit_us.p99", "us", commit.p99 as f64);
    let sync = w.end("storage.wal_sync_us");
    put("storage.wal_sync_us.p50", "us", sync.p50 as f64);
    put("storage.wal_sync_us.p99", "us", sync.p99 as f64);
    let batches = w.delta("wal.group_commit.batch_size");
    let batch_sum = w.end("wal.group_commit.batch_size").sum
        - w.s0.get("wal.group_commit.batch_size").map_or(0, |i| i.sum);
    put(
        "wal.group_commit.batch_size.mean",
        "count",
        if batches > 0 {
            batch_sum as f64 / batches as f64
        } else {
            0.0
        },
    );
    if let Some(bytes) = w.data_growth_bytes {
        put(
            "storage.bytes_per_row",
            "bytes/row",
            bytes as f64 / total_rows,
        );
    }
    put(
        "loadgen.late_max_us",
        "us",
        w.late_us.iter().copied().fold(0.0, f64::max),
    );
    put("loadgen.late_p99_us", "us", quantile(&w.late_us, 0.99));
    put("loadgen.backlog_end", "windows", w.backlog_end);
    m
}

/// The traced replay: per-call spans over the same inputs, the per-layer
/// span table, and the tracing overhead against untraced replays.
fn traced(spec: &Spec, csv: &std::path::Path) -> Result<Vec<(&'static str, J)>, String> {
    // Untraced, traced, untraced: the overhead compares the traced
    // replay with the mean of the two untraced ones around it.
    let mut untraced = replay::run(spec, &mut Tracer::new(false), true)?
        .wall
        .as_secs_f64();
    let mut t = Tracer::new(true);
    let replay = replay::run(spec, &mut t, true)?;
    let traced_wall = replay.wall.as_secs_f64();
    let produced = replay::cq_layer(spec, &replay.db, &mut t)?;
    drop(replay);
    untraced = median(&[
        untraced,
        replay::run(spec, &mut Tracer::new(false), true)?
            .wall
            .as_secs_f64(),
    ]);
    t.write_csv(csv)
        .map_err(|e| format!("write {}: {e}", csv.display()))?;
    let spans = summarise(t.spans());
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &spans {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *layer_self.entry(layer).or_default() += s.self_us;
    }
    let rows = spans
        .iter()
        .map(|s| {
            J::obj([
                ("name", J::str(s.name)),
                ("count", J::Int(s.count as i64)),
                ("busy_us", J::Num(s.busy_us)),
                ("self_us", J::Num(s.self_us)),
                ("p50_us", J::Num(s.p50_us)),
                ("p99_us", J::Num(s.p99_us)),
            ])
        })
        .collect();
    Ok(vec![
        ("spans", J::Arr(rows)),
        (
            "layer_self_us",
            J::Obj(
                layer_self
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), J::Num(v)))
                    .collect(),
            ),
        ),
        (
            "overhead",
            J::obj([
                ("untraced_replay_s", J::Num(untraced)),
                ("traced_replay_s", J::Num(traced_wall)),
                ("frac", J::Num(traced_wall / untraced - 1.0)),
                ("requests", J::Int(t.requests() as i64)),
                ("spans", J::Int(t.spans().len() as i64)),
                ("cq_windows", J::Int(produced as i64)),
                ("spans_csv", J::str(csv.display().to_string())),
            ]),
        ),
    ])
}
