#!/usr/bin/env python3
"""Wire-level end-to-end benchmark for streamrel.

Run from the root of a streamrel source tree:

    python3 perfbench/run.py --workload jellybean --seed 1 --seconds 10 --trace 0

Builds `streamrel-serve` and the load generator (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one measured run of the named workload with
the knobs in `perfbench/workloads.json`, prints a human-readable report,
writes the full result to `perfbench/results/<workload>[.trace].json`, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and the metrics `BENCHMARK.json` lists: its `end_to_end` metrics
with `--trace 0`, its `per_layer` metrics with `--trace 1`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Knobs --set may override: the ones that reproduce the two known
# anomalies (latency against CQ count, attach cost against subscribers).
SETTABLE = {"cqs", "subscribers"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Build the server and the load generator; cargo's output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "streamrel-serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_loadgen(cmd):
    """Run the load generator in its own process group, so a timeout also stops
    the server children it started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"load generator exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("load generator printed no result")
    return json.loads(lines[-1])


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(res):
    """Human-readable tables, printed before the result line."""
    shape = res["shape"]
    print(f"== {res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"cores={shape['cores']} subscribers={shape['subscribers']} "
          f"rows={shape['rows']} windows={shape['windows_closed']} "
          f"deliveries={shape['deliveries']}")
    print(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for err in res["errors"]:
        print(f"  error: {err}")
    if not res["trace"]:
        print(f"{'end-to-end metric':<28} {'value':>14} {'unit':<8} samples")
        for name, m in res["metrics"].items():
            print(f"{name:<28} {fmt(m['value']):>14} {m['unit']:<8} {m['samples']}")
        for name in res["omitted"]:
            print(f"{'(omitted: too few samples)':<28} {name}")
        return
    print(f"{'per-layer metric':<36} {'value':>14} unit")
    for name, m in res["layers"].items():
        print(f"{name:<36} {fmt(m['value']):>14} {m['unit']}")
    print(f"{'span (traced replay)':<30} {'count':>8} {'busy_us':>12} "
          f"{'self_us':>12} {'p50_us':>9} {'p99_us':>9}")
    for s in res["spans"]:
        print(f"{s['name']:<30} {s['count']:>8} {s['busy_us']:>12.0f} "
              f"{s['self_us']:>12.0f} {s['p50_us']:>9.2f} {s['p99_us']:>9.2f}")
    o = res["overhead"]
    print(f"tracing overhead: {o['frac'] * 100:+.1f}% "
          f"(traced replay {o['traced_replay_s']:.3f} s vs untraced "
          f"{o['untraced_replay_s']:.3f} s)")


def layer_values(res):
    """Per-layer metrics: the server and client table plus, per
    span, its p50 and per-layer self time from the traced replay."""
    vals = {k: v for k, v in res["layers"].items()}
    for s in res.get("spans", []):
        vals[f"{s['name']}_us.p50"] = {"value": s["p50_us"], "unit": "us"}
        vals[f"{s['name']}_us.p99"] = {"value": s["p99_us"], "unit": "us"}
    for layer, us in res.get("layer_self_us", {}).items():
        vals[f"{layer}.self_us"] = {"value": us, "unit": "us"}
    return vals


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override cqs or subscribers (to reproduce the known "
                         "anomalies); every other knob is fixed in workloads.json")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a streamrel source tree (no Cargo.toml / crates/)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads)}")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)

    cmd = [str(target / "release" / "streamrel-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(target / "release" / "streamrel-serve"),
           "--work-dir", str(target / "perfbench-work")]
    knobs = dict(workloads[args.workload]["knobs"])
    for kv in args.set:
        key, _, value = kv.partition("=")
        if key not in SETTABLE or key not in knobs:
            fail(f"--set {kv}: {args.workload} has no settable knob {key!r} "
                 f"(settable: {', '.join(sorted(SETTABLE & knobs.keys()))})")
        knobs[key] = value
    for k, v in knobs.items():
        cmd += ["--set", f"{k}={v}"]
    res = run_loadgen(cmd)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = ".trace.json" if args.trace else ".json"
    (out_dir / f"{args.workload}{suffix}").write_text(json.dumps(res, indent=1) + "\n")
    report(res)

    if args.trace:
        have, wanted = layer_values(res), bench["per_layer"]
    else:
        have, wanted = res["metrics"], bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} not measured on {args.workload}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
