"""The bindcat benchmark: time to verdict for four checker workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths are taken relative to this file, and the
package is imported from ``src/`` beside this directory.  Each pass of
a workload runs in a fresh interpreter (``worker.py``), so the package's
process-global caches start cold.  Passes repeat until ``--seconds`` have
gone by, at least once; set-up is sampled at least nine times, with
extra set-up-only processes where there were fewer passes.  Every
figure reported is the median over its samples.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also runs one traced pass (and, for ``laws``, the terms
microbenchmark in its own process) and reports every per-layer metric,
with 0 for layers the workload never calls.  The last line of standard
output is one JSON object; everything before it is for people, and a
fuller record, spans included, goes to ``perfbench/out/``.

The inputs are fixed exhaustive enumerations: ``--seed`` is recorded but
changes no input.  Workers run with PYTHONHASHSEED=0, so that string-hash
layout is the same in every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("laws", "laws-sabotaged", "tables", "folds")
SETUP_SAMPLES = 9
# one pass of the slowest workload takes about 40 s on a 2-CPU box
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """A worker failed; the run reports no result."""


def spawn(workload: str, mode: str, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, mode,
         str(int(trace)), repr(spawned_at)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside
    a git checkout, where ``src_sha256`` still identifies the code."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "pythonhashseed": "0"}


def layer_metrics(names: list[str], traced: dict, untraced_verdict_s: float,
                  micro: dict | None) -> dict[str, float]:
    """The per-layer metrics one traced pass measured: span durations and
    span counts summed by name, self times, and the counts the worker
    read off its results."""
    values: dict[str, float] = {}
    for sp in traced["spans"]:
        if sp["parent"] is None:
            values["trace.self_s"] = sp["self_seconds"]
            continue
        if sp["name"] == "terms.sweep":
            values["terms.sweep_rest_s"] = sp["self_seconds"]
        for suffix, amount in [("s", sp["seconds"]), *sp["counts"].items()]:
            key = f"{sp['name']}_{suffix}"
            if key in names:
                values[key] = values.get(key, 0) + amount
    values["trace.verdict_s"] = traced["verdict_s"]
    values["trace.overhead_s"] = traced["verdict_s"] - untraced_verdict_s
    values.update(traced["layer"])
    if micro is not None:
        values.update(micro["layer"])
    unknown = set(values) - set(names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return values


def measure(workload: str, seconds: float, trace: bool, spec: dict) -> dict:
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn(workload, "full", False))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, "setup", False)["setup_s"])

    verdict_s = statistics.median(p["verdict_s"] for p in passes)
    e2e = {"setup_s": statistics.median(setups),
           "verdict_s": verdict_s,
           "checks_per_s": statistics.median(p["checks"] / p["verdict_s"] for p in passes),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    record = {"workload": workload, "passes": passes, "setup_samples": setups,
              "end_to_end": e2e}
    judged = list(passes)
    if trace:
        traced = spawn(workload, "full", True)
        micro = spawn(workload, "micro", True) if workload == "laws" else None
        names = [m["name"] for m in spec["per_layer"]]
        record["layer"] = layer_metrics(names, traced, verdict_s, micro)
        record["spans"] = traced.pop("spans")
        record["traced_pass"] = traced
        judged.append(traced)
        if micro is not None:
            record["micro"] = micro
            judged.append(dict(micro, calls=1))
    record["attempted"] = sum(p["calls"] for p in judged)
    record["wrong"] = [w for p in judged for w in p["wrong"]]
    record["check_scopes"] = any(p["check_scopes"] for p in judged)
    return record


def report(record: dict, spec: dict, seed: int, env: dict) -> None:
    w, e2e, n = record["workload"], record["end_to_end"], len(record["passes"])
    print(f"{w}: seed {seed}, {n} pass(es), {len(record['setup_samples'])} set-ups; "
          f"python {env['python']}, nproc {env['nproc']}, commit {env['commit'][:12]}, "
          f"src {env['src_sha256'][:12]}, CHECK_SCOPES "
          f"{'on' if record['check_scopes'] else 'off'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {units[name]}")
    failed, attempted = len(record["wrong"]), record["attempted"]
    print(f"  {'wrong_verdicts':<16} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} calls)")
    for line in record["wrong"]:
        print(f"  WRONG {line}")
    if "layer" in record:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["layer"].items():
            shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {name:<40} {shown} {units[name]}")
        print("  spans (seconds, self seconds):")
        for sp in record["spans"]:
            print(f"    {sp['name']:<38} {sp['seconds']:>12.6f} {sp['self_seconds']:>12.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bindcat" / "__init__.py").is_file():
        print(f"error: no bindcat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    wanted = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)

    results = {}
    try:
        for w in wanted:
            record = measure(w, args.seconds, bool(args.trace), spec)
            report(record, spec, args.seed, env)
            results[w] = record
            out = OUT / f"BENCH_{w}_seed{args.seed}_trace{args.trace}.json"
            out.write_text(json.dumps(dict(record, seed=args.seed, env=env), indent=1))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metric_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {}
    for w, record in results.items():
        # a layer the workload never calls took no time and did no work
        values = record["layer"] if args.trace else record["end_to_end"]
        prefix = "" if len(results) == 1 else f"{w}."
        for name in metric_names:
            metrics[prefix + name] = {"value": values.get(name, 0), "unit": units[name]}
    failed = sum(len(r["wrong"]) for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
