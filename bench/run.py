"""trapcert benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke      # every workload at tiny sizes, a few seconds
    python3 bench/run.py --record     # rewrite bench/expected.json at the default seed

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, so nothing needs installing beyond numpy and
mpmath.  Every round runs in a fresh interpreter, one at a time, from this
process.  A run first starts a few set-up probes (import and config parse
only), then repeats whole rounds of the workload while another round still
fits in S seconds, and reports medians over rounds.  With --trace 1 the
rounds alternate untraced and traced, and the run reports the per-layer
metrics of the traced rounds plus the tracing overhead.

The shared machine this runs on changes speed by tens of percent within
seconds, so times are reported in reference seconds: before the first
operation of a round and after each one, the round's process waits while
this process times a fixed reference kernel that uses no trapcert code.
An operation's time is scaled by REFERENCE_S over the mean of the two
kernel times around it (set-up by the kernel time right after it); the raw
medians are in the info line.

Every operation's exit code, verdict line and artifacts are checked; at the
default seed the verdict lines and artifact SHA-256 digests must also equal
the ones recorded in expected.json.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's environment and any count drift.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracer import COUNTERS, SELF_TIMED, TARGETS
from workloads import DEFAULT_SEED, WORKLOADS, configs, operations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
EXPECTED = BENCH / "expected.json"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
REFERENCE_S = 0.2  # typical reference-kernel time on a 2-core Xeon VM


class HarnessError(RuntimeError):
    """A round could not run at all (the child crashed or timed out)."""


@dataclasses.dataclass(frozen=True)
class _Item:
    j: int
    x: float
    y: float


def reference_kernel() -> float:
    """Seconds for a fixed mix that uses no trapcert code: small frozen
    objects and float formatting (like box construction and the emitters), a
    pairwise numpy block (like the packing certificate) and a scalar float
    loop (like the Bessel ladders)."""
    start = time.perf_counter()
    items = [_Item(j, j * 0.37, math.sqrt(j)) for j in range(20000)]
    text = "\n".join(f"{it.j},{it.x:.17g},{it.y:.17g}" for it in items)
    lo = np.linspace(0.0, 1.0, 8000).reshape(4000, 2)
    for s in range(0, 512, 64):
        sep = np.maximum(lo[s:s + 64, None, :] - lo[None, :, :] - 0.001, 0.0)
        float(np.sqrt((sep ** 2).sum(axis=2)).min())
    acc = 0.0
    for i in range(1, 300000):
        acc += math.log(i) / i
    del items, text
    return time.perf_counter() - start


def per_layer_names():
    """Per-layer metric names with their units, in report order."""
    names = []
    for name in TARGETS:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.s", "s"))
        if name in SELF_TIMED:
            names.append((f"{name}.self_s", "s"))
    names += [(name, "count") for name in COUNTERS]
    names.append(("trace.overhead_s", "s"))
    return names


def _exact_counts(trace: dict) -> dict:
    return {key: value for key, value in trace.items()
            if key.endswith(".calls") or key in COUNTERS}


def _round(workload, seed, ops, docs, index, traced, expected) -> dict:
    """Run one child interpreter; `ops` empty makes it a set-up probe."""
    work = RUN_DIR / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    run_id = f"{workload}-seed{seed}-round{index}"
    trace_path = RUN_DIR / "trace" / f"{run_id}.json" if traced else None
    if trace_path is not None:
        trace_path.parent.mkdir(exist_ok=True)
    job = {"configs": sorted(docs), "ops": [dataclasses.asdict(op) for op in ops],
           "trace_path": str(trace_path) if trace_path else None,
           "run_id": run_id, "expected": expected}
    job_path, result_path = RUN_DIR / "job.json", RUN_DIR / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    kernel_s = []
    with open(RUN_DIR / "child.stderr", "w+", encoding="utf-8") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path), str(result_path)],
            cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for _ in proc.stdout:  # the child is idle until it reads "go"
                kernel_s.append(reference_kernel())
                proc.stdin.write("go\n")
                proc.stdin.flush()
            returncode = proc.wait()
        except OSError:
            returncode = None
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        elapsed = time.monotonic() - spawned
        stderr.seek(0)
        err = stderr.read()
    if returncode != 0 or not result_path.is_file():
        raise HarnessError(f"{run_id}: child exited {returncode}\n{err[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["package"]).resolve().parent.parent != SRC:
        raise HarnessError(f"{run_id}: imported trapcert from {result['package']}, "
                           f"not from {SRC}")
    if len(kernel_s) != len(ops) + 1:
        raise HarnessError(f"{run_id}: child stopped after {len(kernel_s)} of "
                           f"{len(ops) + 1} sync points")
    raw_setup = result["t_ready"] - spawned
    scale = [REFERENCE_S / ((a + b) / 2.0) for a, b in zip(kernel_s, kernel_s[1:])]
    for op, factor in zip(result["ops"], scale):
        op.update(ref_wall_s=op["wall_s"] * factor, ref_cpu_s=op["cpu_s"] * factor)
    result.update(raw_setup_s=raw_setup, setup_s=raw_setup * REFERENCE_S / kernel_s[0],
                  kernel_s=kernel_s, elapsed_s=elapsed, traced=traced)
    return result


def measure(workload, seed, seconds, trace, smoke=False, expected=None, probes=SETUP_PROBES):
    """Set-up probes, then rounds while another one fits in `seconds`.

    With `trace` the rounds alternate untraced and traced, at least one of
    each.  `expected` is the recorded output of each operation, or None to
    check verdicts only.  Returns (probes, rounds).
    """
    ops, docs = operations(workload, smoke), configs(workload, seed, smoke)
    start = time.monotonic()
    probed = [_round(workload, seed, [], docs, -1, False, None) for _ in range(probes)]
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_round(workload, seed, ops, docs, len(rounds), traced, expected))
        if trace and len(rounds) < 2:
            continue
        upcoming = trace and len(rounds) % 2 == 1
        estimate = max(r["elapsed_s"] for r in rounds if r["traced"] == upcoming)
        if time.monotonic() - start + estimate > seconds:
            return probed, rounds


def _median_sum(rounds, key):
    """Median over rounds of the sum of `key` over the round's operations."""
    return statistics.median(sum(op[key] for op in r["ops"]) for r in rounds)


def summarize(workload, seed, probes, rounds, trace, recorded_counts):
    """(result line, info line) of a run."""
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [f"round {i} {op['name']}: {why}"
                for i, r in enumerate(rounds) for op in r["ops"] for why in op["why"]]
    failed = sum(1 for r in rounds for op in r["ops"] if op["why"])
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        metrics = {
            "wall_s": (_median_sum(plain, "ref_wall_s"), "s"),
            "cpu_s": (_median_sum(plain, "ref_cpu_s"), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in probes + rounds), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
        }
        drift = []
    else:
        traced = [r for r in rounds if r["traced"]]
        layers = {key: statistics.median(r["trace"][key] for r in traced)
                  for key in traced[0]["trace"]}
        layers.update(_exact_counts(traced[0]["trace"]))  # equal in every round, or drift
        layers["trace.overhead_s"] = (_median_sum(traced, "wall_s")
                                      - _median_sum(plain, "wall_s"))
        metrics = {name: (layers[name], unit) for name, unit in per_layer_names()}
        drift = count_drift([_exact_counts(r["trace"]) for r in traced],
                            recorded_counts, seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "rounds": len(rounds), "setup_probes": len(probes),
            "raw_wall_s": _median_sum(plain, "wall_s"),
            "raw_cpu_s": _median_sum(plain, "cpu_s"),
            "raw_setup_s": statistics.median(r["raw_setup_s"] for r in probes + rounds),
            "kernel_s": statistics.median(k for r in probes + rounds for k in r["kernel_s"]),
            "round_ref_wall_s": [sum(op["ref_wall_s"] for op in r["ops"]) for r in rounds],
            "op_wall_s": [[op["wall_s"] for op in r["ops"]] for r in rounds],
            "round_kernel_s": [r["kernel_s"] for r in rounds],
            "count_drift": drift, "failures": failures[:50], **environment(rounds)}
    return result, info


def count_drift(counts_by_round, recorded, seed):
    """Exact counts that moved between traced rounds, or away from the
    counts recorded at the default seed (artifact bytes depend on the seed,
    so they are compared at the default seed only)."""
    first, drift = counts_by_round[0], []
    for later in counts_by_round[1:]:
        drift += [f"{key} changed between rounds: {first[key]} then {later[key]}"
                  for key in first if later[key] != first[key]]
    for key, value in (recorded or {}).items():
        if key == "cli.artifact_bytes" and seed != DEFAULT_SEED:
            continue
        if first.get(key) != value:
            drift.append(f"{key} = {first.get(key)}, recorded {value}")
    return drift


def environment(rounds) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trapcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": rounds[0]["numpy"]}


def _load_expected(mode):
    doc = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return doc[mode]


def benchmark(args) -> int:
    recorded = _load_expected("full").get(args.workload)
    if recorded is None:
        print(f"no recorded output for {args.workload} in {EXPECTED}", file=sys.stderr)
        return 1
    expected = recorded["ops"] if args.seed == DEFAULT_SEED else None
    probes, rounds = measure(args.workload, args.seed, args.seconds, args.trace,
                             expected=expected)
    result, info = summarize(args.workload, args.seed, probes, rounds, args.trace,
                             recorded["counts"])
    for line in info["failures"] + info["count_drift"]:
        print(line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, one untraced and one traced round, at
    the default seed (digests checked); the first also at seed 1 (verdicts
    only)."""
    recorded, ok = _load_expected("smoke"), True
    for workload, seed in [(w, DEFAULT_SEED) for w in WORKLOADS] + [(WORKLOADS[0], 1)]:
        expected = recorded[workload]["ops"] if seed == DEFAULT_SEED else None
        probes, rounds = measure(workload, seed, 0, True, smoke=True,
                                 expected=expected, probes=1)
        result, info = summarize(workload, seed, probes, rounds, True,
                                 recorded[workload]["counts"])
        good = result["correct"] and not info["count_drift"]
        ok = ok and good
        print(f"{workload} seed {seed}: {'ok' if good else 'FAIL'} "
              f"({result['attempted']} operations, {result['failed']} failed, "
              f"{len(info['count_drift'])} counts drifted)")
        for line in info["failures"] + info["count_drift"]:
            print(f"  {line}")
    return 0 if ok else 1


def record() -> int:
    """Run every workload at the default seed, full size and smoke size, and
    store each operation's verdict line and artifact digests plus the exact
    counts of the traced round.  Refuses if any verdict fails or if the
    untraced and traced rounds disagree."""
    doc = {"default_seed": DEFAULT_SEED}
    for mode in ("full", "smoke"):
        doc[mode] = {}
        for workload in WORKLOADS:
            _, rounds = measure(workload, DEFAULT_SEED, 0, True, smoke=mode == "smoke",
                                probes=1)
            outputs = [[{"name": op["name"], "stdout": op["stdout"], "digests": op["digests"]}
                        for op in r["ops"]] for r in rounds]
            whys = [why for r in rounds for op in r["ops"] for why in op["why"]]
            if whys or any(o != outputs[0] for o in outputs):
                print(f"{mode} {workload}: refusing to record", *whys, sep="\n", file=sys.stderr)
                return 1
            traced = next(r for r in rounds if r["traced"])
            doc[mode][workload] = {"ops": outputs[0], "counts": _exact_counts(traced["trace"])}
            print(f"recorded {mode} {workload}")
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trapcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "trapcert" / "__init__.py").is_file():
        print(f"no trapcert sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.record or args.workload):
        parser.error("give --workload, --smoke or --record")
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    reference_kernel()  # the first call also pays for first use of the allocator and numpy
    try:
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        return benchmark(args)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR / "work", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
