"""One round of a benchmark workload in a fresh interpreter.

Usage: python child.py JOB.json RESULT.json, run with the round's scratch
directory as working directory (the config documents are there, and the
operations write their artifacts below it).  The job says which operations
to run, whether to trace them, and the recorded output to compare against.

The round first imports the package and parses its configs; run.py
counts interpreter start to that point as set-up.  Each operation is then
timed on its own (wall and process CPU), and its checks run outside the
timed region.  Before the first operation and after each one the round
stops and waits while run.py times its reference kernel.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _peak_rss_mib() -> float:
    """Peak resident set size of this process.  On Linux this is VmHWM:
    ru_maxrss survives exec, so it would report the harness's size whenever
    the harness is larger than the round."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sync() -> None:
    """Report that this process is idle and wait while the harness times its
    reference kernel (see run.py)."""
    sys.__stdout__.write("idle\n")
    sys.__stdout__.flush()
    if sys.stdin.readline() != "go\n":
        raise SystemExit("the harness went away")


def _run_op(op: dict, configs: dict) -> int:
    import trapcert.cli
    import trapcert.geometry
    import trapcert.specfun

    if op["kind"] == "cli":
        return trapcert.cli.run(list(op["argv"]))
    if op["kind"] == "flood-fill":
        sched = configs["figure.json"].schedule()
        boxes, _ = trapcert.geometry.build_layered(sched, op["layers"])
        resolution = trapcert.geometry.suggested_resolution(boxes)
        connected = trapcert.geometry.flood_fill_oracle(boxes, resolution)
        print(f"flood-fill oracle: {len(boxes)} boxes at resolution {resolution!r}: "
              f"{'connected' if connected else 'DISCONNECTED'}")
        return 0
    if op["kind"] == "wronskian-grid":
        nus, ts = trapcert.specfun.validation_grid()
        points = [(nu, t) for nu in nus[::20] for t in ts[::40]]
        failures = sum(1 for nu, t in points
                       if not trapcert.specfun.wronskian_residual(nu, t) <= 1.0e-10)
        print(f"wronskian subset: {len(points)} points, {failures} failures")
        return 0
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _check(op: dict, code, stdout: str, expected) -> tuple:
    """(reasons the operation failed, artifact digests)."""
    why = []
    if code != 0:
        why.append(f"exit code {code}")
    if not re.fullmatch(op["stdout"], stdout):
        why.append(f"stdout {stdout!r} does not match {op['stdout']!r}")
    digests = {}
    for path in op["artifacts"]:
        if not Path(path).is_file():
            why.append(f"artifact {path} missing")
            continue
        digests[path] = _digest(path)
        if op["report"]:
            text = Path(path).read_text(encoding="utf-8")
            why += [f"{path} has no line matching {pat!r}"
                    for pat in op["report"] if not re.search(pat, text, re.M)]
    if expected is not None:
        if stdout != expected["stdout"]:
            why.append(f"stdout {stdout!r} differs from recorded {expected['stdout']!r}")
        why += [f"{path} digest {digest[:12]} differs from recorded "
                f"{expected['digests'].get(path, '-')[:12]}"
                for path, digest in digests.items()
                if digest != expected["digests"].get(path)]
    return why, digests


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import numpy
    import trapcert
    import trapcert.cli

    configs = {name: trapcert.cli.load_config(name) for name in job["configs"]}
    result = {"t_ready": time.monotonic(), "package": trapcert.__file__,
              "numpy": numpy.__version__, "ops": []}
    tracer = None
    if job["trace_path"]:
        from tracer import Tracer  # the script's directory is on sys.path
        tracer = Tracer(job["run_id"])
        tracer.install()
    _sync()
    for index, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = index
        captured = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(captured):
                code = _run_op(op, configs)
        except Exception:  # one broken operation must not end the round
            code = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        result["peak_rss_mib"] = _peak_rss_mib()
        _sync()
        why, digests = _check(op, code, captured.getvalue(),
                              job["expected"][index] if job["expected"] else None)
        result["ops"].append({"name": op["name"], "wall_s": wall, "cpu_s": cpu,
                              "why": why, "stdout": captured.getvalue(),
                              "digests": digests})
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(job["trace_path"])
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
