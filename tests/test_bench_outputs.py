"""The benchmark's recorded outputs as a tier-1 check.

`bench/expected.json` holds, at the default seed, the exact standard output
and the SHA-256 of every artifact of each benchmark operation.  This test
writes the same config documents `bench/workloads.py` gives the benchmark,
runs every operation of the smoke rounds and of the full-size
`figure-pipeline` and `bulk-certify` rounds (the latter writes the
256-layer CSV and SVG, 166,590 rows each) the way `bench/child.py` does
(CLI operations through `trapcert.cli.run`), and requires both to equal
the recording.  It reads `bench/` and writes only below `tmp_path`.
"""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from trapcert.cli import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench("workloads")
CHILD = load_bench("child")
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
ROUNDS = [("smoke", name) for name in WORKLOADS.WORKLOADS] + [
    ("full", "figure-pipeline"), ("full", "bulk-certify")]


@pytest.mark.parametrize("mode, workload", ROUNDS,
                         ids=[f"{mode}-{name}" for mode, name in ROUNDS])
def test_outputs_match_the_recording(tmp_path, monkeypatch, capsys, mode,
                                     workload):
    assert EXPECTED["default_seed"] == WORKLOADS.DEFAULT_SEED
    smoke = mode == "smoke"
    monkeypatch.chdir(tmp_path)
    docs = WORKLOADS.configs(workload, WORKLOADS.DEFAULT_SEED, smoke)
    for name, doc in docs.items():
        Path(name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    configs = {name: load_config(name) for name in docs}
    ops = WORKLOADS.operations(workload, smoke)
    recorded = EXPECTED[mode][workload]["ops"]
    assert [op.name for op in ops] == [rec["name"] for rec in recorded]
    for op, rec in zip(ops, recorded):
        capsys.readouterr()
        assert CHILD._run_op(dataclasses.asdict(op), configs) == 0, op.name
        assert capsys.readouterr().out == rec["stdout"], op.name
        digests = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                   for path in op.artifacts}
        assert digests == rec["digests"], op.name
