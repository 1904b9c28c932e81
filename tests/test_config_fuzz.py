"""Random config documents against the exit-code contract: every subcommand
run on any document returns 0, 1 or 2 and never raises.

Sizes stay small (dimension 2-4, at most 4 layers or boxes, sweeps of at
most 5 radii and mMax <= 5), numbers range over all of binary64, including
NaN and the infinities, and any value may be malformed.  Two malformed
files (not UTF-8, nested 200,000 deep) and two truncations past the box
bound (10,000 layers at n=2, 2 layers at n=32) are pinned as examples.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from trapcert.cli import run

COMMANDS = ("plan", "build", "certify", "plot", "report", "verify-dtn")

# moderate positives and the demo values more often than not, then any
# binary64 (NaN and the infinities included) and small integers
NUMBER = st.one_of(st.floats(1e-3, 1e3), st.floats(1.0, 3.0),
                   st.sampled_from([2.0, 1e-4, 0.25, 1.2, 6.0, 0.0, 1e-300, 1e300]),
                   st.floats(), st.integers(-3, 10))
JUNK = st.sampled_from([None, "x", [], {}, True, -1, 2.5, 10**400])


def _family(name, keys):
    return st.fixed_dictionaries({"family": st.just(name),
                                  **{key: NUMBER for key in keys}})


def _table(order):
    values = st.lists(NUMBER, min_size=1, max_size=6)
    return st.fixed_dictionaries({"family": st.just("table"),
                                  "values": values.map(order) | values})


SCHEDULE = st.fixed_dictionaries({
    "wavenumbers": _family("log-growth", ("c",)) | _table(sorted),
    "targets": _family("power", ("amplitude", "exponent")) | _table(sorted),
    "paddings": (_family("shifted-power", ("amplitude", "shift", "exponent"))
                 | _table(lambda v: sorted(v, reverse=True))),
})

SWEEP = st.fixed_dictionaries(
    {"rhoPoints": st.integers(2, 5), "mMax": st.integers(0, 5)},
    optional={"nValues": st.lists(st.integers(2, 4), min_size=1, max_size=2),
              "rhoMin": NUMBER, "rhoMax": NUMBER})


def _truncation_key(doc):
    """The document with its truncation under the key its layout takes."""
    if doc["layout"] == "stacked":
        doc = dict(doc)
        doc["boxCount"] = doc.pop("layers")
    return doc


# a document always holds a sweep, so that verify-dtn never falls back to
# its 2,000-radius default grid
WELL_FORMED = st.fixed_dictionaries({
    "dimension": st.integers(2, 4),
    "schedule": SCHEDULE,
    "layout": st.sampled_from(["layered", "stacked"]),
    "layers": st.integers(1, 4),
    "sweep": SWEEP,
}).map(_truncation_key)

KEYS = ("dimension", "schedule", "layout", "layers", "sweep", "boxCount", "outputs")


def _spoil(case):
    """The document with one key dropped or set to a malformed value, or
    left alone (half the time)."""
    doc, key, value, drop = case
    if key is None or (drop and key == "sweep"):
        return doc
    doc = dict(doc)
    if drop:
        doc.pop(key, None)
    else:
        doc[key] = value
    return doc


DOCUMENT = st.tuples(WELL_FORMED, st.sampled_from(KEYS + (None,) * len(KEYS)),
                     JUNK, st.booleans()).map(_spoil)

DEMO = {
    "dimension": 2,
    "schedule": {
        "wavenumbers": {"family": "log-growth", "c": 2.0},
        "targets": {"family": "power", "amplitude": 1.0e-4, "exponent": 0.25},
        "paddings": {"family": "shifted-power", "amplitude": 2.0,
                     "shift": 6.0, "exponent": 1.2},
    },
    "layout": "layered",
    "layers": 2,
    "sweep": {"rhoPoints": 3, "mMax": 2},
}


def _text(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(DOCUMENT.map(_text), st.binary(max_size=40)))
@example(b"\xff\xfe{}")
@example(b"[" * 200_000)
@example(_text({**DEMO, "layers": 10_000}))
@example(_text({**DEMO, "dimension": 32}))
def test_every_command_keeps_the_exit_contract(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(content)
        for command in COMMANDS:
            argv = [command, "--config", str(path)]
            if command not in ("plan", "verify-dtn"):
                argv += ["--out", str(Path(tmp) / "out")]
            assert run(argv) in (0, 1, 2), command
