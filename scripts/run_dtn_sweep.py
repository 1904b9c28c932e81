#!/usr/bin/env python3
"""Run the modal sign-check sweep for the boundary-condition bounds.

Checks, over every dimension and mode order in the configured grid, that the
interior kernel A_nu and the boundary combination B_m stay nonpositive,
that Re(h' conj(h)) <= 0, and that the Wronskian normalization holds.  The
default grid (n in {2,3,4,5}, m <= 100, 2000 radii, three multipliers each)
makes about 2.4 million checks in about a third of a second on a 2-core
Xeon VM, split about evenly between the check arithmetic and the batched
Bessel ladders.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trapcert.cli import run  # noqa: E402

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "dtn_sweep.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(CONFIG),
                        help="sweep configuration (default configs/dtn_sweep.json)")
    args = parser.parse_args()
    return run(["verify-dtn", "--config", args.config])


if __name__ == "__main__":
    sys.exit(main())
