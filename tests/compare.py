"""Comparison of long sequences that fails at the first difference, fast.

pytest explains a failing `assert list_a == list_b` by diffing the two
lists, which takes minutes for the thousands of records a sweep or the
selftest yields.  `assert_sequences_equal` walks both in step and stops at
the first entry whose key differs, or at the end of the shorter one.
"""

import pytest


def assert_sequences_equal(got, ref, key=lambda entry: entry):
    """Fail unless `got` and `ref` have equal lengths and equal keys at
    every index; the message names the first differing index and both
    entries (or the first entry past the shorter sequence)."""
    got, ref = list(got), list(ref)
    for index, (g, r) in enumerate(zip(got, ref)):
        if key(g) != key(r):
            pytest.fail(f"first difference at index {index} of {len(got)} and "
                        f"{len(ref)}:\n  got {g!r}\n  ref {r!r}")
    if len(got) != len(ref):
        common = min(len(got), len(ref))
        longer, side = (got, "got") if len(got) > len(ref) else (ref, "ref")
        pytest.fail(f"lengths differ, got {len(got)} and ref {len(ref)}; "
                    f"{side}[{common}] is {longer[common]!r}")
