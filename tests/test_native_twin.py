"""Agreement of the compiled kernel with the pure-Python kernels.

Skipped as a whole when the extension is not built.
"""

from __future__ import annotations

import random

import pytest

from byztrim import _kernels
from byztrim._kernels import pure
from test_kernels import random_masks

native = pytest.importorskip(
    "byztrim._kernels.native", reason="compiled kernel not built"
)


def test_default_prefers_native():
    assert _kernels.BACKEND == "native"


class TestTwinsAgree:
    def test_violating_partition_identical(self):
        # The compiled twin still enumerates every partition; the pruned
        # search must find the same first witness.
        rng = random.Random(100)
        for _ in range(300):
            n = rng.randrange(1, 8)
            masks = random_masks(rng, n, rng.choice([0.2, 0.5, 0.8]))
            f = rng.randrange(0, 3)
            r = rng.choice([f + 1, 2 * f + 1])
            _, _, hit = pure.violating_partition(n, masks, f, r, 10**9)
            assert hit == native.violating_partition(n, masks, f, r)

    def test_failing_reduction_identical(self):
        rng = random.Random(200)
        for _ in range(300):
            n = rng.randrange(1, 7)
            masks = random_masks(rng, n, rng.choice([0.3, 0.6, 0.9]))
            f = rng.randrange(0, 3)
            mss = rng.choice([1, f + 1])
            budget = rng.choice([5, 100, 10**9])
            assert pure.failing_reduction(
                n, masks, f, mss, budget
            ) == native.failing_reduction(n, masks, f, mss, budget)
