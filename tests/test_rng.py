"""SplitMix64 block draws against the scalar stream."""

import numpy as np
import pytest

from prodgraph.rng import SplitMix64

SEEDS = (0, 1, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", (0, 1, 1000))
def test_uniform_array_matches_scalar_stream(seed, size):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    bound = 1.0 / np.sqrt(7)
    got = block.uniform_array(-bound, bound, size)
    want = np.array([scalar.uniform(-bound, bound) for _ in range(size)], dtype=np.float64)
    assert got.dtype == np.float64
    assert got.shape == (size,)
    assert got.tobytes() == want.tobytes()
    # the block leaves the state where the scalar draws would
    assert block.next_u64() == scalar.next_u64()


def test_uniform_array_rejects_negative_size():
    with pytest.raises(ValueError):
        SplitMix64(0).uniform_array(0.0, 1.0, -1)
