"""The seeded draws: the sign draw against numpy's own choice()."""

import numpy as np
import pytest

from oracles import signs_by_choice
from orliczlab import sampling


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 128, 2048, (3, 5)])
@pytest.mark.parametrize("seed", range(5))
def test_signs_equal_choice_in_values_and_generator_state(seed, size):
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):  # successive calls start where the last one left the stream
        got, want = sampling._signs(ours, size), signs_by_choice(oracle, size)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ours.bit_generator.state == oracle.bit_generator.state
