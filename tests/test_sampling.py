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


# 10**6 draws on each range: the searches' default and the norm_estimate starts'.
RANGES = [(1e-3, 1e3), (0.1, 10.0)]
DRAWS = 10**6


@pytest.mark.parametrize("lo, hi", RANGES)
def test_log_uniform_is_ten_to_a_uniform_exponent(lo, hi):
    ours, oracle = np.random.default_rng(11), np.random.default_rng(11)
    got = sampling.log_uniform(ours, DRAWS, lo, hi)
    want = 10.0 ** oracle.uniform(np.log10(lo), np.log10(hi), DRAWS)
    assert np.max(np.abs(got - want) / want) <= 4e-15
    assert ours.bit_generator.state == oracle.bit_generator.state  # one PCG64 word per value


class _Extremes:
    """A generator stand-in whose random() gives the smallest and the largest double it can."""

    def random(self, out):
        out[...] = [0.0, 1.0 - 2.0**-53]
        return out


@pytest.mark.parametrize("lo, hi", RANGES)
def test_log_uniform_stays_in_its_range_up_to_two_ulps(lo, hi):
    below, above = lo - 2 * np.spacing(lo), hi + 2 * np.spacing(hi)
    drawn = sampling.log_uniform(np.random.default_rng(12), DRAWS, lo, hi)
    ends = sampling._log_uniform_into(_Extremes(), np.empty(2), lo, hi)
    for values in (drawn, ends):
        assert np.all((below <= values) & (values <= above))

