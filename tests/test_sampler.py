"""``mobiusq._pcg64`` draws what ``np.random.default_rng(seed).multinomial`` draws, bit for bit.

The fixed vectors pin the stream whatever numpy is installed: they were
drawn by numpy 2.4.6.  The property tests compare the module with the
installed numpy over seeds up to 2**200, shot counts up to 2**63 - 1, exact
zero and tied cells, cells down to 1e-19, and cells whose running sum
reaches 1 early, so that a later cell's conditional p is 1 or above.  They
run on numpy 2.4 and later, the feature releases the module was checked
against; numpy may change its distributions in a feature release (NEP 19),
and a failure there says that it did.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusq._pcg64 import _PCG64, _binomial, multinomial

INT64_MAX = (1 << 63) - 1
# cells of a mobius3 readout, normalised as Readout.sample normalises them
READOUT = [0.7810831069946291, 0.19527077674865734, 0.011221885681152172, 0.012424230575561334]

# (seed, shots, cells, counts), the counts as numpy 2.4.6 drew them
VECTORS = [
    (0, 1, [0.25, 0.25, 0.25, 0.25], [0, 0, 0, 1]),
    (1, 20000, READOUT, [15655, 3906, 209, 230]),
    (12345, INT64_MAX, READOUT, [7204220087557603071, 1801055021660525216, 103503626984809056, 114593300651838464]),
    (2**200, INT64_MAX, [0.5, 0.5, 0.0, 0.0], [4611686018924661760, 4611686017930114047, 0, 0]),
    (7, 30, [0.0, 1.0, 0.0, 0.0], [0, 30, 0, 0]),
    (2**64 + 3, 10**6, [1e-19, 0.25, 0.75, 0.0], [0, 250035, 749965, 0]),
    (31, 100, [0.3, 0.3, 0.2, 0.2], [36, 22, 20, 22]),
    (2**100, 12, [0.0, 0.0, 0.0, 1.0], [0, 0, 0, 12]),
    (5, 2**40, [0.9999999999999999, 1.1e-16, 0.0, 0.0], [2**40, 0, 0, 0]),
    # the second cell's conditional p is (0.75 + 5e-13) / 0.75 > 1
    (99, 1000, [0.25, 0.7500000000005, 0.0, 0.5], [256, 744, 0, 0]),
    (99, INT64_MAX, [0.25, 0.7500000000005, 0.0, 0.5], [2305843009515924992, 6917529027338850815, 0, 0]),
    (3, 2**53 + 1, [0.9613189697265621, 1.8021844113822874e-33, 0.01805114746093772, 0.02062988281250025],
     [8658791512648299, 0, 162590293469602, 185817448623092]),
    # BTPE on n p near 35 and 120 at huge n: its n + 1 wraps in int64, and its z and w are sums of doubles
    (4, INT64_MAX, [3.7947076036992655e-18, 0.5, 0.25, 0.25],
     [47, 4611686017696999424, 2305843012422478848, 2305843006735297488]),
    (10, 2**60 + 12345, [1.0408340855860732e-16, 0.4999999999999999, 0.25, 0.25],
     [150, 576460751974083392, 288230376768724928, 288230375864050851]),
]

needs_checked_numpy = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.4.0", reason="the stream was checked against numpy 2.4"
)


@pytest.mark.parametrize("seed, shots, cells, counts", VECTORS)
def test_the_fixed_vectors_draw_numpy_2_4_6_counts(seed, shots, cells, counts):
    assert multinomial(seed, shots, cells) == counts


def _outcome(draw):
    """The counts a draw returns, or the type and message of what it raised."""
    try:
        return [int(k) for k in draw()]
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


_seeds = st.integers(0, 2**200)
_shots = st.one_of(st.integers(1, 100), st.integers(1, INT64_MAX), st.just(INT64_MAX))
_weights = st.one_of(st.just(0.0), st.floats(1e-19, 1e-12), st.floats(0.0, 1.0))


@st.composite
def _cells(draw) -> list[float]:
    """Normalised weights, some zero, tied or tiny; or a prefix that already reaches 1 within 1e-12."""
    weights = draw(st.lists(_weights, min_size=1, max_size=6))
    weights += draw(st.lists(st.sampled_from(weights), max_size=2))  # ties
    if sum(weights) == 0.0:
        weights[-1] = 1.0
    cells = np.array(weights)
    cells /= cells.sum()  # as Readout.sample does
    cells = cells.tolist()
    if len(cells) > 1 and draw(st.booleans()):
        j = draw(st.integers(0, len(cells) - 2))
        cells[j] = min(1.0, 1.0 - sum(cells[:j]) + draw(st.sampled_from([0.0, 1e-16, 5e-13, 1e-12])))
        cells[j + 1:-1] = [0.0] * len(cells[j + 1:-1])
    return cells


@needs_checked_numpy
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_seeds, _shots, _cells())
def test_the_sampler_draws_what_numpy_draws(seed, shots, cells):
    want = _outcome(lambda: np.random.default_rng(seed).multinomial(shots, cells))
    assert _outcome(lambda: multinomial(seed, shots, cells)) == want


@st.composite
def _n_and_p(draw) -> tuple[int, float]:
    """n and p; half the time n p is at most 200, where inversion hands over to BTPE.

    With n above 2**53 there, BTPE's doubles round n, and its int64 sums wrap at 2**63 - 1.
    """
    n = draw(st.one_of(st.integers(0, 200), st.integers(0, INT64_MAX), st.integers(2**53, INT64_MAX), st.just(INT64_MAX)))
    if n and draw(st.booleans()):
        return n, min(1.0, draw(st.floats(1.0, 200.0)) / n)
    return n, draw(st.one_of(st.floats(0.0, 1.0), st.floats(1e-19, 1e-6), st.floats(1.0 - 1e-6, 1.0)))


@needs_checked_numpy
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_seeds, _n_and_p())
def test_one_binomial_draws_what_numpy_draws(seed, n_and_p):
    n, p = n_and_p
    assert _binomial(_PCG64(seed), n, p) == np.random.default_rng(seed).binomial(n, p)


@needs_checked_numpy
@pytest.mark.parametrize(
    "shots, cells",
    [
        (-1, [0.5, 0.5]),
        (5, [0.5, 0.7, -0.1]),
        (5, [float("nan"), 0.5]),
        (5, [1.5, 0.0]),
        (5, [0.5, 0.6, 0.1]),
        (5, [0.5, 0.5 + 2e-12, 0.0]),
    ],
)
def test_the_sampler_refuses_what_numpy_refuses(shots, cells):
    want = _outcome(lambda: np.random.default_rng(0).multinomial(shots, cells))
    assert isinstance(want, tuple) and _outcome(lambda: multinomial(0, shots, cells)) == want


def test_seeds_and_shot_counts_outside_their_ranges_are_refused():
    with pytest.raises(ValueError, match="non-negative"):
        multinomial(-1, 5, [1.0])
    with pytest.raises(OverflowError):
        multinomial(0, 1 << 63, [1.0])
