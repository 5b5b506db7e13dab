"""numpy's seeded multinomial, ``np.random.default_rng(seed).multinomial(n, pvals)``, in pure Python.

The draw is numpy's bit for bit: the seed goes through ``SeedSequence``
into a PCG64 generator (O'Neill 2014: a 128-bit LCG, XSL-RR output taken
after each step), and the counts come from numpy's ``random_multinomial``,
one binomial per cell on the conditional probability of that cell.  Each
binomial is drawn by inversion when n p <= 30 and otherwise by BTPE
(Kachitvichyanukul and Schmeiser, CACM 31(2), 1988), as numpy's C does.

Where numpy's compiled C and Python's ``math`` differ, this follows the C:
integer arithmetic wraps in int64, a double cast to int64 that is NaN or
out of range gives INT64_MIN (x86-64's cvttsd2si), and log, sqrt and exp
return -inf, NaN or inf where ``math`` raises.  Such values arise when
rounding drives a later cell's conditional p to 1 or above.  Checked
against numpy 2.4.6 (tests/test_sampler.py); numpy may change its
distribution algorithms between feature releases (NEP 19), this copy does
not change with it.
"""
from __future__ import annotations

import math

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_INT64_MIN, _TWO63 = -(1 << 63), 2.0**63


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the pool of four words, then eight output words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """numpy's ``PCG64(seed)``, for the one method a binomial draws with."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self.state = (self.inc + (s_hi << 64 | s_lo)) * _PCG_MULTIPLIER + self.inc & _M128

    def next_double(self) -> float:
        """A double in [0, 1) from the top 53 bits of the next 64-bit output."""
        self.state = self.state * _PCG_MULTIPLIER + self.inc & _M128
        word, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (((word >> rot | word << (64 - rot)) & _M64) >> 11) * 2.0**-53


def _int64(x: float, cast=int) -> int:
    """C's ``(int64_t)x``, or ``(int64_t)floor(x)`` with ``cast=math.floor``: INT64_MIN if out of range or NaN."""
    return cast(x) if -_TWO63 <= x < _TWO63 else _INT64_MIN


def _wrap(k: int) -> int:
    """k reduced to int64, as C's wrapping arithmetic leaves it."""
    return (k + (1 << 63) & _M64) - (1 << 63)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _inversion(rng: _PCG64, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion``: walk the cdf from 0 and restart past the bound."""
    q, nd = 1.0 - p, float(n)
    qn = _exp(nd * math.log1p(-p))
    np_ = nd * p
    bound = np_ + 10.0 * _sqrt(np_ * q + 1.0)
    bound = _int64(nd if nd < bound else bound)  # MIN(n, bound) compares and yields doubles
    x, px, u = 0, qn, rng.next_double()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, rng.next_double()
        else:
            u -= px
            px = (n - x + 1) * p * px / (x * q)
    return x


def _btpe(rng: _PCG64, n: int, p: float) -> int:
    """numpy's ``random_binomial_btpe``; the step numbers are the paper's."""
    r = p if p < 1.0 - p else 1.0 - p
    q = 1.0 - r
    fm = n * r + r
    m = _int64(fm, math.floor)
    nrq = n * r * q
    p1 = math.floor(2.195 * _sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    while True:
        u = rng.next_double() * p4  # step 10
        v = rng.next_double()
        if not u > p1:
            y = _int64(xm - p1 * v + u, math.floor)
            break
        if not u > p2:  # step 20: the parallelogram
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = _int64(x, math.floor)
        elif not u > p3:  # step 30: the left tail
            y = _int64(xl + _log(v) / laml, math.floor)
            if y < 0 or v == 0.0:
                continue
            v = v * (u - p2) * laml
        else:  # step 40: the right tail
            y = _int64(xr - _log(v) / lamr, math.floor)
            if y > n or v == 0.0:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # step 50
        if k <= 20 or not float(k) < nrq / 2.0 - 1:
            s = r / q
            a = s * _wrap(n + 1)
            f = 1.0
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v > f:
                continue
            break
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)  # step 52
        t = _wrap(-k * k) / (2 * nrq)
        log_v = _log(v)
        if log_v < t - rho:
            break
        if log_v > t + rho:
            continue
        x1, f1 = y + 1.0, m + 1.0
        z, w = float(n) + 1.0 - m, float(n) - y + 1.0
        if log_v > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                    + (y - m) * math.log(w * r / (x1 * q))
                    + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w)):
            continue
        break
    return n - y if p > 0.5 else y  # step 60


def _stirling(x: float) -> float:
    """The Stirling-series correction term of step 52, with numpy's constants (13680, not 13860)."""
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def _binomial(rng: _PCG64, n: int, p: float) -> int:
    """numpy's ``random_binomial``: inversion or BTPE on min(p, 1 - p)."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(rng, n, p) if p * n <= 30.0 else _btpe(rng, n, p)
    q = 1.0 - p
    return _wrap(n - (_inversion(rng, n, q) if q * n <= 30.0 else _btpe(rng, n, q)))


def multinomial(seed: int, n: int, pvals: list[float]) -> list[int]:
    """``np.random.default_rng(seed).multinomial(n, pvals)`` as a list, with numpy's argument checks.

    n must be an int64, and seed a non-negative int; pvals is a non-empty list of floats.
    """
    if not all(0.0 <= p <= 1.0 for p in pvals):
        raise ValueError("pvals < 0, pvals > 1 or pvals contains NaNs")
    total, carry = pvals[0], 0.0  # numpy's Kahan sum of pvals[:-1]
    for p in pvals[1:-1]:
        y = p - carry
        t = total + y
        carry, total = (t - total) - y, t
    if total > 1.0 + 1e-12:
        raise ValueError("sum(pvals[:-1]) > 1.0")
    if n < 0:
        raise ValueError("n < 0")
    if n >= 1 << 63:
        raise OverflowError("n must be below 2**63")
    rng, counts = _PCG64(seed), [0] * len(pvals)
    remaining = 1.0
    for j, p in enumerate(pvals[:-1]):
        counts[j] = _binomial(rng, n, p / remaining)
        n = _wrap(n - counts[j])
        if n <= 0:
            return counts
        remaining -= p
    counts[-1] = n
    return counts
