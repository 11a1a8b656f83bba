"""Deterministic random-number streams, defined in this repository.

Every experiment derives all randomness from a single root seed, so runs
are exactly reproducible and independent streams (one per traffic source)
do not interact.  A stream is numpy's ``default_rng`` algorithm, written
out in pure Python for exactly the three draws the simulator makes:
children of a SeedSequence seed PCG64 generators (128-bit LCG, XSL-RR
output), and :class:`Generator` draws ``integers`` (Lemire's bounded
method), ``random`` (53 bits) and ``exponential`` (the 256-layer
ziggurat).  numpy guarantees no stream across its versions (NEP 19), and
importing it cost every run 0.1 s and 10-28 MiB of peak RSS;
``tests/test_rng.py`` holds every draw bit-identical to numpy, which is
only that test's oracle.
"""

from __future__ import annotations

from math import exp, log1p

from repro.sim.ziggurat import FE, KE, R, WE

DEFAULT_SEED = 0xA11_0C  # "ALLOC"; any fixed value works

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / (1 << 53)

# SeedSequence's hash constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(entropy) -> list[int]:
    """An int, or a list of ints, as little-endian 32-bit words."""
    if isinstance(entropy, list):
        return [w for part in entropy for w in _words(part)]
    if entropy < 0:
        raise ValueError(f"seed must be non-negative, got {entropy}")
    words = [entropy & _M32]
    while entropy > _M32:
        entropy >>= 32
        words.append(entropy & _M32)
    return words


def _child(run: list[int], key: int) -> Generator:
    """The PCG64 generator of SeedSequence child ``key``: ``run`` is the
    root's entropy words, zero-padded to the pool size."""
    entropy = run + _words(key)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight words, paired little-endian.
    h = _INIT_B
    words = []
    for i in range(8):
        value = pool[i & 3] ^ h
        h = h * _MULT_B & _M32
        value = value * h & _M32
        words.append(value ^ value >> 16)
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (u64[2] << 64 | u64[3]) << 1 | 1
    state = (inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc
    return Generator(state & _M128, inc & _M128)


def spawn_rngs(seed: int | None, n: int, *,
               salt: int | None = None) -> list[Generator]:
    """Spawn ``n`` independent generators from one seed (one per source):
    ``SeedSequence(seed).spawn(n)``, or ``SeedSequence([seed, salt])``'s
    children when salted."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    root = DEFAULT_SEED if seed is None else seed
    run = _words(root if salt is None else [root, salt])
    run += [0] * (4 - len(run))
    return [_child(run, key) for key in range(n)]


class Generator:
    """One PCG64 stream and the draws the simulator makes from it."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc
        #: The upper half of the last 64-bit draw a 32-bit draw split.
        self._half: int | None = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return (x << 64 | x) >> (s >> 122) & _M64  # XSL-RR

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform in ``[low, high)``, or ``[0, low)`` without ``high``."""
        if high is None:
            low, high = 0, low
        span = high - low - 1
        if span < 0:
            raise ValueError(f"empty range [{low}, {high})")
        if span == 0:
            return low
        if span <= _M32:
            draw, bits, mask = self._next32, 32, _M32
        else:
            draw, bits, mask = self._next64, 64, _M64
        if span == mask:
            return low + draw()
        n = span + 1
        m = draw() * n
        if m & mask < n:
            threshold = (mask - span) % n
            while m & mask < threshold:
                m = draw() * n
        return low + (m >> bits)

    def random(self) -> float:
        """Uniform in ``[0, 1)`` with 53 random bits."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return (((x << 64 | x) >> (s >> 122) & _M64) >> 11) * _TWO_M53

    def exponential(self, scale: float = 1.0) -> float:
        """Exponentially distributed with mean ``scale``."""
        while True:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
            r = (s >> 64 ^ s) & _M64
            r = (r << 64 | r) >> (s >> 122) & _M64
            i = r >> 3 & 0xFF
            ri = r >> 11
            x = ri * WE[i]
            if ri < KE[i]:
                return scale * x
            if i == 0:
                return scale * (R - log1p(-self.random()))
            if (FE[i - 1] - FE[i]) * self.random() + FE[i] < exp(-x):
                return scale * x
