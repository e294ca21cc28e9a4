"""Counter-based 64-bit random generator.

All randomness in the package flows through this module so that reports are
bit-reproducible across platforms, thread counts and re-runs.  The generator
is counter based: output k of stream ``key`` is a pure function of
``(key, k)``, so any draw can be recomputed in isolation and prefixes of a
stream never depend on how much of the stream was consumed elsewhere.

The algorithm, written out (all arithmetic modulo 2**64):

    GAMMA = 0x9E3779B97F4A7C15

    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4B5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    output(key, k)   = mix64(key + (k + 1) * GAMMA)
    substream(key, i) = mix64(key ^ mix64((i + 1) * GAMMA))

``output`` is the SplitMix64 sequence for seed ``key``; ``substream``
derives the key of child stream i (used to give every sampled atom its own
stream).  Uniform doubles in [0, 1) take the top 53 bits:
``(output >> 11) * 2.0**-53``.  Normal deviates use the Box-Muller
transform on two consecutive uniforms, with the first uniform remapped away
from zero via u -> 1 - u.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4B5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def mix64(z):
    """SplitMix64 finalizer; accepts scalar or array uint64."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound is the whole point
        z = (z ^ (z >> _U64(30))) * _M1
        z = (z ^ (z >> _U64(27))) * _M2
        return z ^ (z >> _U64(31))


def substream(key: int, index: int) -> int:
    """Key of child stream ``index`` under master ``key``."""
    k = np.uint64(key)
    i = np.uint64(int(index) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return int(mix64(k ^ mix64((i + _U64(1)) * _GAMMA)))


class CounterRNG:
    """Sequential view of one SplitMix64 stream.

    Draws advance an internal counter; ``jump`` to any counter is allowed
    because outputs depend only on (key, counter).
    """

    def __init__(self, key: int, counter: int = 0):
        self.key = np.uint64(key)
        self.counter = int(counter)

    def spawn(self, index: int) -> "CounterRNG":
        """Independent child stream; stable under parent consumption."""
        return CounterRNG(substream(int(self.key), index))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 outputs."""
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return mix64(self.key + ks * _GAMMA)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform doubles in [low, high) from the top 53 bits."""
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return low + (high - low) * u

    def normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs).reshape(pairs, 2)
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
