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
(CounterRNG.spawn) derives the key of child stream i, which gives every
sampled atom and every battery test function its own stream.  Uniform
doubles in [0, 1) take the top 53 bits: ``(output >> 11) * 2.0**-53``.
Normal deviates use the Box-Muller transform on two consecutive uniforms,
with the first uniform remapped away from zero via u -> 1 - u.  A
CounterRNG may hold an array of streams, one counter each, so a sampler
draws for all its atoms at once.
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


class CounterRNG:
    """Sequential view of one SplitMix64 stream, or of an array of them.

    ``key`` is one key or an array of keys, each stream with its own
    counter.  A draw of n values, from every stream or from those that
    ``rows`` indexes, has shape key.shape + (n,) and advances only the
    streams it draws from.
    """

    def __init__(self, key, counter: int = 0):
        self.key = np.asarray(key, dtype=np.uint64)
        self.counter = np.full(self.key.shape, counter, dtype=np.uint64)

    def spawn(self, index) -> "CounterRNG":
        """Child stream ``index`` of a one-stream generator, or an array of
        children for an array of indices; stable under parent consumption."""
        i = np.asarray(index, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return CounterRNG(mix64(self.key ^ mix64((i + _U64(1)) * _GAMMA)))

    def raw(self, n: int, rows=...) -> np.ndarray:
        """Next n raw uint64 outputs of each selected stream."""
        ks = self.counter[rows][..., None] + np.arange(1, n + 1, dtype=np.uint64)
        self.counter[rows] += _U64(n)
        with np.errstate(over="ignore"):
            return mix64(self.key[rows][..., None] + ks * _GAMMA)

    def uniform(self, n: int, low=0.0, high=1.0, rows=...) -> np.ndarray:
        """n uniform doubles in [low, high) from the top 53 bits."""
        u = (self.raw(n, rows) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return low + (high - low) * u

    def normal(self, n: int, rows=...) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        u = self.uniform(2 * ((n + 1) // 2), rows=rows)
        r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
        theta = 2.0 * np.pi * u[..., 1::2]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]
