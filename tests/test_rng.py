"""Known answers of the counter-based generator: the documented SplitMix64
formulas written out in plain integers, and outputs pinned as literals."""

import numpy as np

from flocklab.rng import CounterRNG

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def output(key, k):
    return mix64((key + (k + 1) * GAMMA) & MASK)


def substream(key, i):
    return mix64(key ^ mix64(((i + 1) * GAMMA) & MASK))


def test_raw_outputs_of_key_zero():
    got = [int(z) for z in CounterRNG(0).raw(3)]
    assert got == [0xC329812D1D820396, 0x777A8E89A21F7D3F, 0x98422BF551912D1F]
    assert got == [output(0, k) for k in range(3)]


def test_raw_continues_the_stream():
    for key in (0, 1, 5, 2**63 + 11):
        g = CounterRNG(key)
        got = [int(z) for z in np.concatenate([g.raw(2), g.raw(3)])]
        assert got == [output(key, k) for k in range(5)]
        assert int(g.counter) == 5


def test_spawn_keys():
    keys = [int(CounterRNG(0).spawn(i).key) for i in (0, 1, 5)]
    assert keys == [0xC544055EFEC4AFFB, 0x7BBE92F7BC7A9A0B, 0x6169AC626DA1F4A9]
    assert int(CounterRNG(7).spawn(2**63 + 11).key) == 0x659312DFB6C71CB0
    for key in (0, 1, 5, 2**63 + 11):
        for i in (0, 1, 5, 2**63 + 11):
            assert int(CounterRNG(key).spawn(i).key) == substream(key, i)


def test_uniform_and_normal_of_a_child_stream():
    g = CounterRNG(0).spawn(5)
    assert g.uniform(3).tolist() == [
        0.9349197487478835, 0.1591812416439693, 0.3160166773216635,
    ]
    assert g.normal(3).tolist() == [
        0.4303988583311307, 0.337138622647482, 0.4206270384267238,
    ]
    assert int(g.counter) == 7


def test_stream_arrays_draw_as_single_streams():
    index = np.array([0, 1, 5, 2**63 + 11], dtype=np.uint64)
    many = CounterRNG(9).spawn(index)
    rows = np.array([1, 3])
    u = many.uniform(2, -1.0, 1.0, rows)
    z = many.normal(3)
    w = many.raw(1, rows)
    for j, i in enumerate(index.tolist()):
        one = CounterRNG(9).spawn(i)
        if j in rows:
            k = rows.tolist().index(j)
            assert u[k].tolist() == one.uniform(2, -1.0, 1.0).tolist()
        assert z[j].tolist() == one.normal(3).tolist()
        if j in rows:
            assert w[k].tolist() == one.raw(1).tolist()
        assert int(many.counter[j]) == int(one.counter)
