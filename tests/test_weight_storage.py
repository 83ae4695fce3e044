"""Property tests of the ice-entry storage of WeightMatrix.

Every property is judged against an in-test dense N^2 x N^2 oracle indexed
[(a,b), (c,d)] row-major, built without the package's layout code.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u1bethe import weights as W
from u1bethe.errors import IndexOutOfRange, ParameterDomain

PROPS = settings(max_examples=40, deadline=None)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
values = st.builds(complex, finite, finite)


def all_keys(N):
    r = range(1, N + 1)
    return [(a, b, c, d) for a in r for b in r for c in r for d in r]


def ice_keys(N):
    return [k for k in all_keys(N) if k[0] + k[1] == k[2] + k[3]]


def slot(N, a, b, c, d):
    return (a - 1) * N + b - 1, (c - 1) * N + d - 1


@st.composite
def ice_entries(draw):
    """(N, {ice key: value}) for a random subset of the ice keys."""
    N = draw(st.integers(2, 5))
    keys = draw(st.lists(st.sampled_from(ice_keys(N)), unique=True))
    return N, {k: draw(values) for k in keys}


@PROPS
@given(ice_entries())
def test_from_entries_round_trip(case):
    N, entries = case
    w = W.WeightMatrix.from_entries(N, entries)
    oracle = np.zeros((N * N, N * N), dtype=complex)
    for key, v in entries.items():
        oracle[slot(N, *key)] = v
    for key in all_keys(N):
        assert w.entry(*key) == oracle[slot(N, *key)]
    assert np.array_equal(w.dense(), oracle)
    # items(): every ice entry once, block q = a + b - 1, then a, then c
    got = [(a, b, c, d) for a, b, c, d, _ in w.items()]
    assert got == sorted(ice_keys(N), key=lambda k: (k[0] + k[1], k[0], k[2]))
    assert all(v == oracle[slot(N, a, b, c, d)] for a, b, c, d, v in w.items())
    assert len(list(w.items())) == len(ice_keys(N))
    # a write into values after dense() must not serve a stale dense form
    if entries:
        key = next(iter(entries))
        w.values[W.ice_slot(N, *key)] = 7.5 - 1j
        oracle[slot(N, *key)] = 7.5 - 1j
        assert np.array_equal(w.dense(), oracle)


@PROPS
@given(st.integers(2, 5), st.data())
def test_non_ice_and_out_of_range_keys_rejected(N, data):
    off = [k for k in all_keys(N) if k[0] + k[1] != k[2] + k[3]]
    key = data.draw(st.sampled_from(off))
    with pytest.raises(ParameterDomain):
        W.WeightMatrix.from_entries(N, {key: 1.0})
    w = W.WeightMatrix.from_entries(N, {})
    assert w.entry(*key) == 0
    bad = list(data.draw(st.sampled_from(ice_keys(N))))
    bad[data.draw(st.integers(0, 3))] = data.draw(
        st.sampled_from([0, N + 1, -1]))
    with pytest.raises(IndexOutOfRange):
        w.entry(*bad)
    with pytest.raises(IndexOutOfRange):
        W.WeightMatrix.from_entries(N, {tuple(bad): 1.0})


@PROPS
@given(ice_entries(), st.data())
def test_from_dense_rejects_off_ice_values(case, data):
    N, entries = case
    off = [k for k in all_keys(N) if k[0] + k[1] != k[2] + k[3]]
    stray = data.draw(st.dictionaries(st.sampled_from(off),
                                      values.filter(lambda z: z != 0)))
    arr = np.zeros((N * N, N * N), dtype=complex)
    for key, v in {**entries, **stray}.items():
        arr[slot(N, *key)] = v
    # row-major order of the dense array is lexicographic in (a, b, c, d)
    assert W.check_ice_rule(arr) == [(*k, stray[k]) for k in sorted(stray)]
    if stray:
        with pytest.raises(ParameterDomain):
            W.WeightMatrix.from_dense(N, arr)
        return
    w = W.WeightMatrix.from_dense(N, arr)
    assert np.array_equal(w.dense(), arr)
    for key in all_keys(N):
        assert w.entry(*key) == arr[slot(N, *key)]


@PROPS
@given(ice_entries(), st.lists(st.tuples(values, values), min_size=1,
                               max_size=3, unique=True))
def test_table_file_round_trip_is_exact(case, points):
    N, entries = case
    records = []
    for k, (lam, mu) in enumerate(points):
        w = W.WeightMatrix.from_entries(
            N, {key: v * (k + 1) for key, v in entries.items()})
        records.append((lam, mu, w))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.tab"
        W.write_table_file(path, records)
        loaded = W.load_table_file(path)
    assert loaded.N == N
    for lam, mu, w in records:
        back = loaded.eval_r(lam, mu)
        assert np.array_equal(back.dense(), w.dense())
        assert list(back.items()) == list(w.items())
