"""`dos` CSV rows: the vectorised weight column against Python's own "%.17g"."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from llspec.anderson import EmpiricalIDS
from llspec.cli import _ROWS_PER_CHUNK, _dos_rows, _weight_lines


def _reference(values, counts):
    """The rows as a plain loop writes them: row k of N gets "%.17g" % (k / N)."""
    total = sum(counts)
    rows = []
    for value, end in zip(values, np.cumsum(counts).tolist()):
        rows += ["%s,%.17g\n" % (format(value, ".17g"), k / total)
                 for k in range(len(rows) + 1, end + 1)]
    return "".join(rows)


def _ids(values, counts):
    return EmpiricalIDS(np.array(values, float), np.array(counts, np.int64))


def _assert_weights_match(weights):
    """`_weight_lines` of ascending doubles against one "%.17g" per double."""
    weights = np.asarray(weights, float)
    got = _weight_lines(["-7.25"], np.zeros(len(weights), np.int64), weights)
    assert got == "".join("-7.25,%.17g\n" % w for w in weights.tolist())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**53), st.floats(0.0, 1.0))
def test_weights_of_rows_k_over_n_match_python(total, where):
    k = max(1, math.floor(where * total))
    _assert_weights_match([j / total for j in range(k, min(k + 64, total) + 1)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_weights_of_any_doubles_match_python(weights):
    _assert_weights_match(sorted(weights))


def test_every_row_matches_python():
    for total in (1, 2, 3, 7, 10**4, 10**6, 2**20 + 1):
        ids = _ids([0.5], [total])
        assert "".join(_dos_rows(ids)) == _reference([0.5], [total]), total


def test_weights_at_and_around_decimal_powers():
    # k / 10^6 at 10^-4 .. 10^-1: where the zeros after the point change
    _assert_weights_match(np.array([100, 1000, 10**4, 10**5]) / 10**6)
    # the 40 doubles on each side of 10^-4 .. 10^-1 and of 1
    for power in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        bits = np.array([power]).view(np.int64) + np.arange(-40, 41)
        _assert_weights_match(bits.view(np.float64))


def test_weights_halfway_between_decimals_round_to_even():
    # odd k over 2^(p+1) in [10^(16-p), 10^(17-p)) is 17 digits and a half
    for p in range(17, 21):
        total = 2 ** (p + 1)
        lo, hi = math.ceil(total * 10.0 ** (16 - p)), math.floor(total * 10.0 ** (17 - p))
        ks = np.arange(lo | 1, hi, 2)
        _assert_weights_match(np.concatenate([ks[:500], ks[-500:]]) / total)


_RUNS = ([-2.5, -0.0, 1e-20, 3.0000000000000004],
         [_ROWS_PER_CHUNK - 1, 2, _ROWS_PER_CHUNK + 7, 5])


def test_runs_crossing_chunk_edges_match_python():
    assert "".join(_dos_rows(_ids(*_RUNS))) == _reference(*_RUNS)


def test_chunks_hold_a_bounded_number_of_lines():
    chunks = list(_dos_rows(_ids(*_RUNS)))
    assert len(chunks) == math.ceil(sum(_RUNS[1]) / _ROWS_PER_CHUNK)
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert max(chunk.count("\n") for chunk in chunks) == _ROWS_PER_CHUNK
