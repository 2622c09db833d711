"""Block index streams against numpy's own generator, bit for bit.

``_index_block`` draws the streams of a whole block of runs at once by
redoing numpy's SeedSequence pool mixing, Philox4x64-10 and Lemire's bounded
integers on arrays.  Every row must equal ``index_stream((base_seed, r), p,
n_iters)`` exactly, and the runs the array form cannot reproduce must be
drawn by ``index_stream`` itself.  These tests run at both ends of the
supported numpy range, so a change in numpy's algorithms fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shbreg import index_stream, solvers
from shbreg.solvers import _index_block, _philox_keys, _philox_words


def stacked_streams(base_seed, lo, hi, p, n_iters):
    rows = [index_stream((base_seed, r), p, n_iters) for r in range(lo, hi)]
    return np.array(rows, dtype=np.intp).reshape(hi - lo, n_iters)


def raw_words(base_seed, r, size):
    """The first ``size`` 32-bit outputs of the run's Philox, low half of
    each 64-bit output first, straight from numpy."""
    raw = np.random.Philox(np.random.SeedSequence((base_seed, r))).random_raw(-(-size // 2))
    return np.column_stack([raw & 0xFFFFFFFF, raw >> 32]).ravel()[:size]


def rejected(base_seed, r, p, n_iters):
    """Whether numpy's Lemire rule discards one of the run's first words."""
    words = raw_words(base_seed, r, n_iters).astype(object)
    return any((u * p) % 2**32 < (2**32 - p) % p for u in words)


@pytest.fixture
def stream_calls(monkeypatch):
    """Seeds ``_index_block`` hands to ``index_stream``, its exact fallback."""
    calls = []

    def counting(seed, p, size):
        calls.append(seed)
        return index_stream(seed, p, size)

    monkeypatch.setattr(solvers, "index_stream", counting)
    return calls


seeds = st.one_of(st.integers(0, 2**32), st.integers(0, 2**130))
starts = st.one_of(st.integers(0, 100), st.integers(2**32 - 6, 2**32 + 2))
row_counts = st.one_of(st.just(1), st.integers(2, 500), st.integers(501, 2**32),
                       st.just(3 * 2**30), st.integers(2**32 + 1, 2**40))


@settings(max_examples=300, deadline=None)
@given(base_seed=seeds, lo=starts, runs=st.integers(0, 8), p=row_counts,
       n_iters=st.sampled_from([0, 1, 7, 8, 9, 33]))
def test_block_rows_are_index_streams(base_seed, lo, runs, p, n_iters):
    block = _index_block(base_seed, lo, lo + runs, p, n_iters)
    assert block.dtype == np.intp
    assert np.array_equal(block, stacked_streams(base_seed, lo, lo + runs, p, n_iters))


@settings(max_examples=100, deadline=None)
@given(base_seed=seeds, lo=st.integers(0, 2**32 - 8), size=st.integers(0, 40))
def test_keys_and_words_match_numpy(base_seed, lo, size):
    runs = range(lo, lo + 8)
    n_words = max(1, -(-base_seed.bit_length() // 32))
    words = [base_seed >> (32 * k) & 0xFFFFFFFF for k in range(n_words)]
    entropy = np.array([[*words, r] for r in runs], dtype=np.uint32)
    keys = np.column_stack(_philox_keys(entropy))
    expected = [np.random.SeedSequence((base_seed, r)).generate_state(2, np.uint64) for r in runs]
    assert np.array_equal(keys, expected)
    assert np.array_equal(_philox_words(keys[:, 0], keys[:, 1], size),
                          [raw_words(base_seed, r, size) for r in runs])


def test_small_row_counts_never_fall_back(stream_calls):
    for p in (1, 3, 200):
        block = _index_block(17, 0, 500, p, 9)
        assert np.array_equal(block, stacked_streams(17, 0, 500, p, 9))
    assert stream_calls == []


def test_rejected_runs_are_redrawn_by_index_stream(stream_calls):
    # p = 3 * 2**30 rejects a quarter of the words: of 8 words a run keeps
    # all of them about one time in ten
    p, n_iters = 3 * 2**30, 8
    block = _index_block(5, 0, 60, p, n_iters)
    assert np.array_equal(block, stacked_streams(5, 0, 60, p, n_iters))
    expected = [(5, r) for r in range(60) if rejected(5, r, p, n_iters)]
    assert 0 < len(expected) < 60
    assert stream_calls == expected


def test_runs_past_two_to_the_32_are_redrawn(stream_calls):
    lo = 2**32 - 3
    block = _index_block(9, lo, lo + 6, 7, 5)
    assert np.array_equal(block, stacked_streams(9, lo, lo + 6, 7, 5))
    assert stream_calls == [(9, r) for r in range(2**32, lo + 6)]


def test_wide_row_counts_use_index_stream(stream_calls):
    p = 2**32 + 3
    block = _index_block(2, 4, 10, p, 7)
    assert np.array_equal(block, stacked_streams(2, 4, 10, p, 7))
    assert stream_calls == [(2, r) for r in range(4, 10)]
