"""Tests for deterministic stream derivation."""
import numpy as np
import pytest

from randpoly.rng import map_items, stream, substream


def test_same_key_same_stream():
    assert np.array_equal(stream(5, 1, 2).random(8), stream(5, 1, 2).random(8))


def test_different_keys_differ():
    a = stream(5, 1, 2).random(8)
    b = stream(5, 1, 3).random(8)
    c = stream(6, 1, 2).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_order_matters():
    assert not np.array_equal(stream(5, 1, 2).random(4),
                              stream(5, 2, 1).random(4))


def test_substream_deterministic():
    base = stream(9, 4)
    a = substream(base, 17).random(6)
    b = substream(stream(9, 4), 17).random(6)
    assert np.array_equal(a, b)


def test_substream_independent_of_consumption():
    base = stream(9, 4)
    base.random(1000)  # consuming the parent must not move children
    a = substream(base, 3).random(6)
    b = substream(stream(9, 4), 3).random(6)
    assert np.array_equal(a, b)


def test_substreams_distinct():
    base = stream(9, 4)
    assert not np.array_equal(substream(base, 0).random(6),
                              substream(base, 1).random(6))


def draw(seed, k):
    return stream(seed, k).random(3)


@pytest.mark.parametrize("n", [7, 10, 13])
def test_map_items_in_item_order_for_any_worker_count(n):
    want = np.array([draw(5, k) for k in range(n)])
    for workers in (1, 2, 3):
        assert map_items(draw, n, workers, (5,)).tobytes() == want.tobytes()
