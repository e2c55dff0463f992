import numpy as np

from flatlab.rng import SeededRng


def test_same_key_same_draws():
    a = SeededRng(42).generator().uniform(size=10)
    b = SeededRng(42).generator().uniform(size=10)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = SeededRng(42, 0).generator().uniform(size=10)
    b = SeededRng(42, 1).generator().uniform(size=10)
    assert not np.array_equal(a, b)


def test_seeds_differ():
    a = SeededRng(1).generator().uniform(size=10)
    b = SeededRng(2).generator().uniform(size=10)
    assert not np.array_equal(a, b)


def test_negative_seed_is_usable():
    gen = SeededRng(-3).generator()
    values = gen.uniform(size=5)
    assert np.all(np.isfinite(values))
