import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatlab.rng import PURPOSES, SeededRng

_INT64 = (-2**63, 2**63 - 1)


def _key(rng: SeededRng) -> tuple[int, int]:
    """The Philox key the stream's generator runs under."""
    return tuple(int(k) for k in
                 rng.generator().bit_generator.state["state"]["key"])


def _address(seed, purpose, index) -> SeededRng:
    """A library stream, or with ``purpose`` None a caller's own id."""
    if purpose is None:
        return SeededRng(seed, index)
    return SeededRng.of(seed, purpose, index)


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


def test_seeds_outside_int64_are_refused():
    for seed in _INT64:
        SeededRng(seed).generator()
    for seed in (-2**63 - 1, 2**63, 2**64 + 5):
        with pytest.raises(ValueError, match="outside int64"):
            SeededRng(seed)
        with pytest.raises(ValueError, match="outside int64"):
            SeededRng.of(seed, "teacher")


def test_key_layout():
    # the seed word in two's complement; a purpose's tag in the top byte of
    # the stream word, its index below; a caller's id as given (tag 0)
    assert _key(SeededRng(-1, 3000)) == (2**64 - 1, 3000)
    assert _key(SeededRng.of(5, "restart", 9)) == (5, 5 << 56 | 9)
    assert PURPOSES == ("teacher", "inputs", "init", "probes", "restart",
                        "witness", "unit")
    gen = np.random.Generator(np.random.Philox(
        key=np.array([7, 3000], dtype=np.uint64)))
    assert np.array_equal(SeededRng(7, 3000).generator().random(4),
                          gen.random(4))


def test_indices_and_ids_out_of_range_are_refused():
    for index in (-1, 2**56):
        with pytest.raises(ValueError, match="index"):
            SeededRng.of(0, "restart", index)
    for stream_id in (-1, (len(PURPOSES) + 1) << 56):
        with pytest.raises(ValueError, match="no purpose"):
            SeededRng(0, stream_id)
    with pytest.raises(ValueError):
        SeededRng.of(0, "no such purpose")


def test_every_stream_of_the_first_indices_is_distinct():
    keys = set()
    for seed in (-2**63, -1, 0, 1, 2**63 - 1):
        for purpose in (None, *PURPOSES):
            for index in range(257):
                rng = _address(seed, purpose, index)
                assert (rng.stream_id >= 2**56) == (purpose is not None)
                keys.add(_key(rng))
    assert len(keys) == 5 * (1 + len(PURPOSES)) * 257


_ADDRESSES = st.tuples(st.integers(*_INT64),
                       st.sampled_from((None, *PURPOSES)),
                       st.integers(0, 2**56 - 1))


@given(first=_ADDRESSES, second=_ADDRESSES)
def test_streams_share_a_key_only_at_one_address(first, second):
    assert (_key(_address(*first)) == _key(_address(*second))) == (
        first == second)


def test_teacher_attempt_63_and_restart_9_draw_different_bits():
    # under hand-placed offsets both were stream 1009 of one unit seed
    for seed in (0, 281):
        teacher = SeededRng.of(seed, "teacher", 63).generator().random(8)
        restart = SeededRng.of(seed, "restart", 9).generator().random(8)
        assert not np.array_equal(teacher, restart)
