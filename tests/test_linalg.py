import numpy as np
import pytest

from flatlab.linalg import (PowerIterationResult, power_iteration,
                            require_finite, require_symmetric,
                            symmetric_eigendecomposition,
                            symmetric_eigenspectrum, symmetry_defect)
from flatlab.rng import SeededRng


def _random_symmetric(gen, n):
    a = gen.normal(size=(n, n))
    return (a + a.T) / 2.0


def _charpoly_eigenvalues_3x3(a):
    """Eigenvalues of a symmetric 3x3 by bisecting the characteristic
    polynomial, independent of any library eigensolver."""
    c2 = -np.trace(a)
    minors = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            minors += a[i, i] * a[j, j] - a[i, j] * a[j, i]
    c1 = minors
    c0 = -np.linalg.det(a)

    def p(x):
        return ((x + c2) * x + c1) * x + c0

    bound = 1.0 + np.max(np.sum(np.abs(a), axis=1))
    grid = np.linspace(-bound, bound, 20001)
    values = p(grid)
    roots = []
    for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if p(lo) * p(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots, reverse=True))


def test_eigenvalues_match_charpoly_oracle():
    gen = SeededRng(10).generator()
    for _ in range(25):
        a = _random_symmetric(gen, 3)
        expected = _charpoly_eigenvalues_3x3(a)
        if len(expected) != 3:  # clustered roots defeat the sign scan
            continue
        got = symmetric_eigenspectrum(a)
        assert np.allclose(got, expected, atol=1e-6)


def test_eigendecomposition_reconstructs():
    gen = SeededRng(11).generator()
    for n in (2, 5, 9):
        a = _random_symmetric(gen, n)
        evals, evecs = symmetric_eigendecomposition(a)
        assert np.all(np.diff(evals) <= 1e-12)  # descending
        rebuilt = evecs @ np.diag(evals) @ evecs.T
        assert np.allclose(rebuilt, a, atol=1e-10)
        assert np.allclose(evecs.T @ evecs, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 64])
def test_eigenspectrum_matches_eigendecomposition(n):
    a = _random_symmetric(SeededRng(13, n).generator(), n)
    got = symmetric_eigenspectrum(a)
    evals, _ = symmetric_eigendecomposition(a)
    assert got.shape == (n,)
    assert np.all(np.diff(got) <= 0.0)  # descending
    assert np.max(np.abs(got - evals)) <= 1e-12 * np.max(np.abs(evals))


def test_trace_and_frobenius_invariants():
    gen = SeededRng(12).generator()
    for _ in range(100):
        a = _random_symmetric(gen, int(gen.integers(2, 8)))
        evals = symmetric_eigenspectrum(a)
        assert np.isclose(np.sum(evals), np.trace(a), rtol=1e-10, atol=1e-10)
        assert np.isclose(np.sqrt(np.sum(evals**2)), np.linalg.norm(a, "fro"),
                          rtol=1e-10, atol=1e-10)


def test_power_iteration_dominant_eigenvalue():
    a = np.diag([5.0, -2.0, 1.0])
    result = power_iteration(lambda v: a @ v, 3, rng=SeededRng(1))
    assert isinstance(result, PowerIterationResult)
    assert result.converged
    assert np.isclose(result.eigenvalue, 5.0, rtol=1e-8)


def test_power_iteration_negative_dominant():
    a = np.diag([-7.0, 2.0, 1.0])
    result = power_iteration(lambda v: a @ v, 3, rng=SeededRng(2))
    assert result.converged
    assert np.isclose(abs(result.eigenvalue), 7.0, rtol=1e-8)


def test_power_iteration_zero_matrix():
    result = power_iteration(lambda v: np.zeros_like(v), 4, rng=SeededRng(3))
    assert result.converged
    assert result.eigenvalue == 0.0


def test_power_iteration_rayleigh_never_exceeds_norm():
    # the certificate property: even unconverged estimates are lower bounds
    gen = SeededRng(4).generator()
    for _ in range(20):
        a = _random_symmetric(gen, 6)
        result = power_iteration(lambda v: a @ v, 6, max_iter=3,
                                 rng=SeededRng(5))
        true = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert abs(result.eigenvalue) <= true * (1.0 + 1e-10)


def test_symmetry_checks():
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    require_symmetric(a, "a")
    assert symmetry_defect(a) == 0.0
    b = np.array([[1.0, 2.0], [2.1, 3.0]])
    with pytest.raises(ValueError, match="b"):
        require_symmetric(b, "b")


def test_require_finite():
    with pytest.raises(ValueError, match="bad"):
        require_finite(np.array([1.0, np.nan]), "bad")
