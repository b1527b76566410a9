import numpy as np
import pytest

from zigzag_pca.core_types import FiniteAlphabet, TransitionTensor, normalize_rows


def three_letter_tensor() -> TransitionTensor:
    """Three-letter chain with an absorbing letter 0 and a positive block on
    {1, 2}; the standard worked example for the finite pipeline."""
    t = np.zeros((3, 3, 3))
    for i in range(3):
        t[0, i, i] = 1.0
        t[i, 0, i] = 1.0
    t[1, 1, 1] = t[1, 1, 2] = t[2, 2, 1] = t[2, 2, 2] = 0.5
    t[1, 2, 1] = t[2, 1, 2] = 0.8
    t[1, 2, 2] = t[2, 1, 1] = 0.2
    return TransitionTensor(FiniteAlphabet(3, ("0", "1", "2")), t)


@pytest.fixture(scope="session")
def full_tensor():
    return three_letter_tensor()


@pytest.fixture(scope="session")
def two_letter(full_tensor):
    """The positive {1, 2} block, reindexed to {0, 1}."""
    return full_tensor.restrict([1, 2])


def corpus_seeds(total: int = 200):
    """(kind, kappa, seed) triples: half factorizable, half generic."""
    out = []
    for i in range(total // 2):
        out.append(("factorized", 2 + i % 2, 1000 + i))
    for i in range(total - total // 2):
        out.append(("random", 2 + i % 2, 2000 + i))
    return out


def _power_iterate(matrix, start, tol=1e-12, max_iter=100_000):
    """Plain power iteration v <- M v / sum(M v) from ``start``, to residual
    max |M v - lambda v| <= tol."""
    v = start / start.sum()
    for _ in range(max_iter):
        w = matrix @ v
        lam = w.sum()
        resid = np.abs(w - lam * v).max()
        v = w / lam
        if resid <= tol:
            return v
    raise AssertionError(f"power iteration did not converge (residual {resid:.3e})")


def iterated_nu_eta(tensor, triple, start):
    """nu and eta by power iteration from ``start``: the oracle for the
    direct solves in finite_solver.  M1[a, x] = t[x, x, a], then
    M2[a, x] = nu[a] t[a, a, c0] / t[a, x, c0] with the iterated nu."""
    k = tensor.size
    t, c0 = tensor.t, triple.c0
    nu = _power_iterate(t[np.arange(k), np.arange(k), :].T, start)
    m2 = (nu * t[np.arange(k), np.arange(k), c0])[:, None] / t[:, :, c0]
    return nu, _power_iterate(m2, start)


def near_identity_tensor(kappa, eps, seed=5):
    """Factorizable kernel of the chain d = u = (1 - eps) I + eps M, with M a
    random positive stochastic matrix from ``default_rng(seed)``: for small
    eps its diagonal chain t(x, x; .) is nearly reducible.  Returns (tensor, d)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.05, size=(kappa, kappa))
    m /= m.sum(axis=1, keepdims=True)
    d = (1 - eps) * np.eye(kappa) + eps * m
    t = d[:, None, :] * d.T[None, :, :] / (d @ d)[:, :, None]
    return TransitionTensor(FiniteAlphabet(kappa), normalize_rows(t)[0]), d
