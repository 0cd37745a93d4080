"""Shared generators and independent oracles for the test suite."""

import numpy as np
import pytest

from qpirlab.linalg import haar_unitary_matrix
from qpirlab.states import Isometry


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None):
    """Wishart-style random density matrix of the given rank."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def identity_support(layout, labels) -> Isometry:
    """Identity on the `labels` factor: the Uhlmann support that yields the
    full purifier unitary."""
    sub = layout.sub(labels)
    return Isometry(sub, sub, np.eye(sub.total_dim))


def random_kraus_ops(rng: np.random.Generator, din: int, dout: int, num: int):
    """Trace-preserving Kraus set sliced out of a Haar isometry."""
    num = max(num, -(-din // dout))  # need dout*num >= din
    u = haar_unitary_matrix(dout * num, rng)[:, :din]
    return [u[j * dout:(j + 1) * dout, :] for j in range(num)]


def bloch_grid_success(rho0: np.ndarray, rho1: np.ndarray,
                       grid: int = 100) -> float:
    """Brute-force best success probability over projective qubit
    measurements on a grid of 'grid**2' Bloch-sphere directions, priors 1/2.

    Swapped outcome assignments are covered because the grid contains every
    direction's antipode.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)], axis=-1)

    def expect(rho):
        return np.einsum("ijk,kl,ijl->ij", vecs.conj(), rho, vecs).real

    success = 0.5 * expect(rho0) + 0.5 * (1.0 - expect(rho1))
    return float(success.max())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
