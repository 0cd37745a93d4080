"""Shared generators and independent oracles for the test suite.

The density-operator reference (`density_run`, `certify_oracle`) runs a
protocol with `apply_channel` on D x D matrices, channels and all.  The
library itself only runs pure states through dilations; these oracles are
what that pure engine is checked against.
"""

import numpy as np
import pytest

from qpirlab.adversary import install
from qpirlab.linalg import haar_unitary_matrix, trace_distance_matrices
from qpirlab.registers import RegisterLayout, concat
from qpirlab.states import (
    DensityOperator,
    Isometry,
    StateVector,
    apply_channel,
    matricize,
    pure_density,
)


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


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of a probability vector; the oracle for
    `binary_entropy`."""
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("distribution must be a nonempty vector")
    if np.min(arr) < 0.0:
        raise ValueError("distribution has negative entries")
    if abs(float(np.sum(arr)) - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {float(np.sum(arr))}, not 1")
    nz = arr[arr > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def purify(rho: DensityOperator, label: str) -> StateVector:
    """sum_k sqrt(w_k) |v_k>|k> over rho's layout plus a purifier register
    `label` of full dimension; its marginal on rho's layout is rho."""
    w, v = np.linalg.eigh(rho.matrix)
    amps = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)
    lay = concat(rho.layout, RegisterLayout.of((label, rho.layout.total_dim)))
    return StateVector(lay, amps / np.linalg.norm(amps))


def basis(layout, index: int) -> StateVector:
    """Computational basis vector |index> on the whole layout."""
    return StateVector(layout, np.eye(layout.total_dim, dtype=complex)[:, index])


def on_factor(matrix: np.ndarray, state: StateVector, labels) -> np.ndarray:
    """Amplitudes of `state` with `matrix` applied to its `labels` factor,
    over (labels, rest); compare with `on_factor(identity, ...)`."""
    return (matrix @ matricize(state.amplitudes, state.layout, labels)).reshape(-1)


def reorder(rho: DensityOperator, labels) -> DensityOperator:
    """`rho` with its factors in the order `labels` (a permutation)."""
    d = rho.layout.total_dim
    t = matricize(rho.matrix, rho.layout, labels, operator=True)
    return DensityOperator(rho.layout.reordered(labels), t.reshape(d, d))


def density_marginal(rho: DensityOperator, keep) -> np.ndarray:
    """Partial trace of a density operator onto `keep`, in that order."""
    return np.einsum("iaja->ij", matricize(rho.matrix, rho.layout, keep,
                                           operator=True))


def density_run(spec, rho: DensityOperator) -> list[DensityOperator]:
    """Density-operator reference run: the state after every step, over the
    step's `order` plus the input's spectator registers."""
    spectators = rho.layout.labels()[len(spec.a_memory[0]) + len(spec.b_memory[0]):]
    states = []
    for step in spec.steps:
        rho = apply_channel(spec.ops(step.party)[step.round - 1], rho)
        rho = reorder(rho, step.order + spectators)
        states.append(rho)
    return states


def certify_oracle(spec, adv, maps, inputs) -> list[tuple[int, str, float]]:
    """(step, input id, distance) rows of the density-operator definition of
    certification, in `certify_specious` row order; `maps` are F_1..F_2s."""
    adv_spec = install(spec, adv)
    rows = []
    for input_id, psi in inputs:
        honest = density_run(spec, pure_density(psi))
        tilde = density_run(adv_spec, pure_density(psi))
        for step, op in enumerate(maps, start=1):
            want = honest[step - 1]
            got = reorder(apply_channel(op, tilde[step - 1]), want.layout.labels())
            rows.append((step, input_id,
                         trace_distance_matrices(want.matrix, got.matrix)))
    return rows


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
