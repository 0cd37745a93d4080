"""Property suites for the distance/decomposition layer."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qpirlab.registers import RegisterLayout
from qpirlab.states import (
    DensityOperator,
    KrausChannel,
    StateVector,
    apply_channel,
    pure_density,
    reduced_density_matrix,
)
from qpirlab.linalg import (
    fidelity_matrices,
    pure_distance_amplitudes,
    schmidt_coefficients,
    schmidt_compressor,
    trace_distance_matrices,
    uhlmann_unitary,
)

from conftest import (
    identity_support,
    on_factor,
    random_density,
    random_kraus_ops,
    random_pure,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_fuchs_van_de_graaf_sandwich(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 4, 8]))
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    d = trace_distance_matrices(rho, sigma)
    f = fidelity_matrices(rho, sigma)
    assert 1.0 - f - 1e-9 <= d <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-9


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_trace_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 3, 4]))
    a, b, c = (random_density(rng, dim) for _ in range(3))
    ab = trace_distance_matrices(a, b)
    bc = trace_distance_matrices(b, c)
    ac = trace_distance_matrices(a, c)
    assert ac <= ab + bc + 1e-9
    assert abs(ab - trace_distance_matrices(b, a)) < 1e-12


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_data_processing_contracts_distance(seed):
    rng = np.random.default_rng(seed)
    din = int(rng.choice([2, 3, 4]))
    dout = int(rng.choice([2, 3]))
    num = int(rng.integers(1, 4))
    lin = RegisterLayout.of(("in", din))
    lout = RegisterLayout.of(("out", dout))
    ch = KrausChannel(lin, lout, tuple(random_kraus_ops(rng, din, dout, num)))
    rho = DensityOperator(lin, random_density(rng, din))
    sigma = DensityOperator(lin, random_density(rng, din))
    before = trace_distance_matrices(rho.matrix, sigma.matrix)
    after = trace_distance_matrices(apply_channel(ch, rho).matrix,
                                    apply_channel(ch, sigma).matrix)
    assert after <= before + 1e-9


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_schmidt_coefficients_are_the_reduced_spectrum(seed):
    # squared coefficients are the eigenvalues of either marginal, descending
    rng = np.random.default_rng(seed)
    da = int(rng.choice([2, 3, 4]))
    db = int(rng.choice([2, 3, 4]))
    lay = RegisterLayout.of(("a", da), ("b", db))
    psi = StateVector(lay, random_pure(rng, da * db))
    coeffs = schmidt_coefficients(psi, ["a"])
    assert np.all(np.diff(coeffs) <= 0.0)
    assert abs(float(np.sum(coeffs**2)) - 1.0) < 1e-9
    spectrum = np.linalg.eigvalsh(reduced_density_matrix(psi, ["a"]))[::-1]
    assert np.max(np.abs(coeffs**2 - spectrum[:len(coeffs)])) < 1e-9


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_uhlmann_achieves_reduced_state_fidelity(seed):
    # optimal purifier rotation realizes F(rho_A, sigma_A) as a pure overlap
    rng = np.random.default_rng(seed)
    da = int(rng.choice([2, 3]))
    dp = int(rng.choice([3, 4]))
    lay = RegisterLayout.of(("a", da), ("p", dp))
    phi = StateVector(lay, random_pure(rng, da * dp))
    psi = StateVector(lay, random_pure(rng, da * dp))
    u = uhlmann_unitary(phi, psi, identity_support(lay, ["p"]))
    rotated = on_factor(u.matrix, psi, ["p"])
    achieved = abs(np.vdot(on_factor(np.eye(dp), phi, ["p"]), rotated))
    f = fidelity_matrices(reduced_density_matrix(phi, ["a"]),
                          reduced_density_matrix(psi, ["a"]))
    assert abs(achieved - f) < 1e-8


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_thin_uhlmann_on_the_compressed_support_achieves_fidelity(seed):
    # psi = (1 x E)|c> with E from the Schmidt compressor: the d_p x r
    # decoder X realizes F(rho_A, sigma_A) as |<phi|(1 x X)|c>|
    rng = np.random.default_rng(seed)
    da = int(rng.choice([2, 3, 4]))
    dp = int(rng.choice([3, 4, 5]))
    rank = int(rng.integers(1, min(da, dp - 1) + 1))
    lay = RegisterLayout.of(("a", da), ("p", dp))
    phi = StateVector(lay, random_pure(rng, da * dp))
    g = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
         for shape in ((da, rank), (rank, dp))]
    m = g[0] @ g[1]
    psi = StateVector(lay, (m / np.linalg.norm(m)).reshape(-1))
    e = schmidt_compressor(psi, ["p"])
    assert e.input_layout.total_dim == rank
    x = uhlmann_unitary(phi, psi, e)
    assert x.matrix.shape == (dp, rank)
    rotated = on_factor(x.matrix @ e.matrix.conj().T, psi, ["p"])
    achieved = abs(np.vdot(on_factor(np.eye(dp), phi, ["p"]), rotated))
    f = fidelity_matrices(reduced_density_matrix(phi, ["a"]),
                          reduced_density_matrix(psi, ["a"]))
    assert abs(achieved - f) < 1e-8


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_pure_distance_agrees_with_density_distance(seed):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout.of(("a", 5))
    phi = StateVector(lay, random_pure(rng, 5))
    psi = StateVector(lay, random_pure(rng, 5))
    dense = trace_distance_matrices(pure_density(phi).matrix, pure_density(psi).matrix)
    assert abs(pure_distance_amplitudes(phi.amplitudes, psi.amplitudes) - dense) < 1e-9
