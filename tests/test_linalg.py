import math

import numpy as np
import pytest

from qpirlab.errors import LayoutError, SupportViolation
from qpirlab.registers import RegisterLayout
from qpirlab.states import (
    DensityOperator,
    Isometry,
    StateVector,
    matricize,
    pure_density,
    reduced_density_matrix,
)
from qpirlab.linalg import (
    binary_entropy,
    fidelity_matrices,
    haar_unitary_matrix,
    helstrom_matrices,
    marginals_in_span,
    pure_distance_amplitudes,
    schmidt_coefficients,
    schmidt_compressor,
    schmidt_rank,
    trace_distance_matrices,
    uhlmann_unitary,
)

from conftest import (
    basis,
    bloch_grid_success,
    identity_support,
    on_factor,
    purify,
    random_density,
    random_pure,
    shannon_entropy,
)

QUBIT = RegisterLayout.of(("q", 2))
KET0 = basis(QUBIT, 0)
KET1 = basis(QUBIT, 1)
PLUS = StateVector(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))


def dm(vec: StateVector) -> np.ndarray:
    return pure_density(vec).matrix


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance_matrices(dm(KET0), dm(KET0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert trace_distance_matrices(dm(KET0), dm(KET1)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_pair(self):
        # pure-state formula sqrt(1 - |<0|+>|^2) = 1/sqrt(2)
        expected = math.sqrt(1.0 - 0.5)
        assert trace_distance_matrices(dm(KET0), dm(PLUS)) == \
            pytest.approx(expected, abs=1e-9)
        assert pure_distance_amplitudes(KET0.amplitudes, PLUS.amplitudes) == \
            pytest.approx(expected, abs=1e-9)

    def test_one_mixture_summed_in_two_orders_is_at_distance_zero(self):
        """sum_k p_k |u_k><u_k| over the columns u_k of a Haar unitary, added
        up forwards and backwards: the two arrays differ by round-off, and
        the floored distance is exactly 0."""
        rng = np.random.default_rng(3)
        u = haar_unitary_matrix(8, rng)
        p = rng.dirichlet(np.ones(8))
        terms = [p[k] * np.outer(u[:, k], u[:, k].conj()) for k in range(8)]
        forwards, backwards = sum(terms), sum(terms[::-1])
        assert np.max(np.abs(forwards - backwards)) > 0.0
        assert trace_distance_matrices(forwards, backwards) == 0.0

    def test_a_distance_of_1e_10_is_kept(self):
        """Moving weight 1e-10 from one eigenvector of a rotated d=8 state to
        another is at distance 1e-10, far above the round-off floor."""
        rng = np.random.default_rng(4)
        u = haar_unitary_matrix(8, rng)
        p = rng.dirichlet(np.ones(8))
        moved = p + 1e-10 * np.eye(8)[0] - 1e-10 * np.eye(8)[1]
        a, b = ((u * w) @ u.conj().T for w in (p, moved))
        assert abs(trace_distance_matrices(a, b) - 1e-10) <= 1e-12


class TestMarginalsInSpan:
    @pytest.mark.parametrize("d, widths", [(64, (3, 2)), (6, (4, 5))],
                             ids=["narrow", "wide"])
    def test_distances_match_the_dense_marginals(self, d, widths):
        """Haar factors, each a pure state on d x k with the d rows kept:
        in their span when the columns number fewer than d, as d x d
        marginals otherwise; either way the dense distance, within 1e-12."""
        rng = np.random.default_rng(5)
        a, b = (haar_unitary_matrix(d * k, rng)[:, 0].reshape(d, k) for k in widths)
        ma, mb = marginals_in_span([a, b])
        assert ma.shape == mb.shape == (min(d, sum(widths)),) * 2
        dense = trace_distance_matrices(a @ a.conj().T, b @ b.conj().T)
        assert dense > 0.1
        assert abs(trace_distance_matrices(ma, mb) - dense) <= 1e-12

    @pytest.mark.parametrize("d, k", [(64, 3), (6, 4)], ids=["narrow", "wide"])
    def test_equal_factors_are_at_distance_exactly_zero(self, d, k):
        rng = np.random.default_rng(6)
        a = haar_unitary_matrix(d * k, rng)[:, 0].reshape(d, k)
        ma, mb = marginals_in_span([a, a.copy()])
        assert np.array_equal(ma, mb)
        assert trace_distance_matrices(ma, mb) == 0.0


class TestFidelity:
    def test_equal_states(self):
        rho = np.diag([0.25, 0.75])
        assert fidelity_matrices(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_overlap(self):
        assert fidelity_matrices(dm(KET0), dm(PLUS)) == \
            pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_mixed_vs_pure_oracle(self):
        # direct evaluation of || (I/2)^{1/2} |0><0| ||_1 via singular values
        half = np.eye(2) / 2
        root = np.diag(np.sqrt(np.diag(half)))
        expected = float(np.sum(np.linalg.svd(root @ np.diag([1.0, 0.0]),
                                              compute_uv=False)))
        assert expected == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        got = fidelity_matrices(half, dm(KET0))
        assert got == pytest.approx(expected, abs=1e-9)


class TestPurify:
    """The test-side purification oracle."""

    def test_pure_state_purifies_to_product(self):
        out = purify(pure_density(KET0), "p")
        assert out.layout.labels() == ("q", "p")
        marginal = reduced_density_matrix(out, ["q"])
        assert np.allclose(marginal, np.diag([1.0, 0.0]), atol=1e-9)

    def test_maximally_mixed_purifies_to_bell_like(self):
        out = purify(DensityOperator(QUBIT, np.eye(2) / 2), "p")
        marginal = reduced_density_matrix(out, ["q"])
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-9)
        # purifier marginal is maximally mixed too
        assert np.allclose(reduced_density_matrix(out, ["p"]), np.eye(2) / 2,
                           atol=1e-9)

    def test_round_trip_on_random_state(self, rng):
        lay = RegisterLayout.of(("m", 5))
        rho = DensityOperator(lay, random_density(rng, 5))
        out = purify(rho, "env")
        back = reduced_density_matrix(out, ["m"])
        assert np.max(np.abs(back - rho.matrix)) < 1e-8

    def test_label_clash_rejected(self):
        with pytest.raises(LayoutError):
            purify(pure_density(KET0), "q")


class TestSchmidt:
    def test_bell_state(self):
        bell = StateVector(RegisterLayout.of(("a", 2), ("b", 2)),
                           np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        assert schmidt_rank(bell, ["a"]) == 2
        assert np.allclose(schmidt_coefficients(bell, ["a"]), [1 / math.sqrt(2)] * 2,
                           atol=1e-12)

    def test_product_state_rank_one(self):
        prod = StateVector(RegisterLayout.of(("q", 2), ("b", 3)),
                           np.kron(PLUS.amplitudes, [0.0, 0.0, 1.0]))
        assert schmidt_rank(prod, ["q"]) == 1

    @pytest.mark.parametrize("solve", [schmidt_coefficients, schmidt_rank,
                                       schmidt_compressor])
    def test_cut_must_be_proper(self, solve):
        bell = StateVector(RegisterLayout.of(("a", 2), ("b", 2)),
                           np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        with pytest.raises(LayoutError):
            solve(bell, [])
        with pytest.raises(LayoutError):
            solve(bell, ["a", "b"])


class TestSchmidtCompressor:
    def test_bell_is_incompressible(self):
        bell = StateVector(RegisterLayout.of(("a", 2), ("b", 2)),
                           np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        comp = schmidt_compressor(bell, ["a"])
        assert comp.input_layout.total_dim == 2

    def test_fixed_factor_compresses_to_one(self, rng):
        lay = RegisterLayout.of(("a", 8), ("b", 3))
        psi = StateVector(lay, np.kron(np.eye(8)[0], random_pure(rng, 3)))
        comp = schmidt_compressor(psi, ["a"])
        assert comp.input_layout.total_dim == 1

    def test_rank_three_state_in_dim_eight(self, rng):
        # build sum_i lambda_i |a_i>|b_i> with three chosen coefficients
        lams = np.array([0.8, 0.5, math.sqrt(1 - 0.8**2 - 0.5**2)])
        amps = np.zeros(8 * 4, dtype=complex)
        for i, lam in enumerate(lams):
            amps[i * 4 + i] = lam
        psi = StateVector(RegisterLayout.of(("a", 8), ("b", 4)), amps)
        comp = schmidt_compressor(psi, ["a"])
        assert comp.input_layout.total_dim == 3
        # round trip: project the cut factor onto the support and back
        proj = comp.matrix @ comp.matrix.conj().T
        t = psi.amplitudes.reshape(8, 4)
        assert np.linalg.norm(proj @ t - t) < 1e-8


class TestUhlmann:
    def test_identical_states_reach_zero_distance(self, rng):
        lay = RegisterLayout.of(("a", 3), ("p", 4))
        psi = StateVector(lay, random_pure(rng, 12))
        u = uhlmann_unitary(psi, psi, identity_support(lay, ["p"]))
        rotated = on_factor(u.matrix, psi, ["p"])
        target = on_factor(np.eye(4), psi, ["p"])
        assert pure_distance_amplitudes(target, rotated) < 1e-9

    def test_permuted_purifier_is_unwound(self, rng):
        lay = RegisterLayout.of(("a", 3), ("p", 3))
        phi = StateVector(lay, random_pure(rng, 9))
        perm = np.zeros((3, 3), dtype=complex)
        perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
        rotated = on_factor(perm, phi, ["p"])  # over (p, a)
        psi = StateVector(lay, matricize(rotated, lay.reordered(["p", "a"]),
                                         ["a", "p"]).reshape(-1))
        u = uhlmann_unitary(phi, psi, identity_support(lay, ["p"]))
        rotated = on_factor(u.matrix, psi, ["p"])
        target = on_factor(np.eye(3), phi, ["p"])
        assert pure_distance_amplitudes(target, rotated) < 1e-9

    def test_random_pairs_meet_distance_bound(self, rng):
        lay = RegisterLayout.of(("a", 4), ("p", 4))
        for _ in range(25):
            phi = StateVector(lay, random_pure(rng, 16))
            psi = StateVector(lay, random_pure(rng, 16))
            eps = trace_distance_matrices(reduced_density_matrix(phi, ["a"]),
                                          reduced_density_matrix(psi, ["a"]))
            u = uhlmann_unitary(phi, psi, identity_support(lay, ["p"]))
            rotated = on_factor(u.matrix, psi, ["p"])
            achieved = pure_distance_amplitudes(on_factor(np.eye(4), phi, ["p"]),
                                                rotated)
            assert achieved <= math.sqrt(eps * (2 - eps)) + 1e-9

    def test_support_missing_a_direction_is_rejected(self, rng):
        lay = RegisterLayout.of(("a", 3), ("p", 4))
        psi = StateVector(lay, random_pure(rng, 12))
        support = schmidt_compressor(psi, ["p"])
        assert support.input_layout.total_dim == 3
        uhlmann_unitary(psi, psi, support)
        short = Isometry(RegisterLayout.of(("p'", 2)), support.output_layout,
                         support.matrix[:, :2])
        with pytest.raises(SupportViolation):
            uhlmann_unitary(psi, psi, short)


class TestHelstrom:
    def test_identical_states_coin_flip(self):
        res = helstrom_matrices(0.5 * dm(KET0) - 0.5 * dm(KET0))
        assert res.probability == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states_certain(self):
        res = helstrom_matrices(0.5 * dm(KET0) - 0.5 * dm(KET1))
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        # outcome 0 is one orthonormal direction: the first state's
        assert res.positive.shape == (2, 1)
        assert abs(np.vdot(KET0.amplitudes, res.positive[:, 0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_vs_plus_matches_grid_oracle(self):
        res = helstrom_matrices(0.5 * dm(KET0) - 0.5 * dm(PLUS))
        closed_form = 0.5 + 0.5 / math.sqrt(2)
        assert res.probability == pytest.approx(closed_form, abs=1e-9)
        grid = bloch_grid_success(dm(KET0), dm(PLUS))
        assert res.probability == pytest.approx(grid, abs=1e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_round_off_kernel_eigenvalue_is_not_kept(self, sign):
        """gamma = |0><0|/2 - |1><1|/2 on 4 dimensions has a 2-dimensional
        kernel; a kernel eigenvalue of +-1e-17, below the floor 4 eps, leaves
        the outcome-0 space at |0> for either sign."""
        gamma = np.diag([0.5, -0.5, sign * 1e-17, 0.0]).astype(complex)
        res = helstrom_matrices(gamma)
        assert res.positive.shape == (4, 1)
        assert abs(res.positive[0, 0]) == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_binary_entropy_three_quarters(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert expected == pytest.approx(0.811278, abs=1e-6)
        assert binary_entropy(0.75) == pytest.approx(expected, abs=1e-12)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_binary_entropy_is_the_entropy_of_a_bit(self):
        for p in np.linspace(0.0, 1.0, 41):
            assert binary_entropy(p) == pytest.approx(shannon_entropy([p, 1 - p]),
                                                      abs=1e-12)

    # the Shannon entropy oracle itself
    def test_shannon_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_shannon_uniform_powers_of_two(self):
        for k in range(1, 5):
            dist = np.full(2**k, 2.0**-k)
            assert shannon_entropy(dist) == pytest.approx(k, abs=1e-12)

    def test_shannon_mixed(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)

    def test_shannon_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            shannon_entropy([-0.1, 1.1])


class TestHaar:
    @staticmethod
    def haar(dim: int, seed: int) -> np.ndarray:
        return haar_unitary_matrix(dim, np.random.default_rng(seed))

    def test_dim_one_is_a_phase(self):
        u = self.haar(1, seed=1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = self.haar(5, seed=42)
        b = self.haar(5, seed=42)
        assert np.array_equal(a, b)
        c = self.haar(5, seed=43)
        assert not np.allclose(a, c)

    def test_columns_are_unit_norm(self):
        u = self.haar(16, seed=7)
        norms = np.linalg.norm(u, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            self.haar(0, seed=1)
