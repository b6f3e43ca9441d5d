import numpy as np
import pytest

from conftest import random_density, random_unitary
from ctcsim.deutsch import FixedPointResult, swap_then_control
from ctcsim.distinguisher import UnitaryFamily, validate_state_set
from ctcsim.infotheory import Ensemble
from ctcsim.protocols import bb84_protocol
from ctcsim.qlinalg import (
    H,
    X,
    DensityMatrix,
    PureState,
    basis_ket,
    eig_hermitian,
    identity,
    is_hermitian,
    is_unitary,
    minus_ket,
    partial_trace,
    plus_ket,
    swap_gate,
    tensor,
    trace_distance,
)


class TestTensor:
    def test_identity_factors(self):
        np.testing.assert_array_equal(tensor(identity(2), identity(2)), identity(4))

    def test_basis_projectors(self):
        p0 = np.outer(basis_ket(2, 0), basis_ket(2, 0))
        p1 = np.outer(basis_ket(2, 1), basis_ket(2, 1))
        result = tensor(p0, p1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0  # big-endian: |01> is index 1
        np.testing.assert_array_equal(result, expected)

    def test_xx_flips_both_qubits(self):
        ket10 = np.kron(basis_ket(2, 1), basis_ket(2, 0))
        ket01 = np.kron(basis_ket(2, 0), basis_ket(2, 1))
        np.testing.assert_allclose(tensor(X, X) @ ket10, ket01, atol=1e-15)

    def test_associative_exact_for_integer_entries(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        c = np.array([[2, 0], [0, 5]], dtype=complex)
        np.testing.assert_array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            tensor(bad, identity(2))


class TestPartialTrace:
    def test_product_state(self):
        rho = np.outer(np.kron(basis_ket(2, 0), basis_ket(2, 0)),
                       np.kron(basis_ket(2, 0), basis_ket(2, 0)))
        reduced = partial_trace(rho, (2, 2), keep=0)
        np.testing.assert_allclose(reduced, np.outer(basis_ket(2, 0), basis_ket(2, 0)))

    def test_maximally_entangled_reduction(self):
        phi = (np.kron(basis_ket(2, 0), basis_ket(2, 0))
               + np.kron(basis_ket(2, 1), basis_ket(2, 1))) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), keep=1), identity(2) / 2, atol=1e-15)

    def test_factorization(self, rng):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 4) * 0.7  # arbitrary scale
        joint = np.kron(rho, sigma)
        np.testing.assert_allclose(
            partial_trace(joint, (3, 4), keep=0), rho * np.trace(sigma), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(joint, (3, 4), keep=1), sigma * np.trace(rho), atol=1e-12
        )

    def test_preserves_trace(self, rng):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        for keep in (0, 1):
            np.testing.assert_allclose(
                np.trace(partial_trace(m, (3, 4), keep)), np.trace(m), atol=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(identity(6), (2, 2), keep=0)


class TestEigHermitian:
    def test_maximally_mixed(self):
        values, _ = eig_hermitian(identity(2) / 2)
        np.testing.assert_allclose(values, [0.5, 0.5])

    def test_pure_projector(self):
        plus = plus_ket()
        values, _ = eig_hermitian(np.outer(plus, plus.conj()))
        np.testing.assert_allclose(values, [0.0, 1.0], atol=1e-15)

    def test_two_state_mixture_closed_form(self):
        # eigenvalues of (|a><a| + |b><b|)/2 are (1 +- |<a|b>|)/2
        zero = basis_ket(2, 0)
        plus = plus_ket()
        rho = (np.outer(zero, zero.conj()) + np.outer(plus, plus.conj())) / 2
        overlap = abs(zero.conj() @ plus)
        expected = np.array([(1 - overlap) / 2, (1 + overlap) / 2])
        values, _ = eig_hermitian(rho)
        np.testing.assert_allclose(values, expected, atol=1e-12)
        np.testing.assert_allclose(expected, [(1 - 1 / np.sqrt(2)) / 2, (1 + 1 / np.sqrt(2)) / 2])

    def test_reconstruction_and_unitarity(self, rng):
        for dim in (2, 5, 9):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (g + g.conj().T) / 2
            values, vectors = eig_hermitian(m)
            assert np.all(np.diff(values) >= -1e-12)
            np.testing.assert_allclose(
                vectors.conj().T @ vectors, identity(dim), atol=1e-10
            )
            np.testing.assert_allclose(
                (vectors * values) @ vectors.conj().T, m, atol=1e-9
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPredicates:
    def test_hadamard_is_unitary(self):
        assert is_unitary(H, 1e-12)

    def test_scaled_identity_is_not(self):
        assert not is_unitary(2 * identity(2), 1e-12)

    def test_swap_is_unitary(self):
        assert is_unitary(swap_gate(2), 1e-12)
        assert is_unitary(swap_gate(5), 1e-12)

    def test_hermitian_predicate(self):
        assert is_hermitian(X)
        assert not is_hermitian(np.array([[0, 1], [2, 0]], dtype=complex))


class TestSwapGate:
    def test_exchanges_kets(self):
        for d in (2, 3):
            sw = swap_gate(d)
            for i in range(d):
                for j in range(d):
                    before = np.kron(basis_ket(d, i), basis_ket(d, j))
                    after = np.kron(basis_ket(d, j), basis_ket(d, i))
                    np.testing.assert_array_equal(sw @ before, after)


class TestStates:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))
        PureState.normalized(np.array([1.0, 1.0]))  # fine

    def test_density_validation(self):
        DensityMatrix(identity(2) / 2)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(identity(2))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]], dtype=complex))

    def test_projector_roundtrip(self):
        st = PureState(minus_ket())
        rho = st.projector()
        assert rho.dim == 2
        np.testing.assert_allclose(np.trace(rho.matrix), 1.0)

    def test_states_are_immutable(self):
        st = PureState(basis_ket(2, 0))
        with pytest.raises(ValueError):
            st.vector[0] = 0.0


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = np.outer(basis_ket(2, 0), basis_ket(2, 0))
        b = np.outer(basis_ket(2, 1), basis_ket(2, 1))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_identical_states(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_unitary_invariance(self, rng):
        a, b = random_density(rng, 3), random_density(rng, 3)
        u = random_unitary(rng, 3)
        np.testing.assert_allclose(
            trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T),
            trace_distance(a, b),
            atol=1e-12,
        )


def two_state_set():
    return validate_state_set([PureState(basis_ket(2, 0)), PureState(minus_ket())])


def mixed_qubit():
    return DensityMatrix(np.eye(2) / 2)


# one factory per value type that holds arrays: each call builds a fresh
# instance, equal in value to the one before
ARRAY_HOLDERS = {
    "PureState": lambda: PureState(basis_ket(2, 0)),
    "DensityMatrix": mixed_qubit,
    "Ensemble": lambda: Ensemble(priors=(1.0,), states=(mixed_qubit(),)),
    "StateSet": two_state_set,
    "UnitaryFamily": lambda: UnitaryFamily(states=two_state_set(), unitaries=(identity(2), H)),
    "FixedPointResult": lambda: FixedPointResult(
        1, 0.0, mixed_qubit(), [np.eye(2) / np.sqrt(2)], "markov",
        swap_then_control(2, [identity(2), H]), mixed_qubit(),
    ),
    "QkdProtocol": bb84_protocol,
}


class TestArrayHolderEquality:
    @pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=list(ARRAY_HOLDERS))
    def test_equality_is_identity(self, make):
        a, b = make(), make()
        assert (a == b) is False
        assert a != b
        assert a == a
        assert len({a, b}) == 2
