import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_state, random_density, random_unitary
import ctcsim.deutsch as deutsch
from ctcsim.deutsch import (
    DeutschInteraction,
    FixedPointSolverError,
    NonUniqueFixedPointError,
    apply_superoperator,
    cesaro_iterate,
    controlled_family,
    evolve,
    fixed_points,
    induced_map,
    nonlinearity_gap,
    output_state,
    swap_then_control,
)
from ctcsim.qlinalg import (
    H,
    X,
    DensityMatrix,
    basis_ket,
    dagger,
    identity,
    minus_ket,
    partial_trace,
    plus_ket,
    swap_gate,
    tensor,
    trace_distance,
)

KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)


def proj(v: np.ndarray) -> DensityMatrix:
    return DensityMatrix(np.outer(v, v.conj()))


@pytest.fixture(scope="module")
def two_state_circuit() -> DeutschInteraction:
    """Swap then controlled-Hadamard on a single CTC qubit."""
    return swap_then_control(2, [identity(2), H])


def random_interaction(rng, d_sys: int, d_ctc: int) -> DeutschInteraction:
    return DeutschInteraction(d_sys, d_ctc, random_unitary(rng, d_sys * d_ctc))


def kraus_superoperator(ix: DeutschInteraction, rho_in: DensityMatrix) -> np.ndarray:
    """Independent superoperator construction from Kraus operators.

    K_{a,s} = sqrt(p_s) (<a| (x) I) V (|s> (x) I) gives
    S = sum K (x) K.conj() in the row-major vec convention.
    """
    probs, vecs = np.linalg.eigh(rho_in.matrix)
    d_s, d_c = ix.d_sys, ix.d_ctc
    s = np.zeros((d_c * d_c, d_c * d_c), dtype=complex)
    for idx in range(d_s):
        if probs[idx] < 1e-15:
            continue
        inject = np.kron(vecs[:, idx].reshape(d_s, 1), identity(d_c))
        for a in range(d_s):
            extract = np.kron(basis_ket(d_s, a).conj().reshape(1, d_s), identity(d_c))
            k = np.sqrt(probs[idx]) * (extract @ ix.V @ inject)
            s += np.kron(k, k.conj())
    return s


def matrix_unit_superoperator(ix: DeutschInteraction, rho_in: DensityMatrix) -> np.ndarray:
    """Reference superoperator: the map applied to every matrix unit E_ij.

    Column i*d + j of S is vec(Tr_sys[V (rho_in (x) E_ij) V^dag]), one dense
    joint-space product per unit; ``induced_map`` must agree with it.
    """
    d = ix.d_ctc
    s = np.empty((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            joint = ix.V @ tensor(rho_in.matrix, unit) @ dagger(ix.V)
            s[:, i * d + j] = partial_trace(joint, (ix.d_sys, d), keep=1).reshape(-1)
    return s


def tail_loop_reference(ix: DeutschInteraction, rho_in: DensityMatrix, iters: int) -> np.ndarray:
    """Reference tail average: the burn-in as one matrix power, then the last
    ceil(T/2) iterates applied and summed one at a time."""
    d = ix.d_ctc
    s = induced_map(ix, rho_in)
    burn_in = iters // 2
    v = np.linalg.matrix_power(s, burn_in) @ (identity(d) / d).reshape(-1)
    acc = np.zeros_like(v)
    for _ in range(iters - burn_in):
        v = s @ v
        acc += v
    avg = (acc / (iters - burn_in)).reshape(d, d)
    return (avg + avg.conj().T) / 2.0


class TestControlledFamily:
    def test_identity_family(self):
        np.testing.assert_array_equal(controlled_family(2, [identity(2), identity(2)]), identity(4))

    def test_controlled_hadamard(self):
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = H
        np.testing.assert_allclose(controlled_family(2, [identity(2), H]), expected)

    def test_controlled_not(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_array_equal(controlled_family(2, [identity(2), X]), cnot)

    def test_rejects_non_unitary_member(self):
        with pytest.raises(ValueError, match="not unitary"):
            controlled_family(2, [identity(2), 2 * identity(2)])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="exactly 2"):
            controlled_family(2, [identity(2)])


class TestSwapThenControl:
    def test_trivial_family_is_swap(self):
        ix = swap_then_control(2, [identity(2), identity(2)])
        np.testing.assert_array_equal(ix.V, swap_gate(2))
        assert ix.d_sys == ix.d_ctc == 2

    def test_two_state_circuit_matrix(self, two_state_circuit):
        expected = controlled_family(2, [identity(2), H]) @ swap_gate(2)
        np.testing.assert_allclose(two_state_circuit.V, expected)

    def test_four_dimensional_family(self):
        family = [swap_gate(2), np.kron(X, X), np.kron(X @ H, identity(2)),
                  np.kron(X, H) @ swap_gate(2)]
        ix = swap_then_control(4, family)
        assert ix.V.shape == (16, 16)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_dense_product_with_swap(self, d, seed):
        rng = np.random.default_rng(seed)
        family = [random_unitary(rng, d) for _ in range(d)]
        ix = swap_then_control(d, family)
        np.testing.assert_array_equal(ix.V, controlled_family(d, family) @ swap_gate(d))
        assert ix.V is ix.V and not ix.V.flags.writeable

    def test_first_read_of_v_holds_one_v(self, rng):
        d = 24
        ix = swap_then_control(d, [random_unitary(rng, d) for _ in range(d)])
        tracemalloc.start()
        try:
            v = ix.V
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * v.nbytes


class TestInducedMap:
    def test_swap_gives_constant_map(self, rng):
        ix = DeutschInteraction(2, 2, swap_gate(2))
        rho_in = DensityMatrix(random_density(rng, 2))
        s = induced_map(ix, rho_in)
        for _ in range(5):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(apply_superoperator(s, rho), rho_in.matrix, atol=1e-12)

    def test_identity_interaction(self):
        ix = DeutschInteraction(2, 2, identity(4))
        s = induced_map(ix, proj(KET0))
        np.testing.assert_allclose(s, identity(4), atol=1e-14)

    def test_two_state_circuit_closed_form(self, rng, two_state_circuit):
        # hand expansion: M(rho) = rho_00 |psi><psi| + rho_11 H|psi><psi|H
        psi = haar_state(rng, 2).vector
        s = induced_map(two_state_circuit, proj(psi))
        for _ in range(5):
            rho = random_density(rng, 2)
            expected = rho[0, 0] * np.outer(psi, psi.conj()) + rho[1, 1] * (
                H @ np.outer(psi, psi.conj()) @ H
            )
            np.testing.assert_allclose(apply_superoperator(s, rho), expected, atol=1e-12)

    def test_matches_kraus_construction(self, rng):
        for d_sys, d_ctc in ((2, 2), (2, 3), (3, 2)):
            ix = random_interaction(rng, d_sys, d_ctc)
            rho_in = DensityMatrix(random_density(rng, d_sys))
            np.testing.assert_allclose(
                induced_map(ix, rho_in), kraus_superoperator(ix, rho_in), atol=1e-12
            )

    def test_trace_preservation(self, rng):
        for _ in range(10):
            ix = random_interaction(rng, 2, 3)
            rho_in = DensityMatrix(random_density(rng, 2))
            s = induced_map(ix, rho_in)
            rho = random_density(rng, 3)
            np.testing.assert_allclose(
                np.trace(apply_superoperator(s, rho)), 1.0, atol=1e-10
            )

    def test_dimension_mismatch(self, two_state_circuit):
        with pytest.raises(ValueError, match="dim"):
            induced_map(two_state_circuit, DensityMatrix(identity(3) / 3))

    @settings(max_examples=60, deadline=None)
    @given(
        d_sys=st.integers(1, 4),
        d_ctc=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_matrix_unit_reference(self, d_sys, d_ctc, seed):
        rng = np.random.default_rng(seed)
        ix = random_interaction(rng, d_sys, d_ctc)
        rho_in = DensityMatrix(random_density(rng, d_sys))
        np.testing.assert_allclose(
            induced_map(ix, rho_in), matrix_unit_superoperator(ix, rho_in), rtol=0, atol=1e-12
        )


class TestFixedPoints:
    def test_two_state_circuit_zero_input(self, two_state_circuit):
        fp = fixed_points(two_state_circuit, proj(KET0))
        assert fp.unique and fp.fixed_space_dim == 1
        np.testing.assert_allclose(fp.representative.matrix, np.outer(KET0, KET0), atol=1e-12)
        assert fp.residual <= 1e-12

    def test_two_state_circuit_minus_input(self, two_state_circuit):
        fp = fixed_points(two_state_circuit, proj(minus_ket()))
        assert fp.unique
        np.testing.assert_allclose(fp.representative.matrix, np.outer(KET1, KET1), atol=1e-12)

    def test_identity_interaction_full_space(self):
        ix = DeutschInteraction(2, 2, identity(4))
        fp = fixed_points(ix, proj(KET0))
        assert fp.fixed_space_dim == 4
        assert not fp.unique
        assert len(fp.basis) == 4
        # the representative is still a genuine fixed state
        assert fp.representative is not None and fp.residual <= 1e-12

    def test_diagonal_update_rule_for_zero_input(self, two_state_circuit):
        # self-consistency forces rho_00 -> rho_00 + rho_11 / 2 on the diagonal,
        # which is what makes rho_11 = 0 the only option
        s = induced_map(two_state_circuit, proj(KET0))
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert s[0, 3] == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_gap_two_state_circuit(self, two_state_circuit):
        fp = fixed_points(two_state_circuit, proj(KET0))
        assert fp.spectrum_gap == pytest.approx(0.5, abs=1e-9)

    def test_existence_for_random_interactions(self, rng):
        for _ in range(20):
            ix = random_interaction(rng, 2, 2)
            rho_in = DensityMatrix(random_density(rng, 2))
            fp = fixed_points(ix, rho_in)
            assert fp.representative is not None
            assert fp.residual <= 1e-9

    def test_rejects_bad_tolerance(self, two_state_circuit):
        with pytest.raises(ValueError, match="fp_tol"):
            fixed_points(two_state_circuit, proj(KET0), fp_tol=0.0)

    @pytest.mark.parametrize("fp_tol", [np.nan, np.inf])
    def test_rejects_non_finite_tolerance(self, two_state_circuit, fp_tol):
        with pytest.raises(ValueError, match="fp_tol must be finite"):
            fixed_points(two_state_circuit, proj(KET0), fp_tol=fp_tol)

    def test_projection_outside_state_space_raises(self, both_forms, monkeypatch):
        # no other element of the fixed space is tried in its place
        monkeypatch.setattr(deutsch, "_clip_to_density", lambda h: None)
        with pytest.raises(FixedPointSolverError, match="leaves the state space"):
            fixed_points(both_forms, proj(KET0))


class TestOutputState:
    def test_two_state_circuit_outputs(self, two_state_circuit):
        out = output_state(two_state_circuit, proj(KET0), proj(KET0))
        np.testing.assert_allclose(out.matrix, np.outer(KET0, KET0), atol=1e-12)
        out = output_state(two_state_circuit, proj(minus_ket()), proj(KET1))
        np.testing.assert_allclose(out.matrix, np.outer(KET1, KET1), atol=1e-12)

    def test_swap_returns_input(self, rng):
        ix = DeutschInteraction(2, 2, swap_gate(2))
        rho = DensityMatrix(random_density(rng, 2))
        out = output_state(ix, rho, rho)  # rho is self-consistent for SWAP
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_rejects_inconsistent_ctc_state(self, two_state_circuit):
        with pytest.raises(ValueError, match="self-consistency"):
            output_state(two_state_circuit, proj(minus_ket()), proj(KET0))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_family_forms_neither_v_nor_s(self, monkeypatch, rng, d):
        ix = swap_then_control(d, [random_unitary(rng, d) for _ in range(d)])
        rho_in = DensityMatrix(random_density(rng, d))

        def refuse(*args):
            raise AssertionError("dense object built")

        with monkeypatch.context() as m:
            m.setattr(deutsch, "_swap_then_control_matrix", refuse)
            m.setattr(deutsch, "induced_map", refuse)
            rho_ctc = fixed_points(ix, rho_in).representative
            out = output_state(ix, rho_in, rho_ctc)
        dense = DeutschInteraction(d, d, ix.V)
        np.testing.assert_allclose(
            out.matrix, output_state(dense, rho_in, rho_ctc).matrix, rtol=0, atol=1e-12
        )


class TestEvolve:
    def test_two_state_circuit(self, two_state_circuit):
        out, fp = evolve(two_state_circuit, proj(KET0))
        assert fp.unique
        np.testing.assert_allclose(out.matrix, np.outer(KET0, KET0), atol=1e-12)

    def test_four_state_circuit_minus_zero(self):
        family = [swap_gate(2), np.kron(X, X), np.kron(X @ H, identity(2)),
                  np.kron(X, H) @ swap_gate(2)]
        ix = swap_then_control(4, family)
        minus_zero = np.kron(minus_ket(), KET0)
        out, fp = evolve(ix, proj(minus_zero))
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0  # |11>
        assert fp.unique
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_refuses_ambiguous_fixed_point(self):
        ix = DeutschInteraction(2, 2, identity(4))
        with pytest.raises(NonUniqueFixedPointError) as excinfo:
            evolve(ix, proj(KET0))
        assert excinfo.value.result.fixed_space_dim == 4

    def test_builds_superoperator_once(self, monkeypatch, rng):
        calls = []
        original = deutsch.induced_map

        def counting(ix, rho_in):
            calls.append(1)
            return original(ix, rho_in)

        monkeypatch.setattr(deutsch, "induced_map", counting)
        evolve(random_interaction(rng, 2, 3), DensityMatrix(random_density(rng, 2)))
        assert len(calls) == 1

    def test_matches_output_state(self, rng):
        for d_sys, d_ctc in ((2, 3), (3, 2), (4, 4)):
            ix = random_interaction(rng, d_sys, d_ctc)
            rho_in = DensityMatrix(random_density(rng, d_sys))
            out, fp = evolve(ix, rho_in)
            np.testing.assert_allclose(
                out.matrix, output_state(ix, rho_in, fp.representative).matrix,
                rtol=0, atol=1e-12,
            )


def eager_gap(t: np.ndarray) -> float:
    """1 - |second largest eigenvalue| of T, taken at once."""
    moduli = np.sort(np.abs(np.linalg.eigvals(t)))[::-1]
    return float(1.0 - moduli[1])


def chain_matrix(ix: DeutschInteraction, rho_in: DensityMatrix) -> np.ndarray:
    """A_mk = (U_k rho_in U_k^dag)_mm, held as complex as the solver holds it."""
    us = ix.family
    w = us @ rho_in.matrix @ us.conj().transpose(0, 2, 1)
    return np.diagonal(w, axis1=1, axis2=2).real.T.astype(complex)


def refuse_eigensolve(*args, **kwargs):
    raise AssertionError("an eigensolve ran")


@pytest.fixture(params=["markov", "svd"])
def both_forms(request, two_state_circuit) -> DeutschInteraction:
    """The two-state circuit as its family, then as its dense V."""
    if request.param == "markov":
        return two_state_circuit
    return DeutschInteraction(2, 2, two_state_circuit.V)


class TestLazySpectrumGap:
    """A solve decides by one SVD; the eigenvalues behind ``spectrum_gap``
    are taken on its first read and never again."""

    def test_evolution_takes_no_eigenvalues(self, both_forms, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigensolve)
        out, fp = evolve(both_forms, proj(KET0))
        assert fp.unique
        np.testing.assert_allclose(out.matrix, np.outer(KET0, KET0), atol=1e-12)
        gap = nonlinearity_gap(both_forms, proj(KET0), proj(plus_ket()), 0.5)
        assert gap == pytest.approx(0.10206207261596581, abs=1e-9)

    def test_gap_equals_eager_reference(self, rng):
        for d in (2, 3, 5):
            ix = swap_then_control(d, [random_unitary(rng, d) for _ in range(d)])
            dense = DeutschInteraction(d, d, ix.V)
            rho_in = DensityMatrix(random_density(rng, d))
            assert fixed_points(ix, rho_in).spectrum_gap == eager_gap(chain_matrix(ix, rho_in))
            assert fixed_points(dense, rho_in).spectrum_gap == eager_gap(
                induced_map(dense, rho_in)
            )
        ix = random_interaction(rng, 2, 4)
        rho_in = DensityMatrix(random_density(rng, 2))
        assert fixed_points(ix, rho_in).spectrum_gap == eager_gap(induced_map(ix, rho_in))

    def test_second_read_runs_no_eigensolve(self, both_forms, monkeypatch):
        calls = []
        original = np.linalg.eigvals

        def counting(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        fp = fixed_points(both_forms, proj(KET0))
        assert calls == []
        assert fp.spectrum_gap == pytest.approx(0.5, abs=1e-9)
        assert fp.spectrum_gap == pytest.approx(0.5, abs=1e-9)
        assert len(calls) == 1


class TestCesaroIterate:
    def test_converges_on_two_state_circuit(self, two_state_circuit):
        avg = cesaro_iterate(two_state_circuit, proj(KET0), 1000)
        assert trace_distance(avg.matrix, np.outer(KET0, KET0)) <= 1e-3

    def test_constant_map_after_two_steps(self, rng):
        ix = DeutschInteraction(2, 2, swap_gate(2))
        rho_in = DensityMatrix(random_density(rng, 2))
        avg = cesaro_iterate(ix, rho_in, 2)
        np.testing.assert_allclose(avg.matrix, rho_in.matrix, atol=1e-14)

    def test_identity_map_stays_mixed(self):
        ix = DeutschInteraction(2, 2, identity(4))
        for iters in (1, 7, 100):
            avg = cesaro_iterate(ix, proj(KET0), iters)
            np.testing.assert_allclose(avg.matrix, identity(2) / 2, atol=1e-14)

    def test_agrees_with_nullspace_when_gap_is_healthy(self, rng):
        # iteration-average oracle vs the SVD route on random distinguisher-shaped
        # interactions; at gap > 0.1 ten thousand steps are plenty for 1e-3
        checked = 0
        for _ in range(10):
            family = [random_unitary(rng, 2) for _ in range(2)]
            ix = swap_then_control(2, family)
            rho_in = proj(haar_state(rng, 2).vector)
            fp = fixed_points(ix, rho_in)
            if not fp.unique or fp.spectrum_gap <= 0.1:
                continue
            avg = cesaro_iterate(ix, rho_in, 10_000)
            assert trace_distance(avg.matrix, fp.representative.matrix) <= 1e-3
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("d_ctc", [2, 4, 8])
    def test_doubling_matches_tail_loop(self, d_ctc):
        rng = np.random.default_rng(4100 + d_ctc)
        ix = random_interaction(rng, 2, d_ctc)
        rho_in = DensityMatrix(random_density(rng, 2))
        for iters in (1, 2, 3, 7, 100, 10_000):
            np.testing.assert_allclose(
                cesaro_iterate(ix, rho_in, iters).matrix,
                tail_loop_reference(ix, rho_in, iters),
                rtol=0, atol=1e-10,
            )

    def test_tail_average_removes_transient_at_small_gap(self):
        # swap-then-control with rotations U_k = R_y, input |0>: the CTC chain
        # A_mk = |<m|U_k|0>|^2 has second eigenvalue 0.999 - 0.011 = 0.988, so
        # gap 0.012, and stationary vector (11/12, 1/12) far from I/2. A mean
        # of M^t(I/2) from t = 1 keeps a transient of order 1/(T * gap).
        def ry(cos_sq: float) -> np.ndarray:
            c, s = np.sqrt(cos_sq), np.sqrt(1.0 - cos_sq)
            return np.array([[c, -s], [s, c]], dtype=complex)

        ix = swap_then_control(2, [ry(0.999), ry(0.011)])
        rho_in = proj(KET0)
        fp = fixed_points(ix, rho_in)
        assert fp.unique and 0.01 < fp.spectrum_gap < 0.02

        s = induced_map(ix, rho_in)
        v = (identity(2) / 2).reshape(-1)
        full_sum = np.zeros_like(v)
        for _ in range(10_000):
            v = s @ v
            full_sum += v
        full_mean = (full_sum / 10_000).reshape(2, 2)
        assert trace_distance(full_mean, fp.representative.matrix) > 1e-3

        avg = cesaro_iterate(ix, rho_in, 10_000)
        assert trace_distance(avg.matrix, fp.representative.matrix) <= 1e-3


def phased_permutation(rng: np.random.Generator, d: int) -> np.ndarray:
    """U |i> = e^(i theta_i) |pi(i)> for a random permutation pi and phases."""
    return np.eye(d)[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


def span_projector(basis: list[np.ndarray]) -> np.ndarray:
    q, _ = np.linalg.qr(np.stack([b.reshape(-1) for b in basis], axis=1))
    return q @ q.conj().T


class TestReductions:
    """One fixed-point pipeline with two reductions: the chain of a family
    interaction against the superoperator of the dense V of the same circuit."""

    def test_non_unique_chain_stays_on_the_chain(self):
        # controlled-X after the swap, input |0>: W_0 = |0><0|, W_1 = |1><1|,
        # so the chain matrix is the identity and every diagonal state is fixed;
        # the map is unital and the representative is I/2
        unital = swap_then_control(2, [identity(2), X])
        # U = (I, H + 1, the 0<->2 permutation), input |0>: the fixed states
        # are a|0><0| + (1 - a)|2><2|, I is not among them, and the start
        # projects onto diag(2/3, 0, 1/3)
        h_plus_1 = np.eye(3, dtype=complex)
        h_plus_1[:2, :2] = H
        not_unital = swap_then_control(3, [identity(3), h_plus_1, np.eye(3)[[2, 1, 0]]])
        cases = (
            (unital, proj(KET0), identity(2) / 2),
            (not_unital, proj(basis_ket(3, 0)), np.diag([2 / 3, 0, 1 / 3])),
        )
        for ix, rho_in, expected in cases:
            dense = DeutschInteraction(ix.d_sys, ix.d_ctc, ix.V)
            for interaction, solver in ((ix, "markov"), (dense, "svd")):
                fp = fixed_points(interaction, rho_in)
                assert fp.fixed_space_dim == 2 and not fp.unique and fp.solver == solver
                assert fp.residual <= 1e-12
                np.testing.assert_allclose(
                    fp.representative.matrix, expected, rtol=0, atol=1e-12
                )
                with pytest.raises(NonUniqueFixedPointError):
                    evolve(interaction, rho_in)

    def test_zero_rule_on_a_rounding_level_shift(self):
        # S - I is all rounding, so its largest singular value is ~1e-16; a
        # zero rule relative to that alone counted noise as nonzero and
        # raised FixedPointSolverError for this phase
        fp = fixed_points(DeutschInteraction(2, 2, np.exp(0.15j) * np.eye(4)), proj(KET0))
        assert fp.fixed_space_dim == 4 and not fp.unique

    def test_zero_rule_on_a_phased_controlled_x(self):
        # the chain matrix is the identity up to rounding: both forms must
        # see the two-dimensional fixed space
        ix = swap_then_control(2, [identity(2), np.exp(0.15j) * X])
        for interaction in (ix, DeutschInteraction(2, 2, ix.V)):
            fp = fixed_points(interaction, proj(KET0))
            assert fp.fixed_space_dim == 2 and not fp.unique
            with pytest.raises(NonUniqueFixedPointError):
                evolve(interaction, proj(KET0))

    def test_non_unique_family_builds_neither_v_nor_s(self, monkeypatch):
        ix = swap_then_control(2, [identity(2), X])

        def refuse(*args):
            raise AssertionError("dense object built")

        monkeypatch.setattr(deutsch, "_swap_then_control_matrix", refuse)
        monkeypatch.setattr(deutsch, "induced_map", refuse)
        fp = fixed_points(ix, proj(KET0))
        assert fp.fixed_space_dim == 2 and fp.solver == "markov"

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(2, 5),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_family_matches_dense_on_phased_permutations(self, d, mixed, seed):
        # each W_k is diagonal, so the chain is a 0/1 or weighted functional
        # graph and fixed spaces of every dimension up to d occur
        rng = np.random.default_rng(seed)
        ix = swap_then_control(d, [phased_permutation(rng, d) for _ in range(d)])
        dense = DeutschInteraction(d, d, ix.V)
        weights = np.zeros(d)
        if mixed:
            support = rng.random(d) < 0.5
            support[rng.integers(d)] = True
            weights[support] = rng.random(int(support.sum())) + 0.1
        else:
            weights[rng.integers(d)] = 1.0
        rho_in = DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
        fm, fs = fixed_points(ix, rho_in), fixed_points(dense, rho_in)
        assert (fm.fixed_space_dim, fm.unique) == (fs.fixed_space_dim, fs.unique)
        np.testing.assert_allclose(
            span_projector(fm.basis), span_projector(fs.basis), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            fm.representative.matrix, fs.representative.matrix, rtol=0, atol=1e-12
        )


class TestNonlinearityGap:
    def test_degenerate_weight(self, two_state_circuit):
        gap = nonlinearity_gap(two_state_circuit, proj(KET0), proj(minus_ket()), 0.0)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_identical_components(self, two_state_circuit):
        gap = nonlinearity_gap(two_state_circuit, proj(KET0), proj(KET0), 0.5)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_pair_is_affine(self, two_state_circuit):
        # For this circuit the half/half blend of |0><0| and |-><-| evolves to
        # exactly the blend of the individual outputs (the fixed point is
        # diag(w, 1-w) for every weight w), so the gap vanishes identically.
        # Cross-checked below against the iteration-average oracle.
        gap = nonlinearity_gap(two_state_circuit, proj(KET0), proj(minus_ket()), 0.5)
        assert gap <= 1e-12

        def raw_output(rho_in: DensityMatrix) -> np.ndarray:
            ctc = cesaro_iterate(two_state_circuit, rho_in, 20_000)
            joint = two_state_circuit.V @ tensor(rho_in.matrix, ctc.matrix) @ two_state_circuit.V.conj().T
            return partial_trace(joint, (2, 2), keep=0)

        mix = DensityMatrix(0.5 * proj(KET0).matrix + 0.5 * proj(minus_ket()).matrix)
        oracle_gap = trace_distance(
            raw_output(mix), 0.5 * raw_output(proj(KET0)) + 0.5 * raw_output(proj(minus_ket()))
        )
        assert oracle_gap <= 1e-3

    def test_positive_gap_for_other_pair(self, two_state_circuit):
        # |0> vs |+>: here the composite map is visibly nonlinear
        gap = nonlinearity_gap(two_state_circuit, proj(KET0), proj(plus_ket()), 0.5)
        assert gap == pytest.approx(0.10206207261596581, abs=1e-9)
        assert gap > 1e-3

    def test_rejects_bad_weight(self, two_state_circuit):
        with pytest.raises(ValueError, match="weight"):
            nonlinearity_gap(two_state_circuit, proj(KET0), proj(KET0), 1.5)

    def test_propagates_ambiguity(self):
        ix = DeutschInteraction(2, 2, identity(4))
        with pytest.raises(NonUniqueFixedPointError):
            nonlinearity_gap(ix, proj(KET0), proj(KET1), 0.5)


class TestInteractionValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            DeutschInteraction(2, 2, np.ones((4, 4), dtype=complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DeutschInteraction(2, 3, identity(4))

    def test_needs_exactly_one_of_v_and_family(self):
        with pytest.raises(ValueError, match="exactly one"):
            DeutschInteraction(2, 2)
        with pytest.raises(ValueError, match="exactly one"):
            DeutschInteraction(2, 2, identity(4), family=[identity(2), X])

    def test_family_members_checked(self):
        with pytest.raises(ValueError, match="not unitary"):
            swap_then_control(2, [identity(2), 2 * identity(2)])
        with pytest.raises(ValueError, match="exactly 2"):
            swap_then_control(2, [identity(2)])

    def test_immutable(self, two_state_circuit):
        with pytest.raises(AttributeError):
            two_state_circuit.d_sys = 3
