import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_state, haar_state_set, random_density, random_unitary
import ctcsim.deutsch as deutsch
import ctcsim.distinguisher as distinguisher
import ctcsim.infotheory as infotheory
from ctcsim.deutsch import DeutschInteraction, evolve, fixed_points
from ctcsim.distinguisher import (
    DEFAULT_SPAN_TOL,
    ConstructionError,
    StateSet,
    UnitaryFamily,
    build_distinguisher,
    classification_table,
    classify,
    construct_family,
    pad_with_ancilla,
    validate_state_set,
    verify_family,
)
from ctcsim.infotheory import Ensemble, ctc_accessible_info
from ctcsim.qlinalg import (
    H,
    X,
    DensityMatrix,
    PureState,
    basis_ket,
    identity,
    minus_ket,
    plus_ket,
    swap_gate,
)

ZERO = PureState(basis_ket(2, 0))
ONE = PureState(basis_ket(2, 1))
PLUS = PureState(plus_ket())
MINUS = PureState(minus_ket())


def bb84_qubit_states() -> list[PureState]:
    return [ZERO, ONE, PLUS, MINUS]


# Reference sweep: the vector-at-a-time Gram-Schmidt construction with a
# residual rescan of every unused state after each step, kept to cross-check
# the matrix form in ctcsim.distinguisher.


def _orthonormalize_against(
    v: np.ndarray, basis: list[np.ndarray]
) -> tuple[np.ndarray, float]:
    r = v.copy()
    for b in basis:
        r -= b * (b.conj() @ v)
    norm = float(np.linalg.norm(r))
    for b in basis:
        r -= b * (b.conj() @ r)
    n2 = np.linalg.norm(r)
    if n2 == 0:
        return r, norm
    return r / n2, norm


def _residual_norm(v: np.ndarray, basis: list[np.ndarray]) -> float:
    r = v.copy()
    for b in basis:
        r -= b * (b.conj() @ v)
    return float(np.linalg.norm(r))


def _complete_basis(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    out = list(vectors)
    for i in range(dim):
        if len(out) == dim:
            break
        cand, norm = _orthonormalize_against(basis_ket(dim, i), out)
        if norm > 0.5 / np.sqrt(dim):
            out.append(cand)
    if len(out) != dim:
        raise ConstructionError("failed to complete orthonormal basis")
    return out


def reference_sweep(
    vectors: list[np.ndarray], k: int, order: list[int], span_tol: float
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], list[tuple]]:
    """Returns (U_k, input basis, output basis, groups) for target k."""
    n = len(vectors)
    used = [False] * n
    b_basis = [vectors[k].copy()]
    c_basis = [basis_ket(n, k)]
    groups: list[tuple[int, tuple[int, ...], int]] = [(1, (k,), 1)]
    used[k] = True
    step = 1
    while not all(used):
        step += 1
        pick = next(i for i in order if not used[i])
        b_new, norm = _orthonormalize_against(vectors[pick], b_basis)
        if norm <= span_tol:
            raise ConstructionError(
                f"state {pick} lies in the current span but was not grouped; "
                "span_tol is inconsistent"
            )
        b_basis.append(b_new)
        members = []
        for i in order:
            if used[i]:
                continue
            if _residual_norm(vectors[i], b_basis) <= span_tol:
                members.append(i)
                used[i] = True
        c_new = np.zeros(n, dtype=complex)
        for i in members:
            c_new[i] = 1.0
        c_new /= np.sqrt(len(members))
        c_basis.append(c_new)
        groups.append((step, tuple(members), len(members)))
    b_basis = _complete_basis(b_basis, n)
    c_basis = _complete_basis(c_basis, n)
    u = np.zeros((n, n), dtype=complex)
    for b, c in zip(b_basis, c_basis):
        u += np.outer(c, b.conj())
    return u, b_basis, c_basis, groups


def padded_haar_set(rng: np.random.Generator, d_state: int, factor: int) -> StateSet:
    """d_state * factor Haar states in d_state dimensions, padded with an
    ancilla to a valid set; redrawn until pairwise distinct."""
    n = d_state * factor
    for _ in range(50):
        try:
            return pad_with_ancilla([haar_state(rng, d_state) for _ in range(n)], n)
        except ValueError:
            continue
    raise RuntimeError("could not draw a distinct state set")


class TestValidateStateSet:
    def test_two_state_instance(self):
        s = validate_state_set([ZERO, MINUS])
        assert s.dim == 2

    def test_rejects_phase_duplicates(self):
        dup = PureState(np.exp(1j * np.pi / 4) * basis_ket(2, 0))
        with pytest.raises(ValueError, match="coincide up to phase"):
            validate_state_set([ZERO, dup])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="must equal the space dimension"):
            validate_state_set([ZERO, ONE, PLUS])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_state_set([])

    def test_names_the_coinciding_pair(self):
        dup = PureState(-basis_ket(3, 1))
        states = [PureState(basis_ket(3, 0)), PureState(basis_ket(3, 1)), dup]
        with pytest.raises(ValueError, match="states 1 and 2 coincide"):
            validate_state_set(states)


class TestPadWithAncilla:
    def test_bb84_padding(self):
        s = pad_with_ancilla(bb84_qubit_states(), 4)
        assert s.dim == 4
        np.testing.assert_allclose(s.states[2].vector, np.kron(plus_ket(), basis_ket(2, 0)))

    def test_trivial_padding(self):
        s = pad_with_ancilla([ZERO, MINUS], 2)
        np.testing.assert_allclose(s.states[1].vector, minus_ket())

    def test_eight_states_three_qubits(self):
        qubits = [
            PureState(np.array([np.cos(m * np.pi / 16), np.sin(m * np.pi / 16)], dtype=complex))
            for m in range(8)
        ]
        s = pad_with_ancilla(qubits, 8)
        assert s.dim == 8
        # two ancilla zeros appended
        np.testing.assert_allclose(s.states[0].vector, basis_ket(8, 0))

    def test_rejects_non_integer_factor(self):
        with pytest.raises(ValueError, match="multiple"):
            pad_with_ancilla([ZERO, ONE, PLUS], 3)


class TestConstructFamily:
    def test_two_state_instance_first_unitary(self):
        # sweep for k = 0: b = (|0>, -|1>), c = (|0>, |1>), so U_0 = Z
        s = validate_state_set([ZERO, MINUS])
        fam = construct_family(s)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        np.testing.assert_allclose(fam.unitaries[0], z, atol=1e-12)
        # U_0 |-> = |+> up to phase, so the cross element has magnitude 1/sqrt(2)
        amp = abs((fam.unitaries[0] @ minus_ket())[1])
        assert amp == pytest.approx(1 / np.sqrt(2))

    def test_condition_2_floor_refusal(self):
        # the third state lies 1e-10 outside span{|0>, |1>}; a span tolerance
        # below that keeps the sliver, and the floor collapses to 1e-10/sqrt(2)
        near = basis_ket(3, 0) + basis_ket(3, 1) + 1e-10 * basis_ket(3, 2)
        s = validate_state_set(
            [PureState(basis_ket(3, 0)), PureState(basis_ket(3, 1)), PureState.normalized(near)]
        )
        with pytest.raises(ConstructionError, match=r"condition 2 floor 7\.071e-11"):
            construct_family(s, span_tol=1e-12)
        assert construct_family(s).report.floor_margin == pytest.approx(0.5, abs=1e-9)

    def test_orthonormal_basis_becomes_permutation(self):
        s = validate_state_set([PureState(basis_ket(3, i)) for i in range(3)])
        fam = construct_family(s)
        for u in fam.unitaries:
            np.testing.assert_allclose(np.abs(u), np.abs(np.round(u.real)), atol=1e-12)
        report = verify_family(s, fam)
        assert report.floor_margin == pytest.approx(1.0)
        assert report.cond1_residual <= 1e-12

    def test_padded_bb84_floor(self):
        s = pad_with_ancilla(bb84_qubit_states(), 4)
        fam = construct_family(s)
        report = verify_family(s, fam)
        # the sweep groups the three remaining states into one superposition,
        # so the smallest cross element is (1/sqrt 2)(1/sqrt 3)
        assert report.floor_margin == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert report.floor_margin >= 0.24

    def test_keeps_no_per_target_bases(self, rng):
        # the family retains its unitaries and nothing of the size of a
        # basis per target
        s = haar_state_set(rng, 32)
        tracemalloc.start()
        try:
            fam = construct_family(s)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 1.5 * fam.unitaries.nbytes

    def test_order_robustness(self, rng):
        s = haar_state_set(rng, 4)
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            fam = construct_family(s, order=order)
            report = verify_family(s, fam)
            assert report.cond1_residual <= 1e-9
            assert report.floor_margin > 1e-9

    def test_rejects_bad_order(self):
        s = validate_state_set([ZERO, MINUS])
        with pytest.raises(ValueError, match="permutation"):
            construct_family(s, order=[0, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        # (state dim, padding factor): factor 1 is a Haar set in full span,
        # larger factors pad qubit or qutrit states into degenerate spans
        shape=st.sampled_from([(n, 1) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_sweep(self, shape, seed):
        rng = np.random.default_rng(seed)
        s = padded_haar_set(rng, *shape)
        order = [int(i) for i in rng.permutation(s.dim)]
        fam = construct_family(s, order=order)
        for k, u in enumerate(fam.unitaries):
            ref_u = reference_sweep(s.vectors(), k, order, DEFAULT_SPAN_TOL)[0]
            np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "state_dim, order_seed",
        # a Haar set in reversed and in a seeded random order, and qubit
        # states padded to 16 dimensions in a seeded random order
        [(16, None), (16, 5), (2, 6)],
        ids=["haar-reversed", "haar-random", "padded-random"],
    )
    def test_sixteen_states_match_reference_sweep(self, state_dim, order_seed):
        rng = np.random.default_rng(16)
        s = padded_haar_set(rng, state_dim, 16 // state_dim)
        if order_seed is None:
            order = list(range(15, -1, -1))
        else:
            order = [int(i) for i in np.random.default_rng(order_seed).permutation(16)]
        fam = construct_family(s, order=order)
        assert_matches_reference_sweep(s, fam, order, DEFAULT_SPAN_TOL)

    @pytest.mark.parametrize("seed", range(11))
    def test_loose_span_tol_matches_reference_sweep(self, seed):
        # a loose tolerance groups states that lie off the span, so sweeps
        # that used the same states may span different spaces and must not
        # share. On seed 6 the sweep for state 3 meets a state the tolerance
        # left ungrouped, and both sides refuse the set with the same error
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        s = haar_state_set(rng, n)
        span_tol = float(rng.uniform(0.2, 0.7))
        order = [int(i) for i in rng.permutation(n)]
        try:
            fam = construct_family(s, order=order, span_tol=span_tol)
        except ConstructionError as e:
            with pytest.raises(ConstructionError, match=re.escape(str(e))):
                for k in range(n):
                    reference_sweep(s.vectors(), k, order, span_tol)
            return
        assert_matches_reference_sweep(s, fam, order, span_tol)

    @pytest.mark.parametrize("offset", [1e-6, 1e-7, 1e-9])
    def test_state_near_the_span_of_others(self, offset):
        # state 2 lies `offset` off span{psi_0, psi_1}. Above span_tol every
        # group is one state and the QR route serves every target, but a
        # pick's direction is only correct to about eps / offset, so each U_k
        # stays unitary to rounding and agrees with the reference sweep to
        # that same eps / offset. Below span_tol state 2 is grouped and each
        # target runs its own sweep
        rng = np.random.default_rng(4)
        vs = [haar_state(rng, 4).vector for _ in range(4)]
        q, _ = np.linalg.qr(np.stack(vs[:2], axis=1))
        near, off = q @ (q.conj().T @ vs[3]), vs[2] - q @ (q.conj().T @ vs[2])
        vs[2] = near / np.linalg.norm(near) + offset * off / np.linalg.norm(off)
        s = validate_state_set([PureState.normalized(v) for v in vs])
        fam = construct_family(s)
        for u in fam.unitaries:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-14)
        assert_matches_reference_sweep(s, fam, list(range(4)), DEFAULT_SPAN_TOL, 1e-14 / offset)

    def test_route_follows_the_grouping(self, rng, monkeypatch):
        # a Haar set has only one-state groups, so one QR serves every
        # target; qubit states padded to 16 dimensions are grouped, so each
        # target runs its own sweep
        calls = []
        sweep = distinguisher._sweep

        def counting(x, k, order, span_tol):
            calls.append(k)
            return sweep(x, k, order, span_tol)

        monkeypatch.setattr(distinguisher, "_sweep", counting)
        construct_family(haar_state_set(rng, 16))
        assert calls == []
        construct_family(padded_haar_set(rng, 2, 8))
        assert calls == list(range(16))

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 11), min_size=1, max_size=12))
    def test_closed_form_output_basis(self, labels):
        # groups numbered densely in an arbitrary order; the reference puts
        # each group's uniform superposition in its column and completes the
        # rest from the standard kets
        group = np.unique(labels, return_inverse=True)[1]
        n, rank = group.size, group.max() + 1
        c = np.zeros((n, n), dtype=complex)
        c[np.arange(n), group] = 1 / np.sqrt(np.bincount(group)[group])
        np.testing.assert_allclose(
            distinguisher._output_basis(group),
            distinguisher._complete_basis(c, rank),
            rtol=0,
            atol=1e-15,
        )


def assert_matches_reference_sweep(
    s: StateSet, fam: UnitaryFamily, order: list[int], span_tol: float, atol: float = 1e-12
) -> None:
    """Every target's unitary equals `reference_sweep`'s within `atol`: as
    U_k = C B^dag, a different group or basis column gives a different U_k."""
    for k, u in enumerate(fam.unitaries):
        ref_u = reference_sweep(s.vectors(), k, order, span_tol)[0]
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=atol)


def verify_family_loop(s: StateSet, fam: UnitaryFamily) -> tuple[float, float]:
    """(floor_margin, cond1_residual) by one product U_k X per k: the loop
    that the batched ``verify_family`` replaced, kept as its reference."""
    x = np.stack(s.vectors(), axis=1)
    cond1, floor = 0.0, np.inf
    for k, u in enumerate(fam.unitaries):
        ux = u @ x
        cond1 = max(cond1, float(np.linalg.norm(ux[:, k] - basis_ket(s.dim, k))))
        floor = min(floor, float(np.abs(np.diagonal(ux)).min()))
    return floor, cond1


class TestVerifyFamily:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_batched_matches_loop(self, rng, d):
        # the products are the loop's own, so the floor is equal; the norm
        # behind condition 1 sums in another order, so it may differ in the
        # last place (relative tolerance of a few float64 epsilons)
        for _ in range(5):
            s = haar_state_set(rng, d)
            for fam in (construct_family(s),
                        UnitaryFamily(states=s, unitaries=[random_unitary(rng, d) for _ in range(d)])):
                report = verify_family(s, fam)
                floor, cond1 = verify_family_loop(s, fam)
                assert report.floor_margin == floor
                assert report.cond1_residual == pytest.approx(cond1, rel=4 * np.finfo(float).eps)

    def test_hand_built_four_state_family(self):
        # SWAP, X(x)X, XH(x)I, (X(x)H)SWAP against |00>, |10>, |+0>, |-0>
        s = pad_with_ancilla(bb84_qubit_states(), 4)
        sw = swap_gate(2)
        fam = UnitaryFamily(
            states=s,
            unitaries=(sw, np.kron(X, X), np.kron(X @ H, identity(2)), np.kron(X, H) @ sw),
        )
        report = verify_family(s, fam)
        assert report.cond1_residual <= 1e-12
        # this family meets the self-consistency condition but not the generic
        # uniqueness floor: some cross elements vanish exactly (uniqueness
        # still holds for it, via a chain argument instead of the floor)
        assert report.floor_margin == pytest.approx(0.0, abs=1e-15)

    def test_identity_family_on_basis_set(self):
        s = validate_state_set([PureState(basis_ket(2, i)) for i in range(2)])
        fam = UnitaryFamily(states=s, unitaries=(identity(2), identity(2)))
        report = verify_family(s, fam)
        assert report.cond1_residual == 0.0
        assert report.floor_margin == pytest.approx(1.0)

    def test_constructed_floor_positive(self, rng):
        for _ in range(10):
            s = haar_state_set(rng, 3)
            fam = construct_family(s)
            assert verify_family(s, fam).floor_margin > 1e-9

    @pytest.mark.parametrize("d", range(2, 9))
    def test_packaged_report_is_verify_family(self, rng, d):
        fam = construct_family(haar_state_set(rng, d))
        assert fam.report == verify_family(fam.states, fam)

    def test_bb84_family_report_is_verify_family(self):
        from ctcsim.protocols import bb84_family

        fam = bb84_family()
        assert fam.report == verify_family(fam.states, fam)


class TestBuildDistinguisher:
    def test_two_state_end_to_end(self):
        s = validate_state_set([ZERO, MINUS])
        fam = construct_family(s)
        ix = build_distinguisher(s, fam)
        assert ix.V.shape == (4, 4)
        label, prob, fp = classify(ix, s, 0)
        assert (label, fp.unique) == (0, True)
        assert prob >= 1 - 1e-9

    def test_rejects_unverified_family(self):
        s = validate_state_set([ZERO, MINUS])
        fam = construct_family(s)
        # swap the unitaries so condition 1 breaks
        broken = UnitaryFamily(states=s, unitaries=(fam.unitaries[1], fam.unitaries[0]))
        with pytest.raises(ConstructionError, match="not verified"):
            build_distinguisher(s, broken)

    @pytest.mark.parametrize(
        "unitaries, message",
        [((identity(2), 2 * identity(2)), "not unitary"), ((identity(2),), "exactly 2")],
    )
    def test_hand_built_family_is_checked(self, unitaries, message):
        s = validate_state_set([ZERO, MINUS])
        with pytest.raises(ValueError, match=message):
            UnitaryFamily(states=s, unitaries=unitaries)

    def test_family_for_another_set_is_verified_against_it(self):
        s = validate_state_set([ZERO, MINUS])
        fam = construct_family(s)
        # another set object with the same states is verified afresh and passes
        assert build_distinguisher(validate_state_set([ZERO, MINUS]), fam) is fam.interaction
        # the same states in swapped order break condition 1
        with pytest.raises(ConstructionError, match="not verified"):
            build_distinguisher(validate_state_set([MINUS, ZERO]), fam)

    def test_identity_family_classifies_basis(self):
        s = validate_state_set([PureState(basis_ket(2, i)) for i in range(2)])
        fam = UnitaryFamily(states=s, unitaries=(identity(2), identity(2)))
        ix = build_distinguisher(s, fam)
        for j in range(2):
            label, prob, _fp = classify(ix, s, j)
            assert label == j and prob >= 1 - 1e-9


class TestClassify:
    def test_two_state_circuit_minus(self):
        from ctcsim.protocols import b92_family

        fam = b92_family()
        label, prob, fp = classify(fam.interaction, fam.states, 1)
        assert label == 1
        assert prob >= 1 - 1e-9
        assert fp.unique

    def test_four_state_circuit_plus_zero(self):
        from ctcsim.protocols import bb84_family

        fam = bb84_family()
        label, prob, _fp = classify(fam.interaction, fam.states, 2)
        assert label == 2  # binary 10
        assert prob >= 1 - 1e-9

    def test_random_sets_classify_perfectly(self, rng):
        for n in (2, 3, 4):
            s = haar_state_set(rng, n)
            fam = construct_family(s)
            ix = build_distinguisher(s, fam)
            table = classification_table(ix, s)
            assert [label for label, _prob, _fp in table] == list(range(n))
            assert all(prob >= 1 - 1e-8 for _label, prob, _fp in table)

    def test_table_raises_at_first_wrong_label(self):
        # X, X breaks condition 1 for the basis set: |0> reads label 1
        s = validate_state_set([PureState(basis_ket(2, i)) for i in range(2)])
        fam = UnitaryFamily(states=s, unitaries=(X, X))
        assert classify(fam.interaction, s, 0)[0] == 1
        with pytest.raises(ConstructionError, match="state 0 classified as 1"):
            classification_table(fam.interaction, s)

    def test_uniqueness_and_target_state(self, rng):
        # the engineered fixed point is |j><j| itself
        s = haar_state_set(rng, 3)
        fam = construct_family(s)
        ix = build_distinguisher(s, fam)
        for j in range(3):
            fp = fixed_points(ix, s.states[j].projector())
            assert fp.fixed_space_dim == 1
            target = np.zeros((3, 3), dtype=complex)
            target[j, j] = 1.0
            assert np.abs(fp.representative.matrix - target).max() <= 1e-8

    def test_index_out_of_range(self):
        from ctcsim.protocols import b92_family

        fam = b92_family()
        with pytest.raises(ValueError, match="out of range"):
            classify(fam.interaction, fam.states, 5)


def _assert_same_solution(markov_ix, dense_ix, rho_in):
    """The Markov route on a family interaction against the SVD route on the
    dense V of the same circuit: one input, every reported quantity.

    States are compared to 1e-9, not 1e-10: on seeds 0-499 of every shape
    below, the SVD route's null vector itself misses the exact fixed point
    |j><j| of a pure input by up to 1.4e-10 (seed 334, shape (2, 3), gap
    2.9e-4), where the Markov route is within 2e-16 of it."""
    fm, fs = fixed_points(markov_ix, rho_in), fixed_points(dense_ix, rho_in)
    assert (fm.solver, fs.solver) == ("markov", "svd")
    assert (fm.fixed_space_dim, fm.unique) == (fs.fixed_space_dim, fs.unique) == (1, True)
    np.testing.assert_allclose(
        fm.representative.matrix, fs.representative.matrix, rtol=0, atol=1e-9
    )
    assert abs(fm.residual - fs.residual) <= 1e-10
    assert abs(fm.spectrum_gap - fs.spectrum_gap) <= 1e-10
    out_m, _ = evolve(markov_ix, rho_in)
    out_s, _ = evolve(dense_ix, rho_in)
    np.testing.assert_allclose(out_m.matrix, out_s.matrix, rtol=0, atol=1e-9)
    return fm


class TestMarkovRoute:
    """The reduced solve of the swap-then-control circuit, cross-checked
    against the SVD route, which stays the reference."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        # (state dim, padding factor) as in test_matches_reference_sweep:
        # Haar sets in full span, and qubit or qutrit sets padded to d <= 8
        shape=st.sampled_from([(n, 1) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_route(self, shape, seed):
        rng = np.random.default_rng(seed)
        s = padded_haar_set(rng, *shape)
        ix = build_distinguisher(s, construct_family(s))
        dense = DeutschInteraction(s.dim, s.dim, ix.V)
        for j in range(s.dim):
            fp = _assert_same_solution(ix, dense, s.states[j].projector())
            # the stationary vector of the chain is determined to rounding
            # over the gap: on seeds 0-499 the error times the gap is at
            # most 4.5e-15, and the largest error 3.4e-11 (gap 6.1e-6)
            target = np.zeros((s.dim, s.dim))
            target[j, j] = 1.0
            np.testing.assert_allclose(
                fp.representative.matrix, target, rtol=0, atol=1e-12 + 1e-14 / fp.spectrum_gap
            )
            assert classify(ix, s, j)[0] == classify(dense, s, j)[0] == j
        _assert_same_solution(ix, dense, DensityMatrix(random_density(rng, s.dim)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_doeblin_gap_bound(self, n, seed):
        # condition 2 gives A >= f^2 e_j 1^T for input psi_j, with f the floor
        # margin, so |lambda_2(A)| <= 1 - f^2: the gap is at least f^2
        s = haar_state_set(np.random.default_rng(seed), n)
        fam = construct_family(s)
        floor = verify_family(s, fam).floor_margin
        ix = build_distinguisher(s, fam)
        dense = DeutschInteraction(n, n, ix.V)
        for j in range(n):
            rho_in = s.states[j].projector()
            for interaction in (ix, dense):
                assert fixed_points(interaction, rho_in).spectrum_gap >= floor**2 - 1e-12

    def test_classify_leaves_v_unbuilt(self, rng, monkeypatch):
        s = haar_state_set(rng, 5)
        ix = build_distinguisher(s, construct_family(s))

        def refuse(us):
            raise AssertionError("V was built")

        monkeypatch.setattr(deutsch, "_swap_then_control_matrix", refuse)
        assert [classify(ix, s, j)[0] for j in range(5)] == list(range(5))
        with pytest.raises(AssertionError, match="V was built"):
            ix.V


def refuse_eigensolve(*args, **kwargs):
    raise AssertionError("an eigensolve ran")


class TestNoEigensolve:
    """Classification reads only the SVD decision; no caller on this path
    reads ``spectrum_gap``, so no eigenvalues are taken."""

    @pytest.mark.parametrize("dense", [False, True], ids=["markov", "svd"])
    def test_classify(self, rng, monkeypatch, dense):
        s = haar_state_set(rng, 4)
        ix = build_distinguisher(s, construct_family(s))
        if dense:
            ix = DeutschInteraction(4, 4, ix.V)
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigensolve)
        assert [classify(ix, s, j)[0] for j in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("dense", [False, True], ids=["markov", "svd"])
    def test_ctc_accessible_info(self, monkeypatch, dense):
        if dense:
            build = infotheory.build_distinguisher

            def build_dense(s, fam):
                return DeutschInteraction(s.dim, s.dim, build(s, fam).V)

            monkeypatch.setattr(infotheory, "build_distinguisher", build_dense)
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigensolve)
        ens = Ensemble.uniform_pure([ZERO, ONE, PLUS, MINUS])
        assert ctc_accessible_info(ens, 4) == pytest.approx(2.0, abs=1e-9)
