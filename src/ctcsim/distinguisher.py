"""Constructive perfect discrimination of arbitrary distinct pure states.

Given N distinct states spanning at most an N-dimensional space, one can
build N unitaries {U_k} such that the swap-then-controlled-family interaction
run through the self-consistency engine maps every |psi_j> to the basis ket
|j> with certainty. Two properties make this work:

  condition 1:  U_k |psi_k> = |k>            (self-consistency of |k><k|)
  condition 2:  <j| U_k |psi_j> != 0 for all j, k   (uniqueness)

Each U_k = sum_m |c_m><b_m| is assembled from two orthonormal bases grown
over the state set, held as the columns of matrices B and C. Each step adds
to the input basis B the next unused state's residual against B, then
projects every unused state onto the complement of the grown B at once; the
states whose residuals vanish (to the span tolerance) form the step's group.
The output basis C takes the uniform superposition of the basis kets indexed
by each group. A sweep that has used the same states as the reference sweep
(order[0]'s) at the same rank spans its space, so it takes the rest from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deutsch import DEFAULT_FP_TOL, DeutschInteraction, FixedPointResult, evolve, swap_then_control
from .qlinalg import PureState, basis_ket

DEFAULT_SPAN_TOL = 1e-8
DEFAULT_DISTINCT_TOL = 1e-6
_SHARE_TOL = 1e-12
_COND1_TOL = 1e-9
_FLOOR_MIN = 1e-9


class ConstructionError(RuntimeError):
    """The basis construction failed to satisfy its verification conditions
    (usually a span tolerance misclassifying nearly-dependent states)."""


@dataclass(frozen=True, eq=False)
class StateSet:
    """Exactly `dim` pairwise-distinct normalized states in dimension `dim`."""

    dim: int
    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        if len(self.states) != self.dim:
            raise ValueError(
                f"state count {len(self.states)} must equal the space dimension {self.dim}; "
                "pad with an ancilla to a larger dimension first"
            )
        for st in self.states:
            if st.dim != self.dim:
                raise ValueError(f"state of dim {st.dim} in a dim-{self.dim} set")

    def vectors(self) -> list[np.ndarray]:
        return [st.vector for st in self.states]


@dataclass(frozen=True)
class VerificationReport:
    floor_margin: float
    cond1_residual: float


@dataclass(frozen=True, eq=False)
class UnitaryFamily:
    """The unitaries {U_k} for the set ``states``, checked and verified once,
    when made: ``interaction`` is the swap-then-control circuit (the only
    unitarity check), ``unitaries`` its read-only (dim, dim, dim) array,
    ``report`` the two sufficiency conditions."""

    states: StateSet
    unitaries: np.ndarray
    interaction: DeutschInteraction = field(init=False)
    report: VerificationReport = field(init=False)

    def __post_init__(self) -> None:
        ix = swap_then_control(self.states.dim, self.unitaries)
        object.__setattr__(self, "interaction", ix)
        object.__setattr__(self, "unitaries", ix.family)
        object.__setattr__(self, "report", verify_family(self.states, self))


def validate_state_set(
    raw: list[PureState], distinct_tol: float = DEFAULT_DISTINCT_TOL
) -> StateSet:
    """Check that a state list forms a valid discrimination instance.

    The count must equal the common dimension (pad shorter states first) and
    every pair must be distinct up to global phase: overlap magnitude at most
    1 - distinct_tol.
    """
    if not raw:
        raise ValueError("state list is empty")
    s = StateSet(dim=raw[0].dim, states=tuple(raw))
    x = np.stack(s.vectors(), axis=1)
    overlaps = np.abs(x.conj().T @ x)
    clashes = np.argwhere(np.triu(overlaps > 1.0 - distinct_tol, k=1))
    if clashes.size:
        i, j = clashes[0]
        raise ValueError(
            f"states {i} and {j} coincide up to phase "
            f"(overlap {overlaps[i, j]:.9f} > 1 - {distinct_tol})"
        )
    return s


def pad_with_ancilla(
    states: list[PureState], target_dim: int, distinct_tol: float = DEFAULT_DISTINCT_TOL
) -> StateSet:
    """Append an all-zeros ancilla register to lift states into `target_dim`.

    Each |psi> becomes |psi> (x) |0..0>. The target must be an integer
    multiple of the state dimension and the list must have target_dim
    members afterwards; the padded list is validated with `distinct_tol`
    as in ``validate_state_set``.
    """
    if not states:
        raise ValueError("state list is empty")
    d = states[0].dim
    if target_dim % d != 0:
        raise ValueError(f"target dim {target_dim} is not a multiple of state dim {d}")
    d_anc = target_dim // d
    anc = basis_ket(d_anc, 0)
    padded = [PureState(np.kron(st.vector, anc)) for st in states]
    return validate_state_set(padded, distinct_tol)


def _project_out(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual of v (a vector, or each column of a matrix) against the
    orthonormal columns of `basis`."""
    return v - basis @ (basis.conj().T @ v)


def _reorthonormalize(r: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Second projection pass of a first-pass residual, then normalization.

    The second pass is for numerical stability; the normalization keeps
    whatever phase the subtraction produced.
    """
    r = _project_out(r, basis)
    return r / np.linalg.norm(r)


def _complete_basis(basis: np.ndarray, rank: int) -> np.ndarray:
    """Fill columns rank.. of a square matrix whose first `rank` columns are
    orthonormal, taking in order each standard ket whose residual against
    the columns so far exceeds 0.5 / sqrt(n)."""
    n = basis.shape[0]
    for i in range(n):
        if rank == n:
            break
        r = _project_out(basis_ket(n, i), basis[:, :rank])
        if np.linalg.norm(r) > 0.5 / np.sqrt(n):
            basis[:, rank] = _reorthonormalize(r, basis[:, :rank])
            rank += 1
    if rank != n:  # standard kets always suffice; defensive only
        raise ConstructionError("failed to complete orthonormal basis")
    return basis


def _sweep(
    x: np.ndarray, k: int, order: list[int], span_tol: float, meet: dict
) -> tuple[np.ndarray, np.ndarray, int, dict, bool]:
    """One sweep for target k over the states held as the columns of x.

    Returns the uncompleted bases B and C, their rank, the trail and whether
    it stopped where the trail met `meet`, another sweep's trail. The trail
    holds the unused list at each rank while the span is known to _SHARE_TOL:
    each grouped state and each pick's direction (correct to about eps over
    its first-pass residual norm) lie within it. `resid` holds the unused
    states' residuals as rows, each new column taken off by a rank-one step.
    """
    n = x.shape[0]
    b = np.zeros((n, n), dtype=complex)
    c = np.zeros((n, n), dtype=complex)
    b[:, 0] = x[:, k]
    c[k, 0] = 1.0
    unused = [i for i in order if i != k]
    resid = _project_out(x[:, unused], b[:, :1]).T.copy()
    rank = 1
    trail = {1: unused}
    while not (met := rank in trail and meet.get(rank) == unused) and unused:
        pick = np.linalg.norm(resid[0])
        if pick <= span_tol:
            raise ConstructionError(
                f"state {unused[0]} lies in the current span but was not grouped; "
                "span_tol is inconsistent"
            )
        b[:, rank] = _reorthonormalize(resid[0], b[:, :rank])
        resid -= np.outer(resid @ b[:, rank].conj(), b[:, rank])
        rank += 1
        norms = np.linalg.norm(resid, axis=1)
        grouped = norms <= span_tol
        members = [i for i, g in zip(unused, grouped) if g]
        c[members, rank - 1] = 1.0 / np.sqrt(len(members))
        unused = [i for i, g in zip(unused, grouped) if not g]
        error = max(norms[grouped].max(initial=0.0), np.finfo(float).eps / pick)
        if rank - 1 in trail and error <= _SHARE_TOL:
            trail[rank] = unused
        resid = resid[~grouped]
    return b, c, rank, trail, met


def construct_family(
    s: StateSet,
    order: list[int] | None = None,
    span_tol: float = DEFAULT_SPAN_TOL,
) -> UnitaryFamily:
    """Build the distinguishing unitaries for a validated state set.

    For each target index k the sweep starts from b_1 = |psi_k>, c_1 = |k>.
    Each further step appends to the input basis the normalized residual of
    the first unused state in `order` (default as-given) against the basis
    so far, projects all unused states against the grown basis, and groups
    those whose residual norm is at most `span_tol` into one
    uniform-superposition output vector. Both bases are completed with
    standard kets and U_k = C B^dag. Each sweep but order[0]'s stops where
    it meets that one (see `_sweep`) and takes the rest from it. The family
    is verified once, when it is packaged, and returned only if it meets
    both sufficiency conditions.
    """
    n = s.dim
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..N-1")
    x = np.stack(s.vectors(), axis=1)
    ref_b, ref_c, ref_rank, ref_trail, _ = _sweep(x, order[0], order, span_tol, {})
    _complete_basis(ref_b, ref_rank)
    unitaries = []
    for k in range(n):
        if k == order[0]:
            b, c, rank = ref_b, ref_c, ref_rank
        else:
            b, c, rank, _, met = _sweep(x, k, order, span_tol, ref_trail)
            if met:
                b[:, rank:], c[:, rank:] = ref_b[:, rank:], ref_c[:, rank:]
                rank = ref_rank
            else:  # tolerance or rounding kept this sweep's span apart
                _complete_basis(b, rank)
        unitaries.append(_complete_basis(c, rank) @ b.conj().T)
    family = UnitaryFamily(states=s, unitaries=unitaries)
    report = family.report
    if report.cond1_residual > _COND1_TOL:
        raise ConstructionError(
            f"condition 1 residual {report.cond1_residual:.3e} exceeds {_COND1_TOL}"
        )
    if report.floor_margin <= _FLOOR_MIN:
        raise ConstructionError(
            f"condition 2 floor {report.floor_margin:.3e} is below {_FLOOR_MIN}; "
            "a span tolerance misclassification is likely, retry with a "
            "different span_tol"
        )
    return family


def verify_family(s: StateSet, fam: UnitaryFamily) -> VerificationReport:
    """Recompute both sufficiency conditions for a family against a state set.

    Pure report: cond1_residual = max_k || U_k |psi_k> - |k> || and
    floor_margin = min_{j,k} |<j| U_k |psi_j>|, read from the products U_k X
    (states as columns): column k and the diagonal of slice k.
    """
    if fam.states.dim != s.dim:
        raise ValueError("family and state set dimensions differ")
    ux = fam.unitaries @ np.stack(s.vectors(), axis=1)
    k = np.arange(s.dim)
    cond1 = np.linalg.norm(ux[k, :, k] - np.eye(s.dim), axis=1).max()
    floor = np.abs(np.diagonal(ux, axis1=1, axis2=2)).min()
    return VerificationReport(floor_margin=float(floor), cond1_residual=float(cond1))


def build_distinguisher(s: StateSet, fam: UnitaryFamily) -> DeutschInteraction:
    """`fam.interaction` if `fam` meets condition 1 for `s`; re-verified only for another set."""
    report = fam.report if fam.states is s else verify_family(s, fam)
    if report.cond1_residual > _COND1_TOL:
        raise ConstructionError(
            f"family is not verified: condition 1 residual {report.cond1_residual:.3e}"
        )
    return fam.interaction


def classify(
    ix: DeutschInteraction, s: StateSet, j: int, fp_tol: float = DEFAULT_FP_TOL
) -> tuple[int, float, FixedPointResult]:
    """Run state j through the interaction and read the basis label.

    Returns (label, success probability, fixed-point diagnostics); the label
    is the argmax of the output diagonal and the output must be a basis
    projector to within 1e-8 per entry.
    """
    if not 0 <= j < s.dim:
        raise ValueError(f"index {j} out of range for a {s.dim}-state set")
    rho_in = s.states[j].projector()
    out, fp = evolve(ix, rho_in, fp_tol)
    diag = np.real(np.diag(out.matrix))
    label = int(np.argmax(diag))
    target = np.zeros((s.dim, s.dim), dtype=complex)
    target[label, label] = 1.0
    deviation = np.abs(out.matrix - target).max()
    if deviation > 1e-8:
        raise ConstructionError(
            f"output for state {j} is not a basis projector (max deviation {deviation:.3e})"
        )
    return label, float(diag[label]), fp


def classification_table(
    ix: DeutschInteraction, s: StateSet, fp_tol: float = DEFAULT_FP_TOL
) -> list[tuple[int, float, FixedPointResult]]:
    """The ``classify`` triple of every state in the set, in index order.

    Raises ``ConstructionError`` at the first state j whose label is not j,
    so every returned label equals its index.
    """
    table = []
    for j in range(s.dim):
        label, prob, fp = classify(ix, s, j, fp_tol)
        if label != j:
            raise ConstructionError(f"state {j} classified as {label}")
        table.append((label, prob, fp))
    return table
