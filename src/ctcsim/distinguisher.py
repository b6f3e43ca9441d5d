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
by each group. When every group is one state, one QR of the states gives every
sweep; otherwise each target sweeps on its own and completes C in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deutsch import DEFAULT_FP_TOL, DeutschInteraction, FixedPointResult, evolve, swap_then_control
from .qlinalg import PureState, basis_ket

DEFAULT_SPAN_TOL = 1e-8
DEFAULT_DISTINCT_TOL = 1e-6
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
    orthonormal columns of `basis`, made without a conjugate copy of `basis`."""
    return v - basis @ (v.conj().T @ basis).conj().T


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
        r = basis_ket(n, i) - basis[:, :rank] @ basis[i, :rank].conj()
        if np.linalg.norm(r) > 0.5 / np.sqrt(n):
            basis[:, rank] = _reorthonormalize(r, basis[:, :rank])
            rank += 1
    if rank != n:  # standard kets always suffice; defensive only
        raise ConstructionError("failed to complete orthonormal basis")
    return basis


def _gram_schmidt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q^dag and R of m = QR with R's diagonal real and non-negative, as
    Gram-Schmidt of m's columns in order gives them."""
    q, r = np.linalg.qr(m)
    phase = np.exp(1j * np.angle(np.diagonal(r)))
    return (q * phase).conj().T, phase.conj()[:, None] * r


def _output_basis(group: np.ndarray) -> np.ndarray:
    """C for a sweep that put state i in group[i] (numbered by rank): the
    groups' uniform superpositions, then `_complete_basis`'s completion in
    closed form, as the groups have disjoint supports. Ket g_j of a group
    g_1 < ... < g_m adds (e_{g_j} - sum_{l>=j} e_{g_l}/t) / sqrt(1 - 1/t),
    t = m - j + 1, if j < m."""
    members = group == np.arange(group.max() + 1)[:, None]
    later = np.triu(group[:, None] == group)
    t = later.sum(axis=1, keepdims=True)
    keep = t[:, 0] > 1
    fill = (np.eye(group.size)[keep] - later[keep] / t[keep]) / np.sqrt(1 - 1 / t[keep])
    return np.hstack([members.T / np.sqrt(members.sum(axis=1)), fill.T])


def _sweep(x: np.ndarray, k: int, order: list[int], span_tol: float) -> np.ndarray:
    """U_k from one sweep for target k over the states held as the columns of
    x. `resid` holds the unused states' residuals as rows, each new column
    taken off by a rank-one step; `group` holds each state's group."""
    n = x.shape[0]
    b = np.zeros((n, n), dtype=complex)
    b[:, 0] = x[:, k]
    group = np.zeros(n, dtype=int)
    unused = [i for i in order if i != k]
    resid = _project_out(x[:, unused], b[:, :1]).T.copy()
    rank = 1
    while unused:
        if np.linalg.norm(resid[0]) <= span_tol:
            raise ConstructionError(
                f"state {unused[0]} lies in the current span but was not grouped; "
                "span_tol is inconsistent"
            )
        b[:, rank] = _reorthonormalize(resid[0], b[:, :rank])
        resid -= np.outer(resid @ b[:, rank].conj(), b[:, rank])
        grouped = np.linalg.norm(resid, axis=1) <= span_tol
        group[[i for i, g in zip(unused, grouped) if g]] = rank
        rank += 1
        unused = [i for i, g in zip(unused, grouped) if not g]
        resid = resid[~grouped]
    return _output_basis(group) @ _complete_basis(b, rank).conj().T


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
    standard kets and U_k = C B^dag. With X[:, order] = QR as Gram-Schmidt
    gives it, the sweep for order[i] first picks columns [i, 0..i-1] of R.
    If R's diagonal and theirs after a QR, the picks' residuals, all exceed
    `span_tol`, every group is one state and B_k is Q with its first i+1
    columns rotated by that QR; else each target runs `_sweep`. The family
    is verified once, when packaged, and returned only if it satisfies both
    sufficiency conditions.
    """
    n = s.dim
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..N-1")
    x = np.stack(s.vectors(), axis=1)
    qh, r = _gram_schmidt(x[:, order])
    unitaries = np.empty((n, n, n), dtype=complex)
    for i, k in enumerate(order):
        small_qh, small_r = _gram_schmidt(r[: i + 1, [i, *range(i)]])
        if min(np.diagonal(r).real.min(), np.diagonal(small_r).real.min()) <= span_tol:
            for j in range(n):
                unitaries[j] = _sweep(x, j, order, span_tol)
            break
        unitaries[k, [k, *order[:i]]] = small_qh @ qh[: i + 1]
        unitaries[k, order[i + 1 :]] = qh[i + 1 :]
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
    """`fam.interaction` if `fam` satisfies condition 1 for `s`; re-verified only for another set."""
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
