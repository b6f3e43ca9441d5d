"""Constructive perfect discrimination of arbitrary distinct pure states.

Given N distinct states spanning at most an N-dimensional space, one can
build N unitaries {U_k} such that the swap-then-controlled-family interaction
run through the self-consistency engine maps every |psi_j> to the basis ket
|j> with certainty. Two properties make this work:

  condition 1:  U_k |psi_k> = |k>            (self-consistency of |k><k|)
  condition 2:  <j| U_k |psi_j> != 0 for all j, k   (uniqueness)

Each U_k = sum_m |c_m><b_m| is assembled from two orthonormal bases built by
Gram-Schmidt sweeps over the state set: the input basis (b) follows the
states, while the output basis (c) takes uniform superpositions of the basis
kets indexed by each group of states swallowed by the growing span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deutsch import (
    DeutschInteraction,
    FixedPointResult,
    evolve,
    swap_then_control,
)
from .qlinalg import PureState, basis_ket, is_unitary

DEFAULT_SPAN_TOL = 1e-8
DEFAULT_DISTINCT_TOL = 1e-6
_COND1_TOL = 1e-9
_FLOOR_MIN = 1e-9
_UNITARY_TOL = 1e-10


class ConstructionError(RuntimeError):
    """The basis construction failed to satisfy its verification conditions
    (usually a span tolerance misclassifying nearly-dependent states)."""


@dataclass(frozen=True)
class StateSet:
    """Exactly `dim` pairwise-distinct normalized states in dimension `dim`."""

    dim: int
    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        if len(self.states) != self.dim:
            raise ValueError(f"state count {len(self.states)} must equal dim {self.dim}")
        for st in self.states:
            if st.dim != self.dim:
                raise ValueError(f"state of dim {st.dim} in a dim-{self.dim} set")

    def vectors(self) -> list[np.ndarray]:
        return [st.vector for st in self.states]


@dataclass(frozen=True)
class ConstructionTrace:
    """Record of one basis-building sweep.

    ``input_basis`` holds the b vectors (Gram-Schmidt over the states),
    ``output_basis`` the c vectors (group superpositions), and ``groups``
    the sweep steps as (step index, member state indices, group size).
    """

    input_basis: tuple[PureState, ...]
    output_basis: tuple[PureState, ...]
    groups: tuple[tuple[int, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class UnitaryFamily:
    """The unitaries {U_k} of a distinguisher, plus construction traces."""

    dim: int
    unitaries: tuple[np.ndarray, ...]
    traces: tuple[ConstructionTrace, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.unitaries) != self.dim:
            raise ValueError(f"need {self.dim} unitaries, got {len(self.unitaries)}")
        frozen = []
        for k, u in enumerate(self.unitaries):
            u = np.asarray(u, dtype=complex)
            if u.shape != (self.dim, self.dim):
                raise ValueError(f"unitary {k} has shape {u.shape}")
            if not is_unitary(u, _UNITARY_TOL):
                raise ValueError(f"family member {k} is not unitary within 1e-10")
            u = u.copy()
            u.setflags(write=False)
            frozen.append(u)
        object.__setattr__(self, "unitaries", tuple(frozen))


@dataclass(frozen=True)
class VerificationReport:
    floor_margin: float
    cond1_residual: float


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
    dim = raw[0].dim
    for st in raw:
        if st.dim != dim:
            raise ValueError("states have mismatched dimensions")
    if len(raw) != dim:
        raise ValueError(
            f"state count {len(raw)} must equal the space dimension {dim}; "
            "pad with an ancilla to a larger dimension first"
        )
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            overlap = abs(raw[i].overlap(raw[j]))
            if overlap > 1.0 - distinct_tol:
                raise ValueError(
                    f"states {i} and {j} coincide up to phase "
                    f"(overlap {overlap:.9f} > 1 - {distinct_tol})"
                )
    return StateSet(dim=dim, states=tuple(raw))


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


def _orthonormalize_against(
    v: np.ndarray, basis: list[np.ndarray]
) -> tuple[np.ndarray, float]:
    """Gram-Schmidt residual of v against an orthonormal basis.

    Two projection passes for numerical stability; the residual norm is
    measured after the first pass (that is the quantity the span test uses)
    and the normalization keeps whatever phase the subtraction produced.
    """
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
    """Extend an orthonormal list to a full basis using standard kets."""
    out = list(vectors)
    for i in range(dim):
        if len(out) == dim:
            break
        cand, norm = _orthonormalize_against(basis_ket(dim, i), out)
        if norm > 0.5 / np.sqrt(dim):
            out.append(cand)
    if len(out) != dim:  # standard kets always suffice; defensive only
        raise ConstructionError("failed to complete orthonormal basis")
    return out


def _build_single_unitary(
    vectors: list[np.ndarray], k: int, order: list[int], span_tol: float
) -> tuple[np.ndarray, ConstructionTrace]:
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
    trace = ConstructionTrace(
        input_basis=tuple(PureState(b) for b in b_basis),
        output_basis=tuple(PureState(c) for c in c_basis),
        groups=tuple(groups),
    )
    return u, trace


def construct_family(
    s: StateSet,
    order: list[int] | None = None,
    span_tol: float = DEFAULT_SPAN_TOL,
) -> UnitaryFamily:
    """Build the distinguishing unitaries for a validated state set.

    For each target index k the sweep starts from b_1 = |psi_k>, c_1 = |k>,
    then repeatedly Gram-Schmidts the next unused state (following `order`,
    default as-given) into the input basis and groups every unused state
    whose residual against the grown span is at most `span_tol` into a
    uniform-superposition output vector. Both sufficiency conditions are
    verified before returning.
    """
    n = s.dim
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..N-1")
    vectors = s.vectors()
    unitaries = []
    traces = []
    for k in range(n):
        u, trace = _build_single_unitary(vectors, k, order, span_tol)
        unitaries.append(u)
        traces.append(trace)
    family = UnitaryFamily(dim=n, unitaries=tuple(unitaries), traces=tuple(traces))
    report = verify_family(s, family)
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
    floor_margin = min_{j,k} |<j| U_k |psi_j>|.
    """
    if fam.dim != s.dim:
        raise ValueError("family and state set dimensions differ")
    n = s.dim
    vectors = s.vectors()
    cond1 = 0.0
    floor = np.inf
    for k, u in enumerate(fam.unitaries):
        cond1 = max(cond1, float(np.linalg.norm(u @ vectors[k] - basis_ket(n, k))))
        for j in range(n):
            floor = min(floor, abs(complex((u @ vectors[j])[j])))
    return VerificationReport(floor_margin=float(floor), cond1_residual=cond1)


def build_distinguisher(s: StateSet, fam: UnitaryFamily) -> DeutschInteraction:
    """Package a verified family as the swap-then-control interaction."""
    report = verify_family(s, fam)
    if report.cond1_residual > _COND1_TOL:
        raise ConstructionError(
            f"family is not verified: condition 1 residual {report.cond1_residual:.3e}"
        )
    return swap_then_control(s.dim, list(fam.unitaries))


def classify(
    ix: DeutschInteraction, s: StateSet, j: int, fp_tol: float = 1e-9
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
    ix: DeutschInteraction, s: StateSet, fp_tol: float = 1e-9
) -> list[dict]:
    """Classify every state in the set; one record per index."""
    rows = []
    for j in range(s.dim):
        label, prob, fp = classify(ix, s, j, fp_tol)
        rows.append(
            {
                "j": j,
                "label": label,
                "success_prob": prob,
                "fixed_space_dim": fp.fixed_space_dim,
                "residual": fp.residual,
            }
        )
    return rows
