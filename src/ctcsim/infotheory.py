"""Entropy and Holevo-quantity calculators, in bits.

The headline demonstration: a receiver running the perfect distinguisher on an
ensemble of N distinct pure qubit-origin states with priors p extracts H(p)
bits from each transmitted qubit (log2 N under uniform priors), exceeding the
Holevo quantity chi of the physical single-qubit ensemble (at most one bit)
whenever H(p) > chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deutsch import DEFAULT_FP_TOL
from .distinguisher import (
    build_distinguisher,
    classification_table,
    construct_family,
    pad_with_ancilla,
)
from .qlinalg import DensityMatrix, PureState, eig_hermitian

_EIG_ZERO = 1e-14
_PRIOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Classical prior over a list of density matrices of common dimension."""

    priors: tuple[float, ...]
    states: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.priors) != len(self.states):
            raise ValueError("priors and states have different lengths")
        if not self.states:
            raise ValueError("ensemble is empty")
        if not all(0.0 <= p < np.inf for p in self.priors):
            raise ValueError("priors must be finite and nonnegative")
        if abs(sum(self.priors) - 1.0) > _PRIOR_TOL:
            raise ValueError(f"priors sum to {sum(self.priors)!r}, not 1")
        dim = self.states[0].dim
        if any(st.dim != dim for st in self.states):
            raise ValueError("ensemble states have mismatched dimensions")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @classmethod
    def uniform_pure(cls, states: list[PureState]) -> "Ensemble":
        n = len(states)
        return cls(
            priors=tuple(1.0 / n for _ in range(n)),
            states=tuple(st.projector() for st in states),
        )

    def average_state(self) -> DensityMatrix:
        acc = sum(p * st.matrix for p, st in zip(self.priors, self.states))
        return DensityMatrix(acc)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i, with 0 log 0 = 0.

    Eigenvalues below 1e-14 are treated as exactly zero.
    """
    values, _ = eig_hermitian(rho.matrix)
    values = values[values > _EIG_ZERO]
    return float(-(values * np.log2(values)).sum())


def holevo_chi(e: Ensemble) -> float:
    """Holevo quantity chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i)."""
    mixed = von_neumann_entropy(e.average_state())
    conditional = sum(p * von_neumann_entropy(st) for p, st in zip(e.priors, e.states))
    return float(mixed - conditional)


def _pure_vector(rho: DensityMatrix) -> PureState:
    values, vectors = eig_hermitian(rho.matrix)
    if abs(values[-1] - 1.0) > 1e-9:
        raise ValueError("ensemble state is not pure")
    return PureState.normalized(vectors[:, -1])


def _mutual_information_bits(joint: np.ndarray) -> float:
    """I(J;L) from a joint probability table (rows: source, cols: label)."""
    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mask = joint > 0
    p = joint[mask]
    return float(np.sum(p * np.log2(p / product[mask])))


def ctc_accessible_info(
    e: Ensemble, padded_dim: int, fp_tol: float = DEFAULT_FP_TOL
) -> float:
    """Information a distinguisher-equipped receiver extracts, in bits.

    The ensemble must consist of distinct pure states and must have exactly
    ``padded_dim`` members. Each state is padded with an all-zeros ancilla,
    the unitary family is constructed, and every state is classified
    through the self-consistency engine with fixed-point tolerance
    ``fp_tol`` by ``classification_table``, which raises unless state j
    reads label j. The result is the mutual information between
    the source index and the classification label: the Shannon entropy
    H(p) of the priors, the construction's perfect classification.
    """
    n = len(e.states)
    if n != padded_dim:
        raise ValueError(f"padded dim {padded_dim} must equal the ensemble size {n}")
    pure = [_pure_vector(st) for st in e.states]
    padded = pad_with_ancilla(pure, padded_dim)
    family = construct_family(padded)
    ix = build_distinguisher(padded, family)
    joint = np.zeros((n, n))
    for j, (label, _prob, _fp) in enumerate(classification_table(ix, padded, fp_tol)):
        joint[j, label] += e.priors[j]
    return _mutual_information_bits(joint)


def violation_report(e: Ensemble, padded_dim: int, fp_tol: float = DEFAULT_FP_TOL) -> dict:
    """Compare the Holevo quantity of the raw ensemble against what the
    distinguisher-equipped receiver obtains through the padded circuit."""
    chi = holevo_chi(e)
    accessible = ctc_accessible_info(e, padded_dim, fp_tol)
    return {
        "chi_bits": chi,
        "accessible_bits": accessible,
        "n_states": len(e.states),
        "qubit_dim": e.dim,
        "padded_dim": padded_dim,
        "violation": accessible > chi + 1e-9,
    }
