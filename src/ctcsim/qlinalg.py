"""Dense complex linear algebra substrate for quantum objects.

Matrices and vectors are plain ``numpy.ndarray`` values of dtype complex128.
The computational basis ket ``|i>`` is the i-th standard basis vector, and
multi-system indices are big-endian: in a tensor product the first factor is
the most significant digit, so ``|ab> = |a> (x) |b>`` sits at index
``a * d_b + b``.

All tolerances are max-entry (infinity-norm) bounds unless a function says
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in `dim` dimensions."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def plus_ket() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def minus_ket() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def swap_gate(dim: int) -> np.ndarray:
    """Unitary exchanging two `dim`-dimensional systems: SWAP|i,j> = |j,i>."""
    n = dim * dim
    eye = np.eye(n, dtype=complex).reshape(dim, dim, dim, dim)
    return eye.transpose(1, 0, 2, 3).reshape(n, n)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the big-endian ordering convention."""
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : square array of size ``dims[0] * dims[1]``
    dims : ``(d_A, d_B)`` factor dimensions, first factor most significant
    keep : 0 to return the d_A x d_A reduction, 1 for the d_B x d_B one
    """
    m = _as_matrix(m)
    d_a, d_b = dims
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = _as_matrix(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def is_unitary(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff max entry of ``|m^dag m - I|`` is within `tol`."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol


def eig_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and a unitary matrix whose columns are
    the matching eigenvectors. Raises if the input is not Hermitian within
    `tol` (general non-Hermitian eigensolving is deliberately unsupported).
    """
    m = _as_matrix(m)
    deviation = np.abs(m - m.conj().T).max()
    if deviation > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {deviation:.3e} > {tol:.3e}")
    eigenvalues, eigenvectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    return eigenvalues, eigenvectors


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1 between two Hermitian operators."""
    diff = _as_matrix(a) - _as_matrix(b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex state vector."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("state vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("state vector contains non-finite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "vector", _readonly(v))

    @property
    def dim(self) -> int:
        return self.vector.size

    @classmethod
    def normalized(cls, amplitudes: np.ndarray) -> "PureState":
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / norm)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))

    def overlap(self, other: "PureState") -> complex:
        return complex(self.vector.conj() @ other.vector)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one complex matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        herm_dev = np.abs(m - m.conj().T).max()
        if herm_dev > HERMITIAN_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
        trace_dev = abs(np.trace(m) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def eigenvalues(self) -> np.ndarray:
        values, _ = eig_hermitian(self.matrix)
        return values
