"""Self-consistent evolution engine for chronology-violating quantum systems.

A closed-timelike-curve (CTC) system interacts with an ordinary
(chronology-respecting) system through a joint unitary V acting on
system (x) CTC. The CTC state must equal its own post-interaction reduction,

    rho_ctc = Tr_sys[ V (rho_in (x) rho_ctc) V^dag ],

which makes rho_ctc a fixed point of the completely positive trace-preserving
map induced on the CTC factor by the chosen input. The output state is

    rho_out = Tr_ctc[ V (rho_in (x) rho_ctc) V^dag ].

The fixed-point condition is solved by one pipeline: reduce the map to a
matrix T, take the SVD nullspace of T - I as the fixed space, and lift it
back to operators. The reduction is chosen by the form of the interaction:

  - a dense V ("svd"): T is the induced map as a superoperator matrix S on
    row-major vectorized operators, and the lift is the reshape;
  - the swap-then-control circuit of a controlled family {U_k} ("markov"):
    its map M(rho) = sum_k rho_kk U_k rho_in U_k^dag depends only on the
    diagonal of rho, so its fixed points are rho = sum_k p_k U_k rho_in U_k^dag
    with p in the fixed space of a d-state column-stochastic matrix A. T is
    A, at every fixed-space dimension, and the lift is p -> that sum.

Uniqueness is certified by the dimension of the nullspace in both.

The composite map rho_in -> rho_out is nonlinear in rho_in because rho_ctc
itself depends on rho_in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qlinalg import (
    DensityMatrix,
    dagger,
    is_unitary,
    partial_trace,
    tensor,
    trace_distance,
)

DEFAULT_FP_TOL = 1e-9
SELF_CONSISTENCY_TOL = 1e-8
_UNITARY_TOL = 1e-10
_EIG_CLIP = 1e-9


class FixedPointSolverError(RuntimeError):
    """No density-matrix fixed point could be extracted.

    A trace-preserving completely positive map always has at least one
    density-matrix fixed point, so this signals numerical failure or an
    interaction that is not actually a channel.
    """


class NonUniqueFixedPointError(RuntimeError):
    """Raised when a caller demands a single output but the fixed-point
    space has dimension greater than one. Carries the full diagnostics."""

    def __init__(self, result: "FixedPointResult"):
        super().__init__(
            f"fixed-point space has dimension {result.fixed_space_dim}; "
            "the output state is ambiguous"
        )
        self.result = result


class DeutschInteraction:
    """Unitary interaction between a system and a CTC factor.

    The joint space is ordered system first, CTC second, so V acts on
    C^(d_sys) (x) C^(d_ctc). An interaction is given either by its dense
    matrix V or, for the swap-then-control circuit (see
    ``swap_then_control``), by its controlled family alone: ``family`` is
    then the read-only (d, d, d) array of the unitaries U_k, and V is formed
    on first access and kept. Instances are immutable.
    """

    def __init__(
        self,
        d_sys: int,
        d_ctc: int,
        V: np.ndarray | None = None,
        *,
        family: list[np.ndarray] | np.ndarray | None = None,
    ) -> None:
        vars(self).update(d_sys=d_sys, d_ctc=d_ctc, _V=V, family=family)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate and freeze the dense V or the family; every construction
        passes through here."""
        if self.d_sys < 1 or self.d_ctc < 1:
            raise ValueError("subsystem dimensions must be positive")
        if (self._V is None) == (self.family is None):
            raise ValueError("give exactly one of V and family")
        if self.family is not None:
            if self.d_sys != self.d_ctc:
                raise ValueError("a controlled family needs d_sys == d_ctc")
            object.__setattr__(self, "family", _family_array(self.d_ctc, self.family))
            return
        v = np.asarray(self._V, dtype=complex)
        n = self.d_sys * self.d_ctc
        if v.shape != (n, n):
            raise ValueError(f"V has shape {v.shape}, expected ({n}, {n})")
        if not is_unitary(v, _UNITARY_TOL):
            raise ValueError("V is not unitary within 1e-10")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "_V", v)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DeutschInteraction is immutable; cannot set {name!r}")

    @property
    def V(self) -> np.ndarray:
        """The dense unitary, read-only. For a family it is C(U_0..U_{d-1}) SWAP,
        built on first access by ``_swap_then_control_matrix``."""
        if self._V is None:
            v = _swap_then_control_matrix(self.family)
            v.setflags(write=False)
            object.__setattr__(self, "_V", v)
        return self._V


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """What a fixed-point solve decided, for an induced CTC map.

    fixed_space_dim counts the operator-space solutions of M(rho) = rho,
    ``basis`` spans that space, and ``representative`` is a density matrix
    inside it (``fixed_points`` raises when it finds none). ``residual`` is
    the max-entry self-consistency defect of the representative, and
    ``solver`` the reduction used: "markov" for an interaction that carries
    its family, "svd" for a dense V. ``interaction`` and ``rho_in`` are the
    solved problem, held by reference, not copied.

    ``unique`` and ``spectrum_gap`` are derived on read. The gap,
    1 - |second largest eigenvalue| of the reduced matrix, is a convergence
    diagnostic that no solve depends on, so the reduced matrix is rebuilt
    and its eigenvalues taken on the first read only.
    """

    fixed_space_dim: int
    residual: float
    representative: DensityMatrix
    basis: list[np.ndarray]
    solver: str
    interaction: DeutschInteraction
    rho_in: DensityMatrix

    @property
    def unique(self) -> bool:
        return self.fixed_space_dim == 1

    @cached_property
    def spectrum_gap(self) -> float:
        t = _reduced_form(self.interaction, self.rho_in)[0]
        moduli = np.sort(np.abs(np.linalg.eigvals(t)))[::-1]
        if moduli.size < 2:
            return 1.0
        return float(1.0 - moduli[1])


def _family_array(dim: int, family) -> np.ndarray:
    """The family as one read-only (dim, dim, dim) array, after checking the
    count and the shape and unitarity of every member."""
    us = np.array(family, dtype=complex)
    if us.shape != (dim, dim, dim):
        raise ValueError(f"need exactly {dim} unitaries of shape ({dim}, {dim}), got {us.shape}")
    for k, u in enumerate(us):
        if not is_unitary(u, _UNITARY_TOL):
            raise ValueError(f"family member {k} is not unitary")
    us.setflags(write=False)
    return us


def _block_diagonal(us: np.ndarray) -> np.ndarray:
    d = us.shape[0]
    v = np.zeros((d, d, d, d), dtype=complex)
    k = np.arange(d)
    v[k, :, k, :] = us
    return v.reshape(d * d, d * d)


def _swap_then_control_matrix(us: np.ndarray) -> np.ndarray:
    """C(U_0..U_{d-1}) SWAP in one allocation: it sends |i j> to |j> (x) U_j |i>,
    so <j m|V|i j> = U_j[m, i] are its only nonzero entries."""
    d = us.shape[0]
    v = np.zeros((d, d, d, d), dtype=complex)
    k = np.arange(d)
    v[k, :, :, k] = us
    return v.reshape(d * d, d * d)


def controlled_family(dim: int, family: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal controlled unitary sum_k |k><k| (x) U_k.

    The control is the first (most significant) factor, so the result is
    literally block diagonal with blocks U_0 .. U_{dim-1}.
    """
    return _block_diagonal(_family_array(dim, family))


def swap_then_control(dim: int, family: list[np.ndarray] | np.ndarray) -> DeutschInteraction:
    """Interaction that swaps system and CTC, then applies the controlled family.

    This is the canonical distinguisher circuit shape: V = C(U_0..U_{d-1}) * SWAP
    with equal system and CTC dimensions. The interaction carries the family
    itself, each member checked for unitarity once; V is built only when
    something asks for it, which ``fixed_points``, ``evolve`` and
    ``output_state`` never do.
    """
    return DeutschInteraction(dim, dim, family=family)


def _check_input_dim(ix: DeutschInteraction, rho_in: DensityMatrix) -> None:
    if rho_in.dim != ix.d_sys:
        raise ValueError(f"input dim {rho_in.dim} does not match system dim {ix.d_sys}")


def induced_map(ix: DeutschInteraction, rho_in: DensityMatrix) -> np.ndarray:
    """Superoperator matrix of rho -> Tr_sys[V (rho_in (x) rho) V^dag].

    Returns S of shape (d_ctc^2, d_ctc^2) with vec(M(rho)) = S @ vec(rho)
    for row-major vec. Reading V as the tensor V[s, c, t, i] (output system,
    output CTC, input system, input CTC index),

        S[(c, c'), (i, j)] = sum_{s, t, u} V[s, c, t, i] rho_in[t, u] conj(V[s, c', u, j]),

    which is evaluated as two tensor contractions: W = V rho_in over t, then
    W against conj(V) over (s, u). That costs O(d_sys^2 d_ctc^4) operations,
    where applying the map to each of the d_ctc^2 matrix units costs
    O(d_sys^3 d_ctc^5).
    """
    _check_input_dim(ix, rho_in)
    d_s, d = ix.d_sys, ix.d_ctc
    v = ix.V.reshape(d_s, d, d_s, d)
    w = np.einsum("scti,tu->scui", v, rho_in.matrix, optimize=True)
    s = np.einsum("scui,sduj->cdij", w, v.conj(), optimize=True)
    return s.reshape(d * d, d * d)


def apply_superoperator(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)


def _nullspace_of_shifted(t: np.ndarray, fp_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Right and left nullspace bases of (T - I), as columns.

    Singular values at or below fp_tol * max(sigma_max, 1) count as zero. The
    shift by I sets a scale of at least one: when T - I is nothing but
    rounding, sigma_max is itself at rounding level, and a rule relative to
    it alone would count the noise as nonzero.
    """
    u, sing, vh = np.linalg.svd(t - np.eye(t.shape[0]))
    zero = sing <= fp_tol * sing.max(initial=1.0)
    return vh[zero].conj().T, u[:, zero]


def _clip_to_density(h: np.ndarray) -> DensityMatrix | None:
    """Normalize a Hermitian matrix to trace one and clip eigenvalue noise.

    Eigenvalues in [-1e-9, 0) are treated as rounding and set to zero; any
    larger negative part means the matrix is not a state and None is returned.
    """
    tr = np.trace(h).real
    if abs(tr) < 1e-12:
        return None
    rho = h / tr
    rho = (rho + rho.conj().T) / 2.0
    values, vectors = np.linalg.eigh(rho)
    if values.min() < -_EIG_CLIP:
        return None
    clipped = np.clip(values, 0.0, None)
    rho = (vectors * clipped) @ vectors.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def _reduced_form(ix: DeutschInteraction, rho_in: DensityMatrix):
    """The CTC map of ``ix`` for ``rho_in`` as a matrix T on a reduced space.

    Returns (T, start, lift, ctc_map, solver). ``lift`` sends columns of the
    reduced space to row-major vectorized operators; it maps the fixed space
    of T onto the fixed space of M, and the spectral projection of ``start``
    onto that of I/d. ``ctc_map`` applies M to a (d, d) matrix.

      - dense V: T is the superoperator S, start is vec(I/d) and lift is
        the identity;
      - family: with W_k = U_k rho_in U_k^dag the map is
        M(rho) = sum_k rho_kk W_k, so rho is fixed iff rho = sum_k p_k W_k
        with A p = p, where A_mk = (W_k)_mm is column stochastic. T is A,
        start is the uniform vector 1/d and lift is x -> sum_k x_k W_k.
    """
    d = ix.d_ctc
    if ix.family is None:
        s = induced_map(ix, rho_in)
        start = (np.eye(d, dtype=complex) / d).reshape(-1)
        return s, start, lambda x: x, lambda rho: apply_superoperator(s, rho), "svd"
    us = ix.family
    w = us @ rho_in.matrix @ us.conj().transpose(0, 2, 1)
    # A is real but held as complex: the SVD and eigensolve then run the same
    # complex LAPACK routines as every other solve, where the real ones would
    # page in about 0.5 MB more of the library.
    a = np.diagonal(w, axis1=1, axis2=2).real.T.astype(complex)
    start = np.full(d, 1.0 / d, dtype=complex)
    w_cols = w.reshape(d, d * d).T  # column k is vec(W_k)
    return (a, start, lambda x: w_cols @ x,
            lambda rho: (w_cols @ np.diagonal(rho)).reshape(d, d), "markov")


def _density_representative(
    right: np.ndarray, left: np.ndarray, start: np.ndarray, lifted: np.ndarray, d: int
) -> DensityMatrix:
    """A density-matrix fixed point from the nullspace of T - I.

    The eigenvalue one of a channel or a stochastic chain is semisimple, so
    the spectral projection onto its eigenspace is R (L^dag R)^{-1} L^dag,
    with R, L the right and left nullspace bases. Applied to ``start`` and
    lifted (``lifted`` holds the lifted columns of R) it gives the spectral
    projection of I/d onto the fixed space of the CTC map, itself a fixed
    state; for a one-dimensional space that is the null vector scaled to
    trace one. Raises ``FixedPointSolverError`` should the solve be singular
    or rounding leave the projection outside the state space.
    """
    try:
        coeffs = np.linalg.solve(left.conj().T @ right, left.conj().T @ start)
    except np.linalg.LinAlgError as e:
        raise FixedPointSolverError(
            f"the spectral projection onto the fixed space is singular ({e}); "
            "numerical failure"
        ) from e
    projected = (lifted @ coeffs).reshape(d, d)
    rho = _clip_to_density((projected + projected.conj().T) / 2.0)
    if rho is None:
        raise FixedPointSolverError(
            "the spectral projection of I/d leaves the state space beyond the "
            "eigenvalue-clip tolerance; numerical failure"
        )
    return rho


def fixed_points(
    ix: DeutschInteraction,
    rho_in: DensityMatrix,
    fp_tol: float = DEFAULT_FP_TOL,
) -> FixedPointResult:
    """Solve the self-consistency condition for the CTC state.

    One pipeline with two reductions, chosen by the form of the interaction
    (see ``_reduced_form``): a dense V is solved on its superoperator S
    (``solver`` "svd"), a swap-then-control interaction that carries its
    family on the d x d chain matrix A of its CTC map (``solver`` "markov"),
    at every fixed-space dimension and without forming V or S. The fixed
    space is the SVD nullspace of T - I for the reduced matrix T, singular
    values at or below ``fp_tol * max(sigma_max, 1)`` counted as zero, and
    lifted back to operators. The fixed-point space dimension, a spanning
    operator basis (each element of unit norm), and a density-matrix
    representative are reported. The solve costs one SVD of T - I; no
    eigenvalues are taken unless ``spectrum_gap`` is read.
    """
    if not 0.0 < fp_tol < np.inf:
        raise ValueError("fp_tol must be finite and positive")
    _check_input_dim(ix, rho_in)
    d = ix.d_ctc
    t, start, lift, ctc_map, solver = _reduced_form(ix, rho_in)
    right, left = _nullspace_of_shifted(t, fp_tol)
    dim = right.shape[1]
    if dim == 0:
        raise FixedPointSolverError(
            "no fixed point found: the nullspace of (T - I) is empty, which "
            "cannot happen for a trace-preserving map; check fp_tol"
        )
    lifted = lift(right)
    basis = [(col / np.linalg.norm(col)).reshape(d, d) for col in lifted.T]
    representative = _density_representative(right, left, start, lifted, d)
    rho = representative.matrix
    return FixedPointResult(
        fixed_space_dim=dim,
        residual=float(np.abs(ctc_map(rho) - rho).max()),
        representative=representative,
        basis=basis,
        solver=solver,
        interaction=ix,
        rho_in=rho_in,
    )


def _system_output(
    ix: DeutschInteraction, rho_in: DensityMatrix, rho_ctc: DensityMatrix
) -> DensityMatrix:
    """Tr_ctc[V (rho_in (x) rho_ctc) V^dag], without V when ``ix`` carries its family."""
    if ix.family is not None:
        return _family_output(ix.family, rho_in, rho_ctc)
    joint = ix.V @ tensor(rho_in.matrix, rho_ctc.matrix) @ dagger(ix.V)
    out = partial_trace(joint, (ix.d_sys, ix.d_ctc), keep=0)
    return DensityMatrix((out + out.conj().T) / 2.0)


def _family_output(
    us: np.ndarray, rho_in: DensityMatrix, rho_ctc: DensityMatrix
) -> DensityMatrix:
    """Tr_ctc of the swap-then-control joint state, without V:
    rho_out[k, l] = rho_ctc[k, l] Tr(U_k rho_in U_l^dag)."""
    d = us.shape[0]
    overlaps = (us @ rho_in.matrix).reshape(d, -1) @ us.reshape(d, -1).conj().T
    out = rho_ctc.matrix * overlaps
    return DensityMatrix((out + out.conj().T) / 2.0)


def _check_self_consistency(residual: float) -> None:
    if residual > SELF_CONSISTENCY_TOL:
        raise ValueError(
            f"rho_ctc violates self-consistency: residual {residual:.3e} > {SELF_CONSISTENCY_TOL}"
        )


def output_state(
    ix: DeutschInteraction, rho_in: DensityMatrix, rho_ctc: DensityMatrix
) -> DensityMatrix:
    """Output of the chronology-respecting system, Tr_ctc[V (rho_in (x) rho_ctc) V^dag].

    ``rho_ctc`` must already satisfy the self-consistency condition for this
    interaction and input (max-entry residual at most 1e-8). An interaction
    that carries its family forms neither V nor the superoperator.
    """
    if rho_in.dim != ix.d_sys or rho_ctc.dim != ix.d_ctc:
        raise ValueError("state dimensions do not match the interaction")
    ctc_map = _reduced_form(ix, rho_in)[3]
    rho = rho_ctc.matrix
    _check_self_consistency(float(np.abs(ctc_map(rho) - rho).max()))
    return _system_output(ix, rho_in, rho_ctc)


def evolve(
    ix: DeutschInteraction, rho_in: DensityMatrix, fp_tol: float = DEFAULT_FP_TOL
) -> tuple[DensityMatrix, FixedPointResult]:
    """Solve the fixed point, then evaluate the output state.

    Refuses to produce an output when the fixed point is not unique: the
    raised ``NonUniqueFixedPointError`` carries the ``FixedPointResult`` so
    callers can inspect the ambiguity. The reduced map is built once: the
    self-consistency check that ``output_state`` makes is read from
    ``fp.residual``, the same defect of the same map.
    """
    fp = fixed_points(ix, rho_in, fp_tol)
    if not fp.unique:
        raise NonUniqueFixedPointError(fp)
    _check_self_consistency(fp.residual)
    return _system_output(ix, rho_in, fp.representative), fp


def _power_sum(s: np.ndarray, m: int) -> np.ndarray:
    """G_m = sum_{i<m} S^i by binary doubling over the bits of m:
    G_2k = G_k + S^k G_k and G_(k+1) = I + S G_k, with S^k carried along.
    About 3 log2(m) matrix products, all of them powers of S."""
    eye = np.eye(s.shape[0], dtype=s.dtype)
    g = np.zeros_like(s)
    p = eye
    for bit in bin(m)[2:]:
        g = g + p @ g
        p = p @ p
        if bit == "1":
            g = eye + s @ g
            p = s @ p
    return g


def cesaro_iterate(
    ix: DeutschInteraction, rho_in: DensityMatrix, iters: int
) -> DensityMatrix:
    """Tail average of repeated map applications, starting from I/d.

    Returns the mean of the last ceil(T/2) of the iterates M^t(I/d),
    t = 1..T with T = ``iters``: (1/ceil(T/2)) sum_{t=floor(T/2)+1..T}
    M^t(I/d); ``iters = 1`` returns the last (and only) iterate M(I/d)
    alone. With b = floor(T/2) and m = ceil(T/2) that sum is
    S^(b+1) G_m vec(I/d), where S is the induced superoperator and
    G_m = sum_{i<m} S^i is formed by binary doubling; S^(b+1) is formed by
    repeated squaring. Serves as an iteration-based oracle independent of
    the SVD nullspace route: it uses nothing but powers of S, no SVD and no
    eigensolve, and equals the one-iterate-at-a-time sum up to rounding.

    Discarding the first half removes the transient that a mean from t = 1
    carries, of order 1/(T * gap). The error of the tail average is
      - for eigenvalues inside the unit disk, roughly
        |lambda_2|^(T/2) / ((T/2)(1 - |lambda_2|)), with lambda_2 the
        largest of them in modulus: geometric in T, not 1/T;
      - for unit-modulus eigenvalues other than 1 (periodic maps), O(1/T),
        at most twice the bound of the mean from t = 1, since half as many
        iterates are averaged;
    and the limit is the same as the mean from t = 1: the spectral
    projection of I/d onto the fixed space of M. For a unique fixed point
    that is the fixed state; for a non-unique fixed space it is one
    particular fixed state, not a certificate of uniqueness.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    d = ix.d_ctc
    s = induced_map(ix, rho_in)
    v = (np.eye(d, dtype=complex) / d).reshape(-1)
    burn_in = iters // 2
    tail = iters - burn_in
    total = np.linalg.matrix_power(s, burn_in + 1) @ (_power_sum(s, tail) @ v)
    avg = (total / tail).reshape(d, d)
    avg = (avg + avg.conj().T) / 2.0
    rho = _clip_to_density(avg)
    if rho is None:
        raise FixedPointSolverError("iteration average left the state space")
    return rho


def nonlinearity_gap(
    ix: DeutschInteraction,
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    weight: float,
    fp_tol: float = DEFAULT_FP_TOL,
) -> float:
    """Trace distance between evolving a mixture and mixing the evolutions.

    Computes D( evolve(w a + (1-w) b), w evolve(a) + (1-w) evolve(b) ).
    A nonzero value witnesses the nonlinearity of the composite input-output
    map. Mixed inputs enter the self-consistency condition in place of the
    pure-state projector. All three evolutions must have unique fixed points.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    mixed = DensityMatrix(weight * rho_a.matrix + (1.0 - weight) * rho_b.matrix)
    out_mixed, _ = evolve(ix, mixed, fp_tol)
    out_a, _ = evolve(ix, rho_a, fp_tol)
    out_b, _ = evolve(ix, rho_b, fp_tol)
    blend = weight * out_a.matrix + (1.0 - weight) * out_b.matrix
    return trace_distance(out_mixed.matrix, blend)
