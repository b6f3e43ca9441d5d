"""Correctness checks for benchmark outputs, computed apart from ctcsim.

Every check recomputes what it needs with plain numpy from the generated
inputs, or tests a property the method must have. None of them compares
against stored output and none calls into the package. A failed check raises
``CheckError``.
"""

from __future__ import annotations

import json
import math

import numpy as np

STATE_TOL = 1e-10          # Hermiticity, trace and positivity of a density matrix
RESIDUAL_TOL = 1e-8        # self-consistency defect of a solved CTC state
OUTPUT_TOL = 1e-10         # package output against our own Tr_ctc
ITERATION_TOL = 1e-8       # solver fixed point against our own iteration
UNITARY_TOL = 1e-10
COND1_TOL = 1e-9
FLOOR_MIN = 1e-9
PROB_MIN = 1.0 - 1e-9
BINOMIAL_Z = 6.0           # closed-form QKD rates are checked within 6 sigma


class CheckError(AssertionError):
    """A benchmark output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _joint(V: np.ndarray, rho_in: np.ndarray, rho_ctc: np.ndarray) -> np.ndarray:
    return V @ np.kron(rho_in, rho_ctc) @ V.conj().T


def ctc_map(V: np.ndarray, d_sys: int, d_ctc: int, rho_in: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr_sys[V (rho_in x rho) V^dag], with the trace taken by our own einsum."""
    return np.einsum("sasb->ab", _joint(V, rho_in, rho).reshape(d_sys, d_ctc, d_sys, d_ctc))


def sys_output(V: np.ndarray, d_sys: int, d_ctc: int, rho_in: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr_ctc[V (rho_in x rho) V^dag]."""
    return np.einsum("acbc->ab", _joint(V, rho_in, rho).reshape(d_sys, d_ctc, d_sys, d_ctc))


def superoperator(V: np.ndarray, d_sys: int, d_ctc: int, rho_in: np.ndarray) -> np.ndarray:
    """Matrix of rho -> Tr_sys[V (rho_in x rho) V^dag] on row-major vec(rho)."""
    v4 = V.reshape(d_sys, d_ctc, d_sys, d_ctc)
    s = np.einsum("tasc,sr,tbre->abce", v4, rho_in, v4.conj(), optimize=True)
    return s.reshape(d_ctc * d_ctc, d_ctc * d_ctc)


def tail_average(s: np.ndarray, start: np.ndarray, max_steps: int = 1 << 16) -> np.ndarray:
    """Average of the last half of T iterates of ``s`` from ``start``.

    T doubles from 256 until two successive averages agree to 1e-13. This is
    a pure iteration oracle: it uses no factorization of ``s``.
    """
    d = start.shape[0]
    steps, previous = 256, None
    while True:
        v = start.reshape(-1)
        acc = np.zeros_like(v)
        for t in range(steps):
            v = s @ v
            if t >= steps // 2:
                acc += v
        avg = (acc / (steps - steps // 2)).reshape(d, d)
        if previous is not None and np.abs(avg - previous).max() < 1e-13:
            return avg
        if steps >= max_steps:
            return avg
        previous, steps = avg, 2 * steps


def check_state(rho: np.ndarray, what: str) -> None:
    require(np.abs(rho - rho.conj().T).max() <= STATE_TOL, f"{what}: not Hermitian")
    require(abs(np.trace(rho) - 1.0) <= STATE_TOL, f"{what}: trace {np.trace(rho)} is not 1")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    require(low >= -STATE_TOL, f"{what}: negative eigenvalue {low:.3e}")


def check_solved(V: np.ndarray, d_sys: int, d_ctc: int, rho_in: np.ndarray, rho_ctc: np.ndarray) -> None:
    """A solved CTC state is a density matrix and a fixed point of our own map."""
    check_state(rho_ctc, "CTC state")
    residual = float(np.abs(ctc_map(V, d_sys, d_ctc, rho_in, rho_ctc) - rho_ctc).max())
    require(residual <= RESIDUAL_TOL, f"CTC state residual {residual:.3e} > {RESIDUAL_TOL}")


def iterated_fixed_point(V: np.ndarray, d_sys: int, d_ctc: int, rho_in: np.ndarray) -> np.ndarray:
    """Fixed point by tail-averaged iteration from two starting states.

    The two averages must agree, which they do only when the fixed point is
    unique; the first is returned.
    """
    s = superoperator(V, d_sys, d_ctc, rho_in)
    mixed = np.eye(d_ctc, dtype=complex) / d_ctc
    ket0 = np.zeros((d_ctc, d_ctc), dtype=complex)
    ket0[0, 0] = 1.0
    a, b = tail_average(s, mixed), tail_average(s, ket0)
    gap = float(np.abs(a - b).max())
    require(gap <= ITERATION_TOL, f"iteration from two starts disagrees by {gap:.3e}")
    return a


def check_evolution(V, d_sys, d_ctc, rho_in, out, rho_ctc) -> None:
    """Output of ``evolve``: solved state, unique fixed point, own Tr_ctc."""
    check_solved(V, d_sys, d_ctc, rho_in, rho_ctc)
    reference = iterated_fixed_point(V, d_sys, d_ctc, rho_in)
    dev = float(np.abs(reference - rho_ctc).max())
    require(dev <= ITERATION_TOL, f"solver fixed point is {dev:.3e} from the iterated one")
    own = sys_output(V, d_sys, d_ctc, rho_in, rho_ctc)
    dev = float(np.abs(own - out).max())
    require(dev <= OUTPUT_TOL, f"output state is {dev:.3e} from our own Tr_ctc")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def check_nonlinearity_gap(V, d_sys, d_ctc, rho_a, rho_b, weight, gap) -> None:
    """Recompute D(evolve(w a + (1-w) b), w evolve(a) + (1-w) evolve(b))."""
    def out(rho_in):
        return sys_output(V, d_sys, d_ctc, rho_in, iterated_fixed_point(V, d_sys, d_ctc, rho_in))

    mixed = weight * rho_a + (1.0 - weight) * rho_b
    blend = weight * out(rho_a) + (1.0 - weight) * out(rho_b)
    own = trace_distance(out(mixed), blend)
    require(abs(own - gap) <= ITERATION_TOL, f"nonlinearity gap {gap!r} against own {own!r}")


def check_degenerate(fp_dim: int, unique: bool, representative: np.ndarray, d_ctc: int) -> None:
    """I (x) D with distinct phases fixes exactly the diagonal matrices."""
    require(fp_dim == d_ctc, f"fixed space dimension {fp_dim}, expected {d_ctc}")
    require(not unique, "degenerate interaction reported a unique fixed point")
    dev = float(np.abs(representative - np.eye(d_ctc) / d_ctc).max())
    require(dev <= STATE_TOL, f"representative is {dev:.3e} from I/d")


def family_products(vectors: np.ndarray, unitaries) -> np.ndarray:
    """P[k, j, m] = (U_k psi_j)[m] for states given as rows of ``vectors``."""
    return np.einsum("kmi,ji->kjm", np.asarray(unitaries), vectors)


def check_family(vectors: np.ndarray, unitaries) -> tuple[float, float]:
    """Unitarity and both sufficiency conditions; returns (cond1, floor)."""
    n = vectors.shape[0]
    eye = np.eye(n)
    for k, u in enumerate(unitaries):
        dev = float(np.abs(u.conj().T @ u - eye).max())
        require(dev <= UNITARY_TOL, f"U_{k} deviates from unitary by {dev:.3e}")
    p = family_products(vectors, unitaries)
    idx = np.arange(n)
    cond1 = float(np.linalg.norm(p[idx, idx, :] - eye, axis=1).max())
    floor = float(np.abs(p[:, idx, idx]).min())
    require(cond1 <= COND1_TOL, f"condition 1 residual {cond1:.3e} > {COND1_TOL}")
    require(floor > FLOOR_MIN, f"condition 2 floor {floor:.3e} <= {FLOOR_MIN}")
    return cond1, floor


def check_report(report, cond1: float, floor: float) -> None:
    """The package's verification report agrees with our recomputation."""
    require(abs(report.cond1_residual - cond1) <= COND1_TOL, "verify_family: condition 1 differs")
    require(abs(report.floor_margin - floor) <= 1e-12, "verify_family: floor margin differs")


def check_swap_then_control(V: np.ndarray, unitaries) -> None:
    """V = C(U_0..U_{d-1}) SWAP: <j m| V |i j'> = delta_{j j'} (U_j)_{m i}.

    Compares the blocks in place and then the total weight, so that no
    dense copy of V is made.
    """
    d = len(unitaries)
    v4 = V.reshape(d, d, d, d)
    for j, u in enumerate(unitaries):
        dev = float(np.abs(v4[j, :, :, j] - u).max())
        require(dev <= 1e-12, f"block {j} of the interaction differs from U_{j} by {dev:.3e}")
    total = float(np.vdot(V, V).real)
    require(abs(total - d * d) <= 1e-8 * d * d, "interaction has weight outside the controlled blocks")


def check_classification(label: int, prob: float, j: int) -> None:
    require(label == j, f"state {j} classified as {label}")
    require(prob >= PROB_MIN, f"state {j} success probability {prob!r} < {PROB_MIN}")


def check_holevo(qubits: np.ndarray, report: dict) -> None:
    """accessible = log2 N; chi from eigvalsh of the average state, <= 1 bit."""
    n = qubits.shape[0]
    acc = report["accessible_bits"]
    require(abs(acc - math.log2(n)) <= 1e-9, f"accessible {acc!r} bits, expected log2 {n}")
    avg = sum(projector(q) for q in qubits) / n
    values = np.linalg.eigvalsh(avg)
    values = values[values > 1e-14]
    chi = float(-(values * np.log2(values)).sum())
    require(abs(chi - report["chi_bits"]) <= 1e-10, f"chi {report['chi_bits']!r} against own {chi!r}")
    require(chi <= 1.0 + 1e-12, f"qubit ensemble chi {chi!r} exceeds one bit")
    require(bool(report["violation"]) == (n > 2), "violation flag contradicts log2 N > 1")


# (sifted fraction, QBER, eve_info) per protocol and eavesdropper.
QKD_EXPECTED = {
    ("bb84", "none"): (1 / 2, 0.0, 0.0),
    ("bb84", "ctc"): (1 / 2, 0.0, 1.0),
    ("bb84", "intercept_resend_z"): (1 / 2, 1 / 4, 3 / 4),
    ("b92", "none"): (1 / 4, 0.0, 0.0),
    ("b92", "ctc"): (1 / 4, 0.0, 1.0),
    ("b92", "intercept_resend_z"): (3 / 8, 1 / 3, 5 / 6),
}


def check_rate(observed: float, p: float, n: int, what: str) -> None:
    """Exact for a certain event, else within BINOMIAL_Z binomial sigmas."""
    if p in (0.0, 1.0):
        require(observed == p, f"{what} = {observed!r}, expected exactly {p}")
        return
    sigma = math.sqrt(p * (1.0 - p) / n)
    require(abs(observed - p) <= BINOMIAL_Z * sigma,
            f"{what} = {observed!r}, expected {p:.6f} +- {BINOMIAL_Z} x {sigma:.2e}")


def check_qkd(protocol: str, eve: str, signals: int, result: dict) -> None:
    sift, qber, eve_info = QKD_EXPECTED[(protocol, eve)]
    require(result["signals_sent"] == signals, "signals_sent differs from the request")
    sifted = result["sifted"]
    require(sifted > 0, "nothing sifted")
    check_rate(sifted / signals, sift, signals, f"{protocol}/{eve} sifted fraction")
    check_rate(result["qber"], qber, sifted, f"{protocol}/{eve} QBER")
    check_rate(result["eve_info"], eve_info, sifted, f"{protocol}/{eve} eve_info")


def transcript_counts(protocol: str, lines: list[str]) -> tuple[int, int]:
    """Sifted and error counts recomputed from each record's raw choices."""
    sifted = errors = 0
    for line in lines:
        rec = json.loads(line)
        outcome = rec["bob_outcome"]
        if protocol == "bb84":
            kept, bob_bit = rec["bob_basis"] == rec["alice_basis"], outcome
        elif rec["bob_basis"] == "Z":
            kept, bob_bit = outcome == 1, 1
        else:
            kept, bob_bit = outcome == 0, 0
        if kept:
            sifted += 1
            errors += int(bob_bit != rec["alice_bit"])
    return sifted, errors


def check_transcript(protocol: str, signals: int, result: dict, text: str) -> None:
    lines = text.splitlines()
    require(len(lines) == signals, f"transcript has {len(lines)} lines for {signals} signals")
    sifted, errors = transcript_counts(protocol, lines)
    require(sifted == result["sifted"], f"transcript sifts {sifted}, report {result['sifted']}")
    reported = round(result["qber"] * result["sifted"])
    require(errors == reported, f"transcript has {errors} errors, report {reported}")
