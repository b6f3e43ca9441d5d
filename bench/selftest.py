#!/usr/bin/env python3
"""Show that every benchmark check passes on a right value and fires on a wrong one.

    python3 bench/selftest.py

Each case builds a genuine output with ctcsim at a small size, confirms that
its check accepts it, then feeds the check a deliberately wrong value and
confirms that it raises ``CheckError``. Exits 1 if any check misses.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from ctcsim import distinguisher  # noqa: E402

results: list[tuple[str, bool]] = []


def case(name: str, right, wrong) -> None:
    """``right`` and ``wrong`` are thunks calling the check under test."""
    try:
        right()
    except checks.CheckError as exc:
        results.append((f"{name}: rejects the right value ({exc})", False))
        return
    try:
        wrong()
    except checks.CheckError:
        results.append((name, True))
    else:
        results.append((f"{name}: accepts the wrong value", False))


def bump(m: np.ndarray, by: float) -> np.ndarray:
    """``m`` with a Hermitian, traceless change of size ``by`` in two entries."""
    out = m.copy()
    out[0, 1] += by
    out[1, 0] += by
    return out


def main() -> int:
    rng = np.random.default_rng(12345)

    # Distinguisher outputs at d = 4.
    vecs = wl.haar_set(rng, 4)
    built = wl._build(wl._validated(vecs))
    fam, report, ix = built["fam"], built["report"], built["ix"]
    u = list(fam.unitaries)
    case("unitarity of U_k", lambda: checks.check_family(vecs, u),
         lambda: checks.check_family(vecs, [u[0] * (1 + 1e-8)] + u[1:]))
    case("condition 1", lambda: checks.check_family(vecs, u),
         lambda: checks.check_family(vecs, [u[1], u[0]] + u[2:]))
    basis = np.eye(3, dtype=complex)
    swap12 = basis[[0, 2, 1]]
    case("condition 2", lambda: checks.check_family(basis, [basis, basis, basis]),
         lambda: checks.check_family(basis, [swap12, basis, basis]))
    cond1, floor = checks.check_family(vecs, u)
    case("verify_family report", lambda: checks.check_report(report, cond1, floor),
         lambda: checks.check_report(report, cond1, floor * 1.001))
    case("interaction blocks", lambda: checks.check_swap_then_control(ix.V, u),
         lambda: checks.check_swap_then_control(ix.V, [u[1], u[0]] + u[2:]))
    extra = np.array(ix.V)
    extra[0, 1] += 1e-3
    case("interaction weight outside blocks", lambda: checks.check_swap_then_control(ix.V, u),
         lambda: checks.check_swap_then_control(extra, u))
    label, prob, fp = distinguisher.classify(ix, built["s"], 2)
    case("label", lambda: checks.check_classification(label, prob, 2),
         lambda: checks.check_classification(1, prob, 2))
    case("success probability", lambda: checks.check_classification(label, prob, 2),
         lambda: checks.check_classification(label, 1 - 1e-8, 2))
    rho_in, rho_ctc = checks.projector(vecs[2]), fp.representative.matrix
    case("CTC state residual", lambda: checks.check_solved(ix.V, 4, 4, rho_in, rho_ctc),
         lambda: checks.check_solved(ix.V, 4, 4, rho_in, bump(rho_ctc, 1e-7)))
    case("CTC state trace", lambda: checks.check_state(rho_ctc, "x"),
         lambda: checks.check_state(rho_ctc * (1 + 1e-9), "x"))
    case("CTC state positivity", lambda: checks.check_state(np.diag([1.0, 0.0]), "x"),
         lambda: checks.check_state(np.diag([1.0 + 1e-9, -1e-9]), "x"))
    case("CTC state Hermiticity", lambda: checks.check_state(rho_ctc, "x"),
         lambda: checks.check_state(rho_ctc + 1e-9 * np.triu(np.ones((4, 4)), 1), "x"))

    # Generic solve at (2, 6).
    x = {"d_sys": 2, "d_ctc": 6, "V": wl.haar_unitary(rng, 12), "rho": wl.random_mixed(rng, 2),
         "rho_a": wl.random_mixed(rng, 2), "rho_b": wl.random_mixed(rng, 2), "weight": 0.3}
    out, fp = wl._evolve(x)
    args = (x["V"], 2, 6, x["rho"])
    case("evolve output against own Tr_ctc",
         lambda: checks.check_evolution(*args, out.matrix, fp.representative.matrix),
         lambda: checks.check_evolution(*args, bump(out.matrix, 1e-9), fp.representative.matrix))
    other = wl.random_mixed(rng, 2)
    case("evolve output for another input",
         lambda: checks.check_evolution(*args, out.matrix, fp.representative.matrix),
         lambda: checks.check_evolution(x["V"], 2, 6, other, out.matrix, fp.representative.matrix))
    gap = wl._gap(x)
    gap_args = (x["V"], 2, 6, x["rho_a"], x["rho_b"], 0.3)
    case("nonlinearity gap", lambda: checks.check_nonlinearity_gap(*gap_args, gap),
         lambda: checks.check_nonlinearity_gap(*gap_args, gap + 1e-7))

    # Degenerate I (x) D at (2, 4).
    phases = 2 * np.pi * np.arange(4) / 4
    dx = {"d_sys": 2, "d_ctc": 4, "V": np.kron(np.eye(2), np.diag(np.exp(1j * phases))),
          "rho": wl.random_mixed(rng, 2)}
    dfp = wl._fixed_points(dx)
    rep = dfp.representative.matrix
    case("uniqueness by iteration from two starts",
         lambda: checks.iterated_fixed_point(*args),
         lambda: checks.iterated_fixed_point(dx["V"], 2, 4, dx["rho"]))
    case("degenerate dimension", lambda: checks.check_degenerate(4, False, rep, 4),
         lambda: checks.check_degenerate(3, False, rep, 4))
    case("degenerate uniqueness flag", lambda: checks.check_degenerate(4, False, rep, 4),
         lambda: checks.check_degenerate(4, True, rep, 4))
    case("degenerate representative", lambda: checks.check_degenerate(4, False, rep, 4),
         lambda: checks.check_degenerate(4, False, np.diag([0.5, 0.5, 0, 0]), 4))

    # Holevo report for four padded qubit states.
    qubits = wl.qubit_set(rng, 4)
    hol = wl._violation(qubits)
    case("accessible information", lambda: checks.check_holevo(qubits, hol),
         lambda: checks.check_holevo(qubits, {**hol, "accessible_bits": 1.9}))
    case("Holevo chi", lambda: checks.check_holevo(qubits, hol),
         lambda: checks.check_holevo(qubits, {**hol, "chi_bits": hol["chi_bits"] + 1e-8}))
    case("chi at most one bit", lambda: checks.check_holevo(qubits, hol),
         lambda: checks.check_holevo(np.eye(4, dtype=complex), {
             "accessible_bits": 2.0, "chi_bits": 2.0, "violation": True}))
    case("violation flag", lambda: checks.check_holevo(qubits, hol),
         lambda: checks.check_holevo(qubits, {**hol, "violation": False}))

    # QKD sessions through the CLI.
    scratch = BENCH.parent / ".bench_out" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cfg = {"protocol": "b92", "eve": "intercept_resend_z", "seed": 7, "transcript": True}
        session = wl.QkdSession(cfg, scratch)
        session.run()
        session.check(None)
        result = json.loads(session.report.read_bytes())["result"]
        n = wl.QKD_SIGNALS
        case("QBER", lambda: checks.check_qkd("b92", "intercept_resend_z", n, result),
             lambda: checks.check_qkd("b92", "intercept_resend_z", n, {**result, "qber": 0.25}))
        case("eve_info", lambda: checks.check_qkd("b92", "intercept_resend_z", n, result),
             lambda: checks.check_qkd("b92", "intercept_resend_z", n, {**result, "eve_info": 0.75}))
        case("sifted fraction", lambda: checks.check_qkd("b92", "intercept_resend_z", n, result),
             lambda: checks.check_qkd("b92", "intercept_resend_z", n,
                                      {**result, "sifted": n // 4}))
        case("exact QBER 0 with a CTC eavesdropper",
             lambda: checks.check_qkd("b92", "ctc", n, {**result, "sifted": n // 4, "qber": 0.0,
                                                        "eve_info": 1.0}),
             lambda: checks.check_qkd("b92", "ctc", n, {**result, "sifted": n // 4,
                                                        "qber": 1 / n, "eve_info": 1.0}))
        text = session.transcript.read_text(encoding="utf-8")
        lines = text.splitlines()
        case("transcript length", lambda: checks.check_transcript("b92", n, result, text),
             lambda: checks.check_transcript("b92", n, result, "\n".join(lines[:-1])))
        flipped = json.loads(lines[0])
        flipped["bob_outcome"] ^= 1
        tampered = "\n".join([json.dumps(flipped)] + lines[1:])
        case("transcript counts", lambda: checks.check_transcript("b92", n, result, text),
             lambda: checks.check_transcript("b92", n, result, tampered))
        data = session.report.read_bytes()
        session.report.write_bytes(data.replace(b'"seed": 7', b'"seed": 8'))
        case("byte-identical repeat", lambda: None, lambda: session.check(None))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    bad = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"{'fires' if ok else 'MISSES'}: {name}")
    print(f"{len(results) - len(bad)} of {len(results)} checks fire on a wrong value")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
