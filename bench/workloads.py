"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is a function of the seed that returns its generated inputs (plain
numpy arrays and command lines) and a round: the list of operations one pass
over those inputs performs. Each operation calls ctcsim's public API on the
generated inputs only; its check runs afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ctcsim import cli, deutsch, distinguisher, infotheory
from ctcsim.qlinalg import DensityMatrix, PureState

import checks


@dataclass
class Op:
    """One operation of a round.

    ``count`` is how many operations it stands for in ``attempted`` (states
    classified, solves, families or sessions) and ``work`` how many units of
    the workload's throughput it completes.
    """

    name: str
    count: int
    work: int
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    name: str
    throughput: str        # name of the workload's own throughput figure
    make_inputs: Callable[[int], dict]
    make_round: Callable[[dict, Path], list[Op]]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def haar_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def haar_set(rng: np.random.Generator, dim: int) -> np.ndarray:
    """``dim`` Haar states in dimension ``dim`` as rows, redrawn until the
    smallest singular value of the set is at least 1e-3 (a Haar set falls
    below that with probability about 1e-3 * dim)."""
    while True:
        vecs = haar_states(rng, dim, dim)
        if np.linalg.svd(vecs, compute_uv=False).min() >= 1e-3:
            return vecs


def qubit_set(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar qubit states, each redrawn until its overlap with every
    earlier one is at most 0.999, so that the set is distinct with margin."""
    out: list[np.ndarray] = []
    while len(out) < count:
        v = haar_states(rng, 2, 1)[0]
        if all(abs(np.vdot(u, v)) <= 0.999 for u in out):
            out.append(v)
    return np.array(out)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixed(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank mixed state from a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def padded(qubits: np.ndarray, dim: int) -> np.ndarray:
    """Our own |q> (x) |0..0> for checking pad_with_ancilla's output."""
    anc = np.zeros(dim // 2, dtype=complex)
    anc[0] = 1.0
    return np.array([np.kron(q, anc) for q in qubits])


# ---------------------------------------------------------------- distinguish

DISTINGUISH_DIMS = (4, 8, 12)
DISTINGUISH_PADDED = (4, 8)


def distinguish_inputs(seed: int) -> dict:
    rng = _rng(seed, 1)
    return {
        "haar": [haar_set(rng, d) for d in DISTINGUISH_DIMS],
        "qubits": [qubit_set(rng, n) for n in DISTINGUISH_PADDED],
    }


def _build(s) -> dict:
    """construct_family -> verify_family -> build_distinguisher on a validated set."""
    fam = distinguisher.construct_family(s)
    report = distinguisher.verify_family(s, fam)
    return {"s": s, "fam": fam, "report": report, "ix": distinguisher.build_distinguisher(s, fam)}


def _validated(vecs: np.ndarray):
    return distinguisher.validate_state_set([PureState(v) for v in vecs])


def _check_family_report(vecs: np.ndarray, built: dict) -> None:
    checks.check_report(built["report"], *checks.check_family(vecs, built["fam"].unitaries))


def _check_classified(vecs: np.ndarray, built: dict, j: int, result) -> None:
    label, prob, fp = result
    d = vecs.shape[0]
    checks.check_classification(label, prob, j)
    checks.check_solved(built["ix"].V, d, d, checks.projector(vecs[j]), fp.representative.matrix)


def _violation(qubits: np.ndarray) -> dict:
    ens = infotheory.Ensemble.uniform_pure([PureState(q) for q in qubits])
    return infotheory.violation_report(ens, len(qubits))


def distinguish_round(inputs: dict, _scratch: Path) -> list[Op]:
    """Per Haar set: one build operation (validate, construct, verify, build;
    it counts no state) and one operation per classified state, which reads
    the circuit the build left in ``built`` and fails if there is none."""
    ops = []
    for vecs in inputs["haar"]:
        d = vecs.shape[0]
        built: dict = {}

        def build(v=vecs, built=built):
            built.clear()
            built.update(_build(_validated(v)))
            return built

        ops.append(Op(f"haar-{d}-build", 0, 0, build,
                      lambda res, v=vecs: _check_family_report(v, res)))
        for j in range(d):
            ops.append(Op(f"haar-{d}-classify-{j}", 1, 1,
                          lambda b=built, j=j: distinguisher.classify(b["ix"], b["s"], j),
                          lambda res, v=vecs, b=built, j=j: _check_classified(v, b, j, res)))
    for q in inputs["qubits"]:
        n = q.shape[0]
        ops.append(Op(f"padded-{n}", n, n, lambda q=q: _violation(q),
                      lambda res, q=q: checks.check_holevo(q, res)))
    return ops


# -------------------------------------------------------------- generic-solve

GENERIC_SHAPES = ((2, 24), (12, 12), (4, 8))
DEGENERATE_SHAPES = ((12, 12), (4, 8))


def generic_inputs(seed: int) -> dict:
    rng = _rng(seed, 2)
    shapes = []
    for d_sys, d_ctc in GENERIC_SHAPES:
        shapes.append({
            "d_sys": d_sys,
            "d_ctc": d_ctc,
            "V": haar_unitary(rng, d_sys * d_ctc),
            "rho": random_mixed(rng, d_sys),
            "rho_a": random_mixed(rng, d_sys),
            "rho_b": random_mixed(rng, d_sys),
            "weight": float(rng.uniform(0.2, 0.8)),
        })
    degenerate = []
    for d_sys, d_ctc in DEGENERATE_SHAPES:
        # Equally spaced phases in a seeded order and offset: pairwise distinct
        # by at least 2 pi / d_ctc, so the fixed space is exactly the diagonal.
        phases = 2 * np.pi * rng.permutation(d_ctc) / d_ctc + rng.uniform(0, 2 * np.pi)
        degenerate.append({
            "d_sys": d_sys,
            "d_ctc": d_ctc,
            "V": np.kron(np.eye(d_sys), np.diag(np.exp(1j * phases))),
            "rho": random_mixed(rng, d_sys),
        })
    return {"shapes": shapes, "degenerate": degenerate}


def _evolve(x: dict):
    ix = deutsch.DeutschInteraction(x["d_sys"], x["d_ctc"], x["V"])
    return deutsch.evolve(ix, DensityMatrix(x["rho"]))


def _check_evolve(x: dict, result) -> None:
    out, fp = result
    checks.require(fp.unique and fp.fixed_space_dim == 1, "generic interaction: fixed point not unique")
    checks.check_evolution(x["V"], x["d_sys"], x["d_ctc"], x["rho"], out.matrix,
                           fp.representative.matrix)


def _gap(x: dict) -> float:
    ix = deutsch.DeutschInteraction(x["d_sys"], x["d_ctc"], x["V"])
    return deutsch.nonlinearity_gap(ix, DensityMatrix(x["rho_a"]), DensityMatrix(x["rho_b"]),
                                    x["weight"])


def _fixed_points(x: dict):
    ix = deutsch.DeutschInteraction(x["d_sys"], x["d_ctc"], x["V"])
    return deutsch.fixed_points(ix, DensityMatrix(x["rho"]))


def _check_degenerate(x: dict, fp) -> None:
    rep = fp.representative.matrix
    checks.check_degenerate(fp.fixed_space_dim, fp.unique, rep, x["d_ctc"])
    checks.check_solved(x["V"], x["d_sys"], x["d_ctc"], x["rho"], rep)


def generic_round(inputs: dict, _scratch: Path) -> list[Op]:
    ops = []
    for x in inputs["shapes"]:
        shape = f"{x['d_sys']}x{x['d_ctc']}"
        ops.append(Op(f"evolve-{shape}", 1, 1, lambda x=x: _evolve(x),
                      lambda res, x=x: _check_evolve(x, res)))
        ops.append(Op(f"gap-{shape}", 3, 3, lambda x=x: _gap(x),
                      lambda res, x=x: checks.check_nonlinearity_gap(
                          x["V"], x["d_sys"], x["d_ctc"], x["rho_a"], x["rho_b"], x["weight"], res)))
    for x in inputs["degenerate"]:
        shape = f"{x['d_sys']}x{x['d_ctc']}"
        ops.append(Op(f"degenerate-{shape}", 1, 1, lambda x=x: _fixed_points(x),
                      lambda res, x=x: _check_degenerate(x, res)))
    return ops


# --------------------------------------------------------------- family-build

FAMILY_DIMS = (32, 48)
FAMILY_PADDED = 32


def family_inputs(seed: int) -> dict:
    rng = _rng(seed, 3)
    return {
        "haar": [haar_set(rng, d) for d in FAMILY_DIMS],
        "qubits": qubit_set(rng, FAMILY_PADDED),
    }


def _check_built(vecs: np.ndarray, built: dict) -> None:
    _check_family_report(vecs, built)
    checks.check_swap_then_control(built["ix"].V, built["fam"].unitaries)


def family_round(inputs: dict, _scratch: Path) -> list[Op]:
    ops = []
    for vecs in inputs["haar"]:
        ops.append(Op(f"haar-{vecs.shape[0]}", 1, 1,
                      lambda v=vecs: _build(_validated(v)),
                      lambda res, v=vecs: _check_built(v, res)))
    q = inputs["qubits"]
    ops.append(Op(f"padded-{FAMILY_PADDED}", 1, 1,
                  lambda: _build(distinguisher.pad_with_ancilla([PureState(x) for x in q], FAMILY_PADDED)),
                  lambda res: _check_built(padded(q, FAMILY_PADDED), res)))
    return ops


# ------------------------------------------------------------------------ qkd

QKD_SIGNALS = 10000
QKD_EVES = ("none", "ctc", "intercept_resend_z")


def qkd_inputs(seed: int) -> dict:
    """Six configurations, each run once without and once with a transcript."""
    rng = _rng(seed, 4)
    sessions = []
    for protocol in ("bb84", "b92"):
        for eve in QKD_EVES:
            session_seed = int(rng.integers(2**31))
            for transcript in (False, True):
                sessions.append({"protocol": protocol, "eve": eve, "seed": session_seed,
                                 "transcript": transcript})
    return {"sessions": sessions}


class QkdSession:
    """One CLI session in process; remembers its first report to check that
    every repeat of the same configuration is byte-identical."""

    def __init__(self, cfg: dict, scratch: Path) -> None:
        self.cfg = cfg
        tag = f"{cfg['protocol']}-{cfg['eve']}-{'t' if cfg['transcript'] else 'n'}"
        self.report = scratch / f"{tag}.json"
        self.transcript = scratch / f"{tag}.jsonl" if cfg["transcript"] else None
        self.argv = ["qkd", "--protocol", cfg["protocol"], "--signals", str(QKD_SIGNALS),
                     "--eve", cfg["eve"], "--seed", str(cfg["seed"]), "--out", str(self.report)]
        if self.transcript is not None:
            self.argv += ["--transcript", str(self.transcript)]
        self.first: bytes | None = None

    def run(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(self.argv))
        if code != 0:
            raise RuntimeError(f"ctcsim {' '.join(self.argv)} exited with {code}")

    def check(self, _result) -> None:
        data = self.report.read_bytes()
        if self.first is None:
            self.first = data
        checks.require(data == self.first, f"{self.report.name}: report differs from its first run")
        result = json.loads(data)["result"]
        checks.check_qkd(self.cfg["protocol"], self.cfg["eve"], QKD_SIGNALS, result)
        if self.transcript is not None:
            text = self.transcript.read_text(encoding="utf-8")
            checks.check_transcript(self.cfg["protocol"], QKD_SIGNALS, result, text)


def qkd_round(inputs: dict, scratch: Path) -> list[Op]:
    sessions = [QkdSession(cfg, scratch) for cfg in inputs["sessions"]]
    return [Op(s.report.stem, 1, QKD_SIGNALS, s.run, s.check) for s in sessions]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("distinguish", "distinguish_states_per_s", distinguish_inputs, distinguish_round),
        Workload("generic-solve", "solves_per_s", generic_inputs, generic_round),
        Workload("family-build", "families_per_s", family_inputs, family_round),
        Workload("qkd", "qkd_signals_per_s", qkd_inputs, qkd_round),
    )
}
