"""Concrete demonstration circuits and a prepare-and-measure QKD harness.

Two canned circuits, each packaged as a ``UnitaryFamily``, show perfect
discrimination of non-orthogonal states; the demos and the ``ctc``
eavesdropper classify through ``distinguisher.classification_table``:

* ``b92_family``: the two-state circuit (swap, then controlled Hadamard)
  telling |0> from |-> and thereby breaking B92, and
* ``bb84_family``: the four-state circuit with two CTC qubits telling the
  four BB84 signal states apart after an ancilla qubit is appended.

The session harness plays Alice/Bob rounds over a noiseless channel with a
pluggable eavesdropper: ``none`` (passthrough), ``ctc`` (classify each signal
perfectly through the self-consistency engine and re-prepare it, gaining full
information with zero disturbance), or ``intercept_resend_z`` (measure in the
computational basis and resend the eigenstate, the classic noisy attack).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .deutsch import DEFAULT_FP_TOL
from .distinguisher import (
    UnitaryFamily,
    classification_table,
    pad_with_ancilla,
    validate_state_set,
)
from .qlinalg import H, X, PureState, basis_ket, identity, minus_ket, plus_ket, swap_gate

EVE_STRATEGIES = ("none", "ctc", "intercept_resend_z")


@dataclass(frozen=True, eq=False)
class QkdProtocol:
    """Signal-state table for one prepare-and-measure protocol.

    ``encoding`` maps Alice's classical choice to an index into
    ``signal_states``: for BB84 the key is (basis, bit) with basis 0 = Z and
    1 = X; for B92 the key is the bit alone.
    """

    name: str
    signal_states: tuple[PureState, ...]
    encoding: dict

    def state_index(self, bit: int, basis: int | None) -> int:
        if self.name == "B92":
            return self.encoding[bit]
        return self.encoding[(basis, bit)]


@dataclass(frozen=True)
class SessionStats:
    """Summary of one QKD session, computed over sifted positions only.

    ``qber`` is None when nothing was sifted. ``eve_info`` is the fraction
    of sifted bits for which the eavesdropper's record matches Alice's bit.
    """

    signals_sent: int
    sifted: int
    qber: float | None
    eve_info: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "signals_sent": self.signals_sent,
            "sifted": self.sifted,
            "qber": self.qber,
            "qber_undefined": self.qber is None,
            "eve_info": self.eve_info,
            "seed": self.seed,
        }


def b92_protocol() -> QkdProtocol:
    states = (PureState(basis_ket(2, 0)), PureState(minus_ket()))
    return QkdProtocol(name="B92", signal_states=states, encoding={0: 0, 1: 1})


def bb84_protocol() -> QkdProtocol:
    states = (
        PureState(basis_ket(2, 0)),
        PureState(basis_ket(2, 1)),
        PureState(plus_ket()),
        PureState(minus_ket()),
    )
    encoding = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    return QkdProtocol(name="BB84", signal_states=states, encoding=encoding)


def b92_family() -> UnitaryFamily:
    """The two-state distinguisher for |0> and |->: swap, then controlled
    Hadamard (U_0 = I, U_1 = H)."""
    s = validate_state_set(list(b92_protocol().signal_states))
    return UnitaryFamily(states=s, unitaries=(identity(2), H))


def bb84_family() -> UnitaryFamily:
    """The hand-built four-unitary family for the padded BB84 state set.

    Indexed k = 0..3 against the padded signals |00>, |10>, |+0>, |-0>:
    k=0 swaps the two qubits, k=1 flips both, k=2 applies X.H on the first,
    and k=3 swaps then applies X (x) H.
    """
    sw = swap_gate(2)
    unitaries = (
        sw,
        np.kron(X, X),
        np.kron(X @ H, identity(2)),
        np.kron(X, H) @ sw,
    )
    padded = pad_with_ancilla(list(bb84_protocol().signal_states), 4)
    return UnitaryFamily(states=padded, unitaries=unitaries)


def b92_demo(fp_tol: float = DEFAULT_FP_TOL) -> dict:
    """Classify both B92 signals through the two-state circuit.

    Raises on any misclassification or fixed-point ambiguity; the report
    carries per-input labels, success probabilities, CTC states, and
    fixed-point diagnostics.
    """
    fam = b92_family()
    table = classification_table(fam.interaction, fam.states, fp_tol)
    rows = [
        {
            "input": name,
            "label": label,
            "success_prob": prob,
            "fixed_space_dim": fp.fixed_space_dim,
            "unique": fp.unique,
            "residual": fp.residual,
            "ctc_diag": [float(v) for v in np.real(np.diag(fp.representative.matrix))],
        }
        for name, (label, prob, fp) in zip(["|0>", "|->"], table)
    ]
    return {"circuit": "swap + controlled-Hadamard", "classifications": rows}


def bb84_demo(fp_tol: float = DEFAULT_FP_TOL) -> dict:
    """Classify all four padded BB84 signals and decode (a, b) label bits.

    Output label ab decodes as: a = 0 means a Z eigenstate, a = 1 an X
    eigenstate, in both cases with eigenvalue (-1)^b. Raises on any
    misclassification.
    """
    fam = bb84_family()
    table = classification_table(fam.interaction, fam.states, fp_tol)
    rows = []
    for name, (label, prob, fp) in zip(["|00>", "|10>", "|+0>", "|-0>"], table):
        a, b = divmod(label, 2)
        rows.append(
            {
                "input": name,
                "output": f"|{a}{b}>",
                "label": label,
                "a": a,
                "b": b,
                "decoded_basis": "Z" if a == 0 else "X",
                "decoded_eigenvalue": 1 if b == 0 else -1,
                "success_prob": prob,
                "fixed_space_dim": fp.fixed_space_dim,
                "unique": fp.unique,
                "residual": fp.residual,
            }
        )
    return {"circuit": "two-qubit swap + four controlled unitaries", "classifications": rows}


def _outcome_one_table(kets: list[np.ndarray]) -> np.ndarray:
    """P[ket, basis]: probability of outcome 1 when measuring each qubit ket
    in Z (basis 0) or X (basis 1)."""
    targets = np.stack([basis_ket(2, 1), minus_ket()])
    return np.abs(np.stack(kets) @ targets.conj().T) ** 2


def _write_transcript(path: str | Path, n_signals: int, fields: dict) -> None:
    """Write one JSON line per signal: ``index`` plus ``fields``, sorted keys.

    ``fields`` maps each key to (digits, values): the per-signal array of
    digits, or None for a field absent from the session (null on every
    line), and the JSON value of each digit. Every field but ``index`` takes a few
    values, so the digits of a signal form one mixed-radix code and a
    session holds at most a few hundred distinct records. Each code that
    occurs is rendered once by ``json.dumps`` with index 0 and split there
    into a prefix and a suffix; a line is prefix + index + suffix, the bytes
    ``json.dumps`` writes for the whole record.
    """
    present = {key: spec for key, spec in fields.items() if spec[0] is not None}
    code = np.zeros(n_signals, dtype=np.intp)
    for digits, values in present.values():
        code = code * len(values) + digits
    used = np.flatnonzero(np.bincount(code))
    digits_of_used = np.unravel_index(used, [len(values) for _, values in present.values()])
    prefix, suffix = {}, {}
    for row, c in enumerate(used.tolist()):
        record = dict.fromkeys(fields) | {"index": 0}
        for (key, (_, values)), digits in zip(present.items(), digits_of_used):
            record[key] = values[digits[row]]
        head, _, tail = json.dumps(record, sort_keys=True).partition('"index": 0')
        prefix[c], suffix[c] = head + '"index": ', tail + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{prefix[c]}{i}{suffix[c]}" for i, c in enumerate(code.tolist()))


def run_qkd(
    protocol: QkdProtocol,
    n_signals: int,
    eve: str,
    seed: int,
    transcript_path: str | Path | None = None,
) -> SessionStats:
    """Simulate a prepare-and-measure session over a noiseless channel.

    Alice draws uniform random signal choices, Eve applies her strategy, and
    Bob measures in a uniformly random basis (BB84 sifts on basis match; B92
    keeps conclusive exclusion outcomes). Outcomes are sampled from exact
    Born probabilities, each choice drawn for the whole session as one
    array. Fully reproducible from ``seed``; an optional JSON lines
    transcript records every round, one sorted-key record per signal. The
    records take few distinct values but for ``index``, so each distinct
    record is rendered by ``json.dumps`` once, as a template that every
    signal sharing it fills in with its index (see ``_write_transcript``).
    """
    if n_signals < 1:
        raise ValueError("n_signals must be at least 1")
    if eve not in EVE_STRATEGIES:
        raise ValueError(f"unknown eavesdropper strategy {eve!r}")
    rng = np.random.default_rng(seed)
    bb84 = protocol.name == "BB84"
    # encode[basis, bit] is the signal state Alice prepares
    bases = (0, 1) if bb84 else (None,)
    encode = np.array([[protocol.state_index(bit, basis) for bit in (0, 1)] for basis in bases])
    # flying signals index the signal states, then |0> and |1> resent by Eve
    kets = [s.vector for s in protocol.signal_states] + [basis_ket(2, 0), basis_ket(2, 1)]
    p_one = _outcome_one_table(kets)

    alice_bit = rng.integers(2, size=n_signals)
    alice_basis = rng.integers(2, size=n_signals) if bb84 else None
    flying = encode[0 if alice_basis is None else alice_basis, alice_bit]
    eve_label = eve_bit = None
    if eve == "ctc":
        # raises unless each signal j reads label j: Eve learns the index and the bit
        fam = bb84_family() if bb84 else b92_family()
        classification_table(fam.interaction, fam.states)
        eve_label, eve_bit = flying, alice_bit
    elif eve == "intercept_resend_z":
        eve_label = eve_bit = (rng.random(n_signals) < p_one[flying, 0]).astype(int)
        flying = len(protocol.signal_states) + eve_label

    bob_basis = rng.integers(2, size=n_signals)
    bob_outcome = (rng.random(n_signals) < p_one[flying, bob_basis]).astype(int)
    if bb84:
        sifted = bob_basis == alice_basis
    else:
        # Exclusion decoding: Z-outcome 1 rules out |0> (bit 1);
        # X-outcome 0 (the |+> result) rules out |-> (bit 0).
        sifted = bob_outcome != bob_basis
    # In both protocols Bob's bit is his outcome.
    error = sifted & (bob_outcome != alice_bit)

    if transcript_path is not None:
        fields = {
            "alice_bit": (alice_bit, (0, 1)),
            "alice_basis": (alice_basis, ("Z", "X")),
            "eve_label": (eve_label, range(len(protocol.signal_states))),
            "bob_basis": (bob_basis, ("Z", "X")),
            "bob_outcome": (bob_outcome, (0, 1)),
            "sifted": (sifted, (False, True)),
            "error": (error, (False, True)),
        }
        _write_transcript(transcript_path, n_signals, fields)

    n_sifted = int(sifted.sum())
    errors = int(error.sum())
    eve_known = 0 if eve_bit is None else int((sifted & (eve_bit == alice_bit)).sum())
    qber = errors / n_sifted if n_sifted else None
    eve_info = eve_known / n_sifted if n_sifted else 0.0
    return SessionStats(
        signals_sent=n_signals, sifted=n_sifted, qber=qber, eve_info=eve_info, seed=seed
    )
