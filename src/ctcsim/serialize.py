"""JSON conversions for the on-disk file formats.

Complex scalars are two-element arrays [re, im]. A vector is a list of such
pairs; a matrix is a row-major list of rows of pairs. Schema problems raise
``SchemaError`` so the command line can map them to its input-error exit
code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .deutsch import DeutschInteraction, FixedPointResult, swap_then_control
from .infotheory import Ensemble
from .qlinalg import DensityMatrix, PureState


class SchemaError(ValueError):
    """Input file or object does not match the expected schema."""


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _int_field(obj: dict, key: str, kind: str) -> int:
    """obj[key] if it is a JSON integer; a float, string or boolean is a schema error."""
    value = obj.get(key)
    if type(value) is not int:
        raise SchemaError(f'{kind} needs an integer "{key}", got {value!r}')
    return value


def pair_to_complex(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(type(x) in (int, float) for x in obj)
    ):
        raise SchemaError(f"expected [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("vector must be a nonempty list of [re, im] pairs")
    return np.array([pair_to_complex(x) for x in obj], dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    return [vector_to_json(row) for row in np.asarray(m, dtype=complex)]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("matrix must be a nonempty list of rows")
    rows = [vector_from_json(row) for row in obj]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise SchemaError("matrix rows have inconsistent lengths")
    return np.vstack(rows)


def looks_like_matrix(obj) -> bool:
    """Distinguish a matrix (rows of pairs) from a bare vector (pairs)."""
    return (
        isinstance(obj, list)
        and bool(obj)
        and isinstance(obj[0], list)
        and bool(obj[0])
        and isinstance(obj[0][0], list)
    )


def interaction_from_json(obj) -> DeutschInteraction:
    """Parse either the raw-unitary form or the controlled-family form.

    Raw: {"d_sys": int, "d_ctc": int, "V": matrix}.
    Family: {"d": int, "family": [matrix, ...]} meaning swap-then-control.
    """
    if not isinstance(obj, dict):
        raise SchemaError("interaction file must hold a JSON object")
    try:
        if "family" in obj:
            d = _int_field(obj, "d", "interaction")
            family = [matrix_from_json(m) for m in obj["family"]]
            return swap_then_control(d, family)
        return DeutschInteraction(
            d_sys=_int_field(obj, "d_sys", "interaction"),
            d_ctc=_int_field(obj, "d_ctc", "interaction"),
            V=matrix_from_json(obj["V"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed interaction object: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"invalid interaction: {exc}") from exc


def interaction_to_json(ix: DeutschInteraction) -> dict:
    """The family form if `ix` carries its family (V is not formed), else the raw form."""
    if ix.family is not None:
        return {"d": ix.d_ctc, "family": [matrix_to_json(u) for u in ix.family]}
    return {"d_sys": ix.d_sys, "d_ctc": ix.d_ctc, "V": matrix_to_json(ix.V)}


def pure_states_from_json(obj) -> tuple[list[PureState], list[str] | None]:
    """Parse a state-set file: {"dim": int, "states": [vector, ...], "labels"?}."""
    if not isinstance(obj, dict) or not obj.get("states"):
        raise SchemaError('state file must be an object with a nonempty "states" list')
    dim = _int_field(obj, "dim", "state file")
    states = []
    for entry in obj["states"]:
        v = vector_from_json(entry)
        if v.size != dim:
            raise SchemaError(f"state of length {v.size} in a dim-{dim} file")
        try:
            states.append(PureState(v))
        except ValueError as exc:
            raise SchemaError(f"invalid state vector: {exc}") from exc
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != len(states)
        or not all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError("labels must be a list of strings, one per state")
    return states, labels


def density_from_json(obj) -> DensityMatrix:
    """Accept either a density matrix or a pure-state vector."""
    try:
        if looks_like_matrix(obj):
            return DensityMatrix(matrix_from_json(obj))
        return PureState(vector_from_json(obj)).projector()
    except ValueError as exc:
        raise SchemaError(f"invalid state: {exc}") from exc


def input_state_from_json(obj) -> DensityMatrix:
    """Parse an input-state file: {"dim": int, "state": vector-or-matrix}."""
    if not isinstance(obj, dict) or "state" not in obj:
        raise SchemaError('input state file must be an object with a "state" entry')
    rho = density_from_json(obj["state"])
    if "dim" in obj and _int_field(obj, "dim", "input state file") != rho.dim:
        raise SchemaError(f'declared dim {obj["dim"]} does not match state dim {rho.dim}')
    return rho


def ensemble_from_json(obj) -> Ensemble:
    """Parse an ensemble file: {"dim": int, "priors": [...], "states": [...]}.

    States may be density matrices or pure-state vectors. Missing priors
    default to uniform.
    """
    if not isinstance(obj, dict) or "states" not in obj:
        raise SchemaError('ensemble file must be an object with a "states" list')
    states = [density_from_json(entry) for entry in obj["states"]]
    priors = obj.get("priors")
    if priors is None:
        priors = [1.0 / len(states)] * len(states)
    if not isinstance(priors, list) or not all(type(p) in (int, float) for p in priors):
        raise SchemaError("priors must be a list of numbers")
    try:
        ens = Ensemble(priors=tuple(float(p) for p in priors), states=tuple(states))
    except ValueError as exc:
        raise SchemaError(f"invalid ensemble: {exc}") from exc
    if "dim" in obj and _int_field(obj, "dim", "ensemble file") != ens.dim:
        raise SchemaError(f'declared dim {obj["dim"]} does not match state dim {ens.dim}')
    return ens


def fixed_point_result_to_json(fp: FixedPointResult) -> dict:
    return {
        "fixed_space_dim": fp.fixed_space_dim,
        "unique": fp.unique,
        "residual": fp.residual,
        "spectrum_gap": fp.spectrum_gap,
        "representative": matrix_to_json(fp.representative.matrix),
        "basis": [matrix_to_json(b) for b in fp.basis],
        "solver": fp.solver,
    }


def load_json(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def dump_json(obj, path: str | Path | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text
