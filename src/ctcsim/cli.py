"""Command-line front end.

Subcommands: ``demo`` (canned two-state and four-state discrimination
circuits), ``distinguish`` (build and run a distinguisher from a state
file), ``fixed-point`` (solve the self-consistency condition for an
interaction file and input state), ``qkd`` (simulate a key-distribution
session with a pluggable eavesdropper), and ``holevo`` (ensemble
information report).

Exit codes: 0 all assertions passed, 1 domain failure (misclassification,
ambiguous fixed point, construction failure), 2 unreadable or schema-invalid
input. Reports are JSON with a {"version", "command", "config", "result"}
envelope, where ``config`` holds every accepted flag except ``--out`` and
``--json``; identical configurations produce byte-identical reports.
``--out`` writes the report to a file; ``--json`` prints it, else a summary
is printed. ``qkd`` solves no fixed point and takes no ``--fp-tol``.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import deutsch, distinguisher, infotheory, protocols, serialize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Closed-timelike-curve circuit simulator and distinguisher toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, solves: bool = True) -> None:
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--json", action="store_true", help="print JSON instead of a summary")
        if solves:
            p.add_argument("--fp-tol", type=float, default=deutsch.DEFAULT_FP_TOL, help="fixed-point tolerance")

    p_demo = sub.add_parser("demo", help="run a canned discrimination demo")
    p_demo.add_argument("which", choices=["b92", "bb84"])
    add_common(p_demo)

    p_dist = sub.add_parser("distinguish", help="build a distinguisher from a state file")
    p_dist.add_argument("--states", required=True, help="state-set JSON file")
    p_dist.add_argument("--pad", type=int, default=None, help="pad states with ancillas to this dimension")
    p_dist.add_argument("--order", default="as-given", help='comma-separated index order or "as-given"')
    p_dist.add_argument("--span-tol", type=float, default=distinguisher.DEFAULT_SPAN_TOL)
    p_dist.add_argument("--distinct-tol", type=float, default=distinguisher.DEFAULT_DISTINCT_TOL)
    add_common(p_dist)

    p_fp = sub.add_parser("fixed-point", help="solve the self-consistency condition")
    p_fp.add_argument("--interaction", required=True, help="interaction JSON file")
    p_fp.add_argument("--input", required=True, help="input-state JSON file")
    add_common(p_fp)

    p_qkd = sub.add_parser("qkd", help="simulate a key-distribution session")
    p_qkd.add_argument("--protocol", choices=["b92", "bb84"], required=True)
    p_qkd.add_argument("--signals", type=int, default=10000)
    p_qkd.add_argument("--eve", choices=list(protocols.EVE_STRATEGIES), default="none")
    p_qkd.add_argument("--seed", type=int, default=0)
    p_qkd.add_argument("--transcript", help="write a JSON-lines transcript to this path")
    add_common(p_qkd, solves=False)

    p_hol = sub.add_parser("holevo", help="ensemble information report")
    p_hol.add_argument("--states", required=True, help="state-set or ensemble JSON file")
    p_hol.add_argument("--priors", default=None, help="comma-separated priors (default uniform)")
    add_common(p_hol)

    return parser


def _tolerances_valid(args: argparse.Namespace) -> bool:
    values = (getattr(args, name, None) for name in ("fp_tol", "span_tol", "distinct_tol"))
    return all(0.0 < v < math.inf for v in values if v is not None)


def _emit(args: argparse.Namespace, result: dict, lines: list[str]) -> int:
    """Write the report to ``--out`` if given; print it with ``--json``, else the summary."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out", "json")}
    report = {"version": "1", "command": args.command, "config": config, "result": result}
    if args.out:
        serialize.dump_json(report, args.out)
    print(serialize.dump_json(report) if args.json else "\n".join(lines))
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.which == "b92":
        result = protocols.b92_demo(args.fp_tol)
    else:
        result = protocols.bb84_demo(args.fp_tol)
    lines = [f"demo {args.which}: all classifications correct"]
    for row in result["classifications"]:
        lines.append(
            f"  {row['input']} -> label {row['label']} "
            f"(p = {row['success_prob']:.12f}, fixed-space dim {row['fixed_space_dim']})"
        )
    return _emit(args, result, lines)


def _cmd_distinguish(args: argparse.Namespace) -> int:
    obj = serialize.load_json(args.states)
    states, labels = serialize.pure_states_from_json(obj)
    if args.pad is not None:
        if args.pad < 1 or args.pad % states[0].dim:
            raise serialize.SchemaError(f"--pad must be at least 1 and a multiple of {obj['dim']}")
        s = distinguisher.pad_with_ancilla(states, args.pad, args.distinct_tol)
    else:
        s = distinguisher.validate_state_set(states, args.distinct_tol)
    order = None
    if args.order != "as-given":
        try:
            order = [int(x) for x in args.order.split(",")]
        except ValueError as exc:
            raise serialize.SchemaError(f"bad --order value: {args.order!r}") from exc
        if sorted(order) != list(range(s.dim)):
            raise serialize.SchemaError(
                f"bad --order value: {args.order!r} is not a permutation of 0..{s.dim - 1}"
            )
    family = distinguisher.construct_family(s, order=order, span_tol=args.span_tol)
    report_fam = family.report
    table = distinguisher.classification_table(family.interaction, s, args.fp_tol)
    rows = [
        {
            "j": j,
            "label": label,
            "success_prob": prob,
            "fixed_space_dim": fp.fixed_space_dim,
            "residual": fp.residual,
        }
        | ({"name": labels[j]} if labels else {})
        for j, (label, prob, fp) in enumerate(table)
    ]
    result = {
        "floor_margin": report_fam.floor_margin,
        "cond1_residual": report_fam.cond1_residual,
        "classifications": rows,
    }
    lines = [
        f"distinguish: {s.dim} states, floor margin {report_fam.floor_margin:.6f}, "
        f"condition-1 residual {report_fam.cond1_residual:.3e}"
    ]
    for row in rows:
        lines.append(
            f"  j={row['j']} -> label {row['label']} (p = {row['success_prob']:.12f})"
        )
    return _emit(args, result, lines)


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    ix = serialize.interaction_from_json(serialize.load_json(args.interaction))
    rho_in = serialize.input_state_from_json(serialize.load_json(args.input))
    if rho_in.dim != ix.d_sys:
        raise serialize.SchemaError(
            f"input state of dim {rho_in.dim} does not fit an interaction with d_sys {ix.d_sys}"
        )
    fp = deutsch.fixed_points(ix, rho_in, args.fp_tol)
    result = serialize.fixed_point_result_to_json(fp)
    diag = ", ".join(f"{v:.6f}" for v in np.real(np.diag(fp.representative.matrix)))
    lines = [
        f"fixed-point: space dimension {fp.fixed_space_dim}, "
        f"unique = {fp.unique}, residual {fp.residual:.3e}, "
        f"spectrum gap {fp.spectrum_gap:.6f}",
        f"  representative diagonal: [{diag}]",
    ]
    return _emit(args, result, lines)


def _cmd_qkd(args: argparse.Namespace) -> int:
    if args.signals < 1:
        raise serialize.SchemaError("--signals must be at least 1")
    if args.seed < 0:
        raise serialize.SchemaError("--seed must be non-negative")
    protocol = protocols.b92_protocol() if args.protocol == "b92" else protocols.bb84_protocol()
    stats = protocols.run_qkd(
        protocol, args.signals, args.eve, args.seed, transcript_path=args.transcript
    )
    result = stats.to_dict()
    qber_text = "undefined" if stats.qber is None else f"{stats.qber:.6f}"
    lines = [
        f"qkd {args.protocol} (eve = {args.eve}, seed = {args.seed}): "
        f"sent {stats.signals_sent}, sifted {stats.sifted}, "
        f"qber {qber_text}, eve_info {stats.eve_info:.6f}"
    ]
    return _emit(args, result, lines)


def _cmd_holevo(args: argparse.Namespace) -> int:
    obj = serialize.load_json(args.states)
    if not isinstance(obj, dict) or not obj.get("states"):
        raise serialize.SchemaError('state file must be an object with a "states" list')
    if "priors" in obj or serialize.looks_like_matrix(obj["states"][0]):
        ens = serialize.ensemble_from_json(obj)
    else:
        ens = infotheory.Ensemble.uniform_pure(serialize.pure_states_from_json(obj)[0])
    if args.priors is not None:
        try:
            flag_priors = tuple(float(x) for x in args.priors.split(","))
        except ValueError as exc:
            raise serialize.SchemaError(f"bad --priors value: {args.priors!r}") from exc
        try:
            ens = infotheory.Ensemble(priors=flag_priors, states=ens.states)
        except ValueError as exc:
            raise serialize.SchemaError(f"bad --priors value: {exc}") from exc
    result = infotheory.violation_report(ens, padded_dim=len(ens.states), fp_tol=args.fp_tol)
    lines = [
        f"holevo: chi = {result['chi_bits']:.6f} bits over dim {result['qubit_dim']}, "
        f"accessible = {result['accessible_bits']:.6f} bits via padded dim "
        f"{result['padded_dim']}, violation = {result['violation']}"
    ]
    return _emit(args, result, lines)


_HANDLERS = {
    "demo": _cmd_demo,
    "distinguish": _cmd_distinguish,
    "fixed-point": _cmd_fixed_point,
    "qkd": _cmd_qkd,
    "holevo": _cmd_holevo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not _tolerances_valid(args):
        print("error: tolerances must be finite and strictly positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _HANDLERS[args.command](args)
    except (serialize.SchemaError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        deutsch.NonUniqueFixedPointError,
        deutsch.FixedPointSolverError,
        distinguisher.ConstructionError,
        RuntimeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
