import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unitary
import ctcsim
from ctcsim import deutsch, distinguisher
from ctcsim.cli import build_parser, main
from ctcsim.deutsch import DeutschInteraction, swap_then_control
from ctcsim.qlinalg import X, basis_ket, identity, minus_ket, plus_ket
from ctcsim.serialize import (
    dump_json,
    interaction_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_to_json,
)


def write_state_file(path, vectors, dim=None):
    dim = dim or len(vectors[0])
    dump_json({"dim": dim, "states": [vector_to_json(v) for v in vectors]}, path)
    return str(path)


def write_two_state_family(path) -> str:
    dump_json({"d": 2, "family": [matrix_to_json(identity(2)),
                                  matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))]},
              path)
    return str(path)


@pytest.fixture
def b92_states_file(tmp_path):
    return write_state_file(tmp_path / "b92.json", [basis_ket(2, 0), minus_ket()])


@pytest.fixture
def bb84_states_file(tmp_path):
    return write_state_file(
        tmp_path / "bb84.json",
        [basis_ket(2, 0), basis_ket(2, 1), plus_ket(), minus_ket()],
    )


class TestDemoCommand:
    def test_b92_exit_code(self, capsys):
        assert main(["demo", "b92"]) == 0
        out = capsys.readouterr().out
        assert "label 0" in out and "label 1" in out

    def test_bb84_json_report(self, capsys):
        assert main(["demo", "bb84", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "1"
        assert report["command"] == "demo"
        labels = [row["label"] for row in report["result"]["classifications"]]
        assert labels == [0, 1, 2, 3]

    def test_byte_identical_reports(self, capsys):
        main(["demo", "b92", "--json"])
        first = capsys.readouterr().out
        main(["demo", "b92", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_degenerate_tolerance_fails(self, capsys):
        # an absurd fixed-point tolerance swallows the whole spectrum and the
        # solver reports a spurious high-dimensional fixed space
        assert main(["demo", "bb84", "--fp-tol", "1.0"]) == 1

    def test_negative_tolerance_is_input_error(self):
        assert main(["demo", "b92", "--fp-tol", "-1"]) == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["demo", "b92", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["classifications"][0]["label"] == 0
        assert "all classifications correct" in capsys.readouterr().out


class TestDistinguishCommand:
    def test_two_state_file(self, b92_states_file, capsys):
        assert main(["distinguish", "--states", b92_states_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["result"]["classifications"]
        assert [r["label"] for r in rows] == [0, 1]
        assert all(r["success_prob"] >= 1 - 1e-9 for r in rows)

    def test_bb84_with_padding(self, bb84_states_file, capsys):
        assert main(["distinguish", "--states", bb84_states_file, "--pad", "4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["result"]["classifications"]
        assert [r["label"] for r in rows] == [0, 1, 2, 3]
        assert report["result"]["floor_margin"] == pytest.approx(1 / np.sqrt(6), abs=1e-9)

    def test_custom_order(self, bb84_states_file, capsys):
        assert main([
            "distinguish", "--states", bb84_states_file, "--pad", "4",
            "--order", "3,1,0,2", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in report["result"]["classifications"]] == [0, 1, 2, 3]

    def test_padding_honours_distinct_tol(self, tmp_path, capsys):
        # overlap cos(0.3) ~ 0.955 passes the default tolerance but not 1 - 0.5
        near = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        path = write_state_file(tmp_path / "near.json", [basis_ket(2, 0), near])
        assert main(["distinguish", "--states", path, "--pad", "2"]) == 0
        capsys.readouterr()
        assert main(["distinguish", "--states", path, "--pad", "2",
                     "--distinct-tol", "0.5"]) == 1
        assert "coincide" in capsys.readouterr().err

    def test_duplicate_states_domain_error(self, tmp_path, capsys):
        path = write_state_file(tmp_path / "dup.json", [basis_ket(2, 0), basis_ket(2, 0)])
        assert main(["distinguish", "--states", path]) == 1
        assert "coincide" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0,0,1,2", "0,1", "0,1,2,9"])
    def test_non_permutation_order_is_input_error(self, bb84_states_file, capsys, order):
        assert main(["distinguish", "--states", bb84_states_file, "--pad", "4",
                     "--order", order]) == 2
        assert "bad --order value" in capsys.readouterr().err

    def test_non_integer_order_is_input_error(self, bb84_states_file, capsys):
        assert main(["distinguish", "--states", bb84_states_file, "--pad", "4",
                     "--order", "3,1,zero,2"]) == 2
        assert "bad --order value: '3,1,zero,2'" in capsys.readouterr().err

    @pytest.mark.parametrize("pad", ["0", "-4"])
    def test_non_positive_pad_is_input_error(self, bb84_states_file, capsys, pad):
        assert main(["distinguish", "--states", bb84_states_file, "--pad", pad]) == 2
        assert "--pad must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("pad", ["1", "3"])
    def test_pad_not_multiple_of_dim_is_input_error(self, bb84_states_file, capsys, pad):
        assert main(["distinguish", "--states", bb84_states_file, "--pad", pad]) == 2
        assert "a multiple of 2" in capsys.readouterr().err

    def test_family_checked_and_verified_once(self, bb84_states_file, monkeypatch):
        counts = {"verify_family": 0, "_family_array": 0}

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(distinguisher, "verify_family")
        # the distinguisher may hold its own reference to the unitarity check
        for module in (deutsch, distinguisher):
            if hasattr(module, "_family_array"):
                count(module, "_family_array")
        assert main(["distinguish", "--states", bb84_states_file, "--pad", "4"]) == 0
        assert counts == {"verify_family": 1, "_family_array": 1}

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2}')
        assert main(["distinguish", "--states", str(bad)]) == 2

    @pytest.mark.parametrize("dim", [2.5, True])
    def test_non_integer_state_file_dim_is_input_error(self, tmp_path, capsys, dim):
        path = write_state_file(tmp_path / "b92.json", [basis_ket(2, 0), minus_ket()], dim=dim)
        assert main(["distinguish", "--states", path]) == 2
        assert 'integer "dim"' in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"states": []}, 'nonempty "states"'),
        ({"labels": {"a": 2}}, "labels must be a list of strings"),
        ({"labels": ["zero", 1]}, "labels must be a list of strings"),
        ({"labels": ["zero"]}, "labels must be a list of strings"),
    ], ids=["empty-states", "label-object", "label-number", "label-count"])
    def test_bad_state_list_is_input_error(self, tmp_path, capsys, extra, message):
        obj = {"dim": 2, "states": [vector_to_json(basis_ket(2, 0)),
                                    vector_to_json(minus_ket())]} | extra
        path = tmp_path / "states.json"
        dump_json(obj, path)
        assert main(["distinguish", "--states", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_boolean_amplitude_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        dump_json({"dim": 2, "states": [[[True, False], [False, False]],
                                        vector_to_json(basis_ket(2, 1))]}, path)
        assert main(["distinguish", "--states", str(path)]) == 2
        assert "pair" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["distinguish", "--states", "/nonexistent/states.json"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--fp-tol", "--span-tol", "--distinct-tol"])
    def test_non_finite_tolerance_is_input_error(self, b92_states_file, capsys, flag, value):
        assert main(["distinguish", "--states", b92_states_file, flag, value]) == 2
        assert "finite" in capsys.readouterr().err


class TestFixedPointCommand:
    def test_two_state_circuit_on_zero(self, tmp_path, capsys):
        ix_file = tmp_path / "ix.json"
        dump_json({"d": 2, "family": [matrix_to_json(identity(2)),
                                      matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))]},
                  ix_file)
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        assert main(["fixed-point", "--interaction", str(ix_file),
                     "--input", str(in_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["unique"] is True
        rep = report["result"]["representative"]
        assert rep[0][0] == pytest.approx([1.0, 0.0])

    def test_report_names_the_solver(self, tmp_path, capsys):
        family = [identity(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2)]
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(minus_ket())}, in_file)
        family_file = tmp_path / "family.json"
        dump_json({"d": 2, "family": [matrix_to_json(u) for u in family]}, family_file)
        dense_file = tmp_path / "dense.json"
        dense = DeutschInteraction(2, 2, swap_then_control(2, family).V)
        dump_json(interaction_to_json(dense), dense_file)
        results = {}
        for ix_file in (family_file, dense_file):
            assert main(["fixed-point", "--interaction", str(ix_file),
                         "--input", str(in_file), "--json"]) == 0
            results[ix_file] = json.loads(capsys.readouterr().out)["result"]
        assert results[family_file]["solver"] == "markov"
        assert results[dense_file]["solver"] == "svd"
        reps = [matrix_from_json(results[f]["representative"]) for f in (family_file, dense_file)]
        np.testing.assert_allclose(reps[0], reps[1], rtol=0, atol=1e-12)

    def test_identity_interaction_reports_ambiguity(self, tmp_path, capsys):
        ix_file = tmp_path / "ix.json"
        dump_json({"d_sys": 2, "d_ctc": 2, "V": matrix_to_json(identity(4))}, ix_file)
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        # diagnosis is the product: ambiguous fixed points still exit 0
        assert main(["fixed-point", "--interaction", str(ix_file),
                     "--input", str(in_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["fixed_space_dim"] == 4
        assert report["result"]["unique"] is False

    @pytest.mark.parametrize("dim", [None, "two", 2.5, True, 2.0, "2"])
    def test_non_integer_input_dim_is_input_error(self, tmp_path, capsys, dim):
        ix_file = write_two_state_family(tmp_path / "ix.json")
        in_file = tmp_path / "in.json"
        dump_json({"dim": dim, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        assert main(["fixed-point", "--interaction", ix_file, "--input", str(in_file)]) == 2
        assert 'integer "dim"' in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("d", 2.7), ("d", "2"), ("d_sys", 2.9), ("d_ctc", 2.0), ("d_sys", True),
    ])
    def test_non_integer_interaction_dim_is_input_error(self, tmp_path, capsys, field, value):
        family = [identity(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2)]
        if field == "d":
            obj = {"d": value, "family": [matrix_to_json(u) for u in family]}
        else:
            obj = interaction_to_json(DeutschInteraction(2, 2, swap_then_control(2, family).V))
            obj[field] = value
        ix_file = tmp_path / "ix.json"
        dump_json(obj, ix_file)
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        assert main(["fixed-point", "--interaction", str(ix_file), "--input", str(in_file)]) == 2
        assert f'integer "{field}"' in capsys.readouterr().err

    def test_input_dim_not_d_sys_is_input_error(self, tmp_path, capsys):
        ix_file = write_two_state_family(tmp_path / "ix.json")
        in_file = tmp_path / "in.json"
        dump_json({"dim": 3, "state": vector_to_json(basis_ket(3, 0))}, in_file)
        assert main(["fixed-point", "--interaction", ix_file, "--input", str(in_file)]) == 2
        assert "does not fit" in capsys.readouterr().err

    def test_mixed_input_state(self, tmp_path, capsys):
        ix_file = tmp_path / "ix.json"
        dump_json({"d": 2, "family": [matrix_to_json(identity(2)),
                                      matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))]},
                  ix_file)
        mixed = 0.5 * np.outer(basis_ket(2, 0), basis_ket(2, 0)) + 0.5 * np.outer(
            minus_ket(), minus_ket()
        )
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": matrix_to_json(mixed)}, in_file)
        assert main(["fixed-point", "--interaction", str(ix_file),
                     "--input", str(in_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["unique"] is True
        rep = np.array([[complex(*pair) for pair in row]
                        for row in report["result"]["representative"]])
        np.testing.assert_allclose(rep, identity(2) / 2, atol=1e-9)

    def test_empty_nullspace_is_domain_error(self, tmp_path, capsys):
        # at fp_tol = 1e-300 no singular value of T - I for a dense Haar V
        # counts as zero, so the solver finds no fixed point
        ix_file = tmp_path / "ix.json"
        v = random_unitary(np.random.default_rng(0), 8)
        dump_json({"d_sys": 2, "d_ctc": 4, "V": matrix_to_json(v)}, ix_file)
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        assert main(["fixed-point", "--interaction", str(ix_file), "--input", str(in_file),
                     "--fp-tol", "1e-300"]) == 1
        assert "nullspace of (T - I) is empty" in capsys.readouterr().err


class TestQkdCommand:
    def test_ctc_attack(self, capsys):
        assert main(["qkd", "--protocol", "bb84", "--signals", "4000",
                     "--eve", "ctc", "--seed", "7", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["qber"] == 0.0
        assert report["result"]["eve_info"] == 1.0

    def test_no_eve_baseline(self, capsys):
        assert main(["qkd", "--protocol", "b92", "--signals", "4000",
                     "--eve", "none", "--seed", "7", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["qber"] == 0.0

    def test_intercept_resend(self, capsys):
        assert main(["qkd", "--protocol", "bb84", "--signals", "10000",
                     "--eve", "intercept_resend_z", "--seed", "7", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["result"]["qber"] - 0.25) < 0.02

    def test_transcript_written(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["qkd", "--protocol", "bb84", "--signals", "100",
                     "--eve", "ctc", "--seed", "0", "--transcript", str(path)]) == 0
        assert len(path.read_text().splitlines()) == 100

    def test_zero_signals_is_input_error(self):
        assert main(["qkd", "--protocol", "bb84", "--signals", "0"]) == 2

    def test_fp_tol_is_not_accepted(self, capsys):
        # a session solves no fixed point, so it takes no fixed-point tolerance
        with pytest.raises(SystemExit) as exc:
            main(["qkd", "--protocol", "bb84", "--signals", "100", "--eve", "ctc",
                  "--fp-tol", "1e-9"])
        assert exc.value.code == 2
        assert "--fp-tol" in capsys.readouterr().err

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["qkd", "--protocol", "bb84", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_ctc_session_does_not_import_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy made unimportable,
        # a CTC session and a non-unique fixed-point solve (swap then
        # controlled-X, input |0>) must still run, and neither may load it
        ix_file = tmp_path / "ix.json"
        dump_json({"d": 2, "family": [matrix_to_json(identity(2)),
                                      matrix_to_json(X)]}, ix_file)
        in_file = tmp_path / "in.json"
        dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import ctcsim\n"
            "from ctcsim import cli\n"
            "code = cli.main(['qkd', '--protocol', 'bb84', '--signals', '100', '--eve', 'ctc'])\n"
            "print('qkd', code, sorted(m for m, mod in sys.modules.items()\n"
            "                          if m.split('.')[0] == 'scipy' and mod is not None))\n"
            f"code = cli.main(['fixed-point', '--interaction', {str(ix_file)!r},\n"
            f"                 '--input', {str(in_file)!r}])\n"
            "print('fixed-point', code)\n"
        )
        src = str(Path(ctcsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        lines = proc.stdout.splitlines()
        assert lines[1] == "qkd 0 []"
        assert lines[2].startswith("fixed-point: space dimension 2, unique = False")
        assert lines[-1] == "fixed-point 0"


class TestHolevoCommand:
    def test_four_signal_states(self, bb84_states_file, capsys):
        assert main(["holevo", "--states", bb84_states_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["chi_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["result"]["accessible_bits"] == pytest.approx(2.0, abs=1e-9)
        assert report["result"]["violation"] is True

    def test_orthogonal_pair(self, tmp_path, capsys):
        path = write_state_file(tmp_path / "zo.json", [basis_ket(2, 0), basis_ket(2, 1)])
        assert main(["holevo", "--states", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["accessible_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["result"]["violation"] is False

    def test_eight_states(self, tmp_path, capsys):
        vectors = [
            np.array([np.cos(m * np.pi / 16), np.sin(m * np.pi / 16)], dtype=complex)
            for m in range(8)
        ]
        path = write_state_file(tmp_path / "eight.json", vectors)
        assert main(["holevo", "--states", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["accessible_bits"] == pytest.approx(3.0, abs=1e-9)
        assert report["result"]["chi_bits"] <= 1.0 + 1e-12

    def test_fp_tol_reaches_the_solver(self, bb84_states_file, capsys):
        # a tolerance of 1.0 counts every singular value as zero, so the
        # fixed space is ambiguous and the receiver cannot classify
        assert main(["holevo", "--states", bb84_states_file, "--fp-tol", "1.0"]) == 1
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [None, "two", 2.5, True])
    def test_non_integer_ensemble_dim_is_input_error(self, tmp_path, capsys, dim):
        path = tmp_path / "ensemble.json"
        dump_json({"dim": dim, "priors": [0.5, 0.5],
                   "states": [vector_to_json(basis_ket(2, 0)), vector_to_json(minus_ket())]},
                  path)
        assert main(["holevo", "--states", str(path)]) == 2
        assert 'integer "dim"' in capsys.readouterr().err

    def test_boolean_priors_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "ensemble.json"
        dump_json({"dim": 2, "priors": [True, False],
                   "states": [vector_to_json(basis_ket(2, 0)), vector_to_json(minus_ket())]},
                  path)
        assert main(["holevo", "--states", str(path)]) == 2
        assert "priors must be a list of numbers" in capsys.readouterr().err

    def test_nan_priors_flag_is_input_error(self, b92_states_file, capsys):
        assert main(["holevo", "--states", b92_states_file, "--priors", "nan,nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_priors_in_file_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "ensemble.json"
        dump_json({"dim": 2, "priors": [float("nan"), float("nan")],
                   "states": [vector_to_json(basis_ket(2, 0)), vector_to_json(minus_ket())]},
                  path)
        assert "NaN" in path.read_text()
        assert main(["holevo", "--states", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_nonuniform_priors_honoured(self, bb84_states_file, capsys):
        # the average state is diag(0.6, 0.4), so chi = H(0.6); perfect
        # classification extracts the prior entropy H(0.4, 0.2, 0.2, 0.2)
        assert main(["holevo", "--states", bb84_states_file,
                     "--priors", "0.4,0.2,0.2,0.2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["chi_bits"] == pytest.approx(0.970951, abs=1e-6)
        assert report["result"]["accessible_bits"] == pytest.approx(1.921928, abs=1e-6)
        assert report["result"]["violation"] is True
        assert report["config"]["priors"] == "0.4,0.2,0.2,0.2"

    def test_file_that_is_not_an_object_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        dump_json([vector_to_json(basis_ket(2, 0))], path)
        assert main(["holevo", "--states", str(path)]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_non_numeric_priors_flag_is_input_error(self, b92_states_file, capsys):
        assert main(["holevo", "--states", b92_states_file, "--priors", "half,half"]) == 2
        assert "bad --priors value" in capsys.readouterr().err


@pytest.fixture
def command_lines(tmp_path, bb84_states_file):
    """One valid command line per subcommand."""
    ix_file = write_two_state_family(tmp_path / "ix.json")
    in_file = tmp_path / "in.json"
    dump_json({"dim": 2, "state": vector_to_json(basis_ket(2, 0))}, in_file)
    return {
        "demo": ["demo", "b92"],
        "distinguish": ["distinguish", "--states", bb84_states_file, "--pad", "4"],
        "fixed-point": ["fixed-point", "--interaction", ix_file, "--input", str(in_file)],
        "qkd": ["qkd", "--protocol", "b92", "--signals", "100", "--eve", "ctc"],
        "holevo": ["holevo", "--states", bb84_states_file],
    }


def subparsers() -> dict:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestReportEnvelope:
    def test_every_subcommand_is_covered(self, command_lines):
        assert set(command_lines) == set(subparsers())

    @pytest.mark.parametrize("command", ["demo", "distinguish", "fixed-point", "qkd", "holevo"])
    def test_config_holds_every_accepted_flag(self, command_lines, capsys, command):
        assert main(command_lines[command] + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        dests = {a.dest for a in subparsers()[command]._actions} - {"help", "out", "json"}
        assert report["command"] == command
        assert set(report["config"]) == dests

    def test_out_with_json_prints_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["demo", "b92", "--out", str(out), "--json"]) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        assert json.loads(printed)["config"] == {"which": "b92", "fp_tol": deutsch.DEFAULT_FP_TOL}
