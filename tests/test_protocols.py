import json

import numpy as np
import pytest

from ctcsim import cli, protocols
from ctcsim.distinguisher import ConstructionError, UnitaryFamily
from ctcsim.protocols import (
    EVE_STRATEGIES,
    b92_demo,
    b92_protocol,
    bb84_demo,
    bb84_family,
    bb84_protocol,
    run_qkd,
)
from ctcsim.qlinalg import basis_ket, minus_ket, plus_ket


class TestDemos:
    def test_b92_demo_classifications(self):
        report = b92_demo()
        rows = report["classifications"]
        assert [r["label"] for r in rows] == [0, 1]
        assert all(r["unique"] and r["fixed_space_dim"] == 1 for r in rows)
        assert all(r["success_prob"] >= 1 - 1e-9 for r in rows)
        assert all(r["residual"] <= 1e-10 for r in rows)
        # the circuit pins the CTC qubit to |0><0| and |1><1| respectively
        np.testing.assert_allclose(rows[0]["ctc_diag"], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(rows[1]["ctc_diag"], [0.0, 1.0], atol=1e-9)

    def test_bb84_demo_mapping_table(self):
        report = bb84_demo()
        rows = report["classifications"]
        assert [(r["input"], r["output"]) for r in rows] == [
            ("|00>", "|00>"),
            ("|10>", "|01>"),
            ("|+0>", "|10>"),
            ("|-0>", "|11>"),
        ]
        assert [(r["decoded_basis"], r["decoded_eigenvalue"]) for r in rows] == [
            ("Z", 1), ("Z", -1), ("X", 1), ("X", -1),
        ]
        assert all(r["unique"] and r["success_prob"] >= 1 - 1e-9 for r in rows)


class TestHandBuiltFamily:
    def test_eq_unitary_actions(self):
        fam = bb84_family()
        ket10 = np.kron(basis_ket(2, 1), basis_ket(2, 0))
        ket01 = np.kron(basis_ket(2, 0), basis_ket(2, 1))
        np.testing.assert_allclose(fam.unitaries[1] @ ket10, ket01, atol=1e-12)
        plus0 = np.kron(plus_ket(), basis_ket(2, 0))
        np.testing.assert_allclose(fam.unitaries[2] @ plus0, ket10, atol=1e-12)
        minus0 = np.kron(minus_ket(), basis_ket(2, 0))
        ket11 = np.kron(basis_ket(2, 1), basis_ket(2, 1))
        np.testing.assert_allclose(fam.unitaries[3] @ minus0, ket11, atol=1e-12)

    def test_padded_state_order(self):
        padded = bb84_family().states
        np.testing.assert_allclose(padded.states[1].vector, np.kron(basis_ket(2, 1), basis_ket(2, 0)))


class TestProtocols:
    def test_signal_tables(self):
        b92 = b92_protocol()
        assert b92.state_index(0, None) == 0
        assert b92.state_index(1, None) == 1
        bb84 = bb84_protocol()
        assert bb84.state_index(0, 0) == 0
        assert bb84.state_index(1, 1) == 3

    def test_strategy_names(self):
        assert EVE_STRATEGIES == ("none", "ctc", "intercept_resend_z")


class TestRunQkd:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("make_protocol", [bb84_protocol, b92_protocol])
    def test_ctc_eavesdropper_is_perfect(self, make_protocol, seed, tmp_path):
        protocol = make_protocol()
        path = tmp_path / "transcript.jsonl"
        stats = run_qkd(protocol, 2000, "ctc", seed, transcript_path=path)
        assert stats.qber == 0.0
        assert stats.eve_info == 1.0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2000
        for rec in records:
            # classification never errs: the resent state is Alice's own
            if protocol.name == "BB84":
                basis = {"Z": 0, "X": 1}[rec["alice_basis"]]
                expected = protocol.state_index(rec["alice_bit"], basis)
            else:
                expected = protocol.state_index(rec["alice_bit"], None)
            assert rec["eve_label"] == expected
            assert not rec["error"]

    def test_ctc_eavesdropper_verifies_its_family(self, monkeypatch):
        # with U_0 and U_1 swapped, condition 1 fails and |00> no longer reads label 0
        fam = bb84_family()
        swapped = UnitaryFamily(states=fam.states, unitaries=fam.unitaries[[1, 0, 2, 3]])
        monkeypatch.setattr(protocols, "bb84_family", lambda: swapped)
        with pytest.raises(ConstructionError):
            run_qkd(bb84_protocol(), 100, "ctc", seed=0)

    def test_no_eavesdropper_is_noiseless(self):
        stats = run_qkd(bb84_protocol(), 5000, "none", seed=3)
        assert stats.qber == 0.0
        assert stats.eve_info == 0.0

    def test_intercept_resend_quarter_error(self):
        stats = run_qkd(bb84_protocol(), 10_000, "intercept_resend_z", seed=11)
        # analytic rate 1/4; five-sigma band at ~5000 sifted bits
        sigma = np.sqrt(0.25 * 0.75 / stats.sifted)
        assert abs(stats.qber - 0.25) <= 5 * sigma

    def test_bb84_sift_rate(self):
        stats = run_qkd(bb84_protocol(), 10_000, "none", seed=5)
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(stats.sifted / 10_000 - 0.5) <= 5 * sigma

    def test_b92_conclusive_rate(self):
        stats = run_qkd(b92_protocol(), 10_000, "none", seed=5)
        sigma = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(stats.sifted / 10_000 - 0.25) <= 5 * sigma
        assert stats.qber == 0.0

    def test_reproducible_from_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        s1 = run_qkd(bb84_protocol(), 500, "intercept_resend_z", 42, transcript_path=p1)
        s2 = run_qkd(bb84_protocol(), 500, "intercept_resend_z", 42, transcript_path=p2)
        assert s1 == s2
        assert p1.read_bytes() == p2.read_bytes()

    def test_seeds_differ(self):
        s1 = run_qkd(bb84_protocol(), 500, "intercept_resend_z", 1)
        s2 = run_qkd(bb84_protocol(), 500, "intercept_resend_z", 2)
        assert s1.qber != s2.qber or s1.sifted != s2.sifted

    def test_transcript_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_qkd(b92_protocol(), 50, "none", 0, transcript_path=path)
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {
            "index", "alice_bit", "alice_basis", "eve_label",
            "bob_basis", "bob_outcome", "sifted", "error",
        }
        assert rec["alice_basis"] is None  # B92 has no basis choice
        assert rec["eve_label"] is None

    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            run_qkd(bb84_protocol(), 10, "clone", 0)

    def test_rejects_zero_signals(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_qkd(bb84_protocol(), 0, "none", 0)

    def test_stats_dict_shape(self):
        stats = run_qkd(bb84_protocol(), 100, "none", 9)
        d = stats.to_dict()
        assert d["qber_undefined"] is False
        assert d["seed"] == 9


SESSIONS = [
    pytest.param(make, eve, id=f"{make().name}-{eve}")
    for make in (bb84_protocol, b92_protocol)
    for eve in EVE_STRATEGIES
]

# closed-form (sifted fraction, QBER, eve_info) of each protocol and eavesdropper
EXPECTED_RATES = {
    ("BB84", "none"): (1 / 2, 0.0, 0.0),
    ("BB84", "ctc"): (1 / 2, 0.0, 1.0),
    ("BB84", "intercept_resend_z"): (1 / 2, 1 / 4, 3 / 4),
    ("B92", "none"): (1 / 4, 0.0, 0.0),
    ("B92", "ctc"): (1 / 4, 0.0, 1.0),
    ("B92", "intercept_resend_z"): (3 / 8, 1 / 3, 5 / 6),
}


def assert_rate(observed: float, p: float, n: int) -> None:
    """Exact for a certain event, else within six binomial sigmas."""
    if p in (0.0, 1.0):
        assert observed == p
    else:
        assert abs(observed - p) <= 6 * np.sqrt(p * (1 - p) / n)


class TestWholeSession:
    @pytest.mark.parametrize("make_protocol, eve", SESSIONS)
    def test_transcript_leaves_stats_unchanged(self, make_protocol, eve, tmp_path):
        protocol = make_protocol()
        quiet = run_qkd(protocol, 3000, eve, 2024)
        logged = run_qkd(protocol, 3000, eve, 2024, transcript_path=tmp_path / "t.jsonl")
        assert quiet == logged

    @pytest.mark.parametrize("make_protocol, eve", SESSIONS)
    def test_records_obey_deterministic_physics(self, make_protocol, eve, tmp_path):
        protocol = make_protocol()
        path = tmp_path / "t.jsonl"
        stats = run_qkd(protocol, 2000, eve, 31, transcript_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["index"] for rec in records] == list(range(2000))
        errors = eve_known = 0
        for rec in records:
            bit, outcome, label = rec["alice_bit"], rec["bob_outcome"], rec["eve_label"]
            bob_z = rec["bob_basis"] == "Z"
            if protocol.name == "BB84":
                alice_z = rec["alice_basis"] == "Z"
                prepared = protocol.state_index(bit, 0 if alice_z else 1)
                sifted = rec["bob_basis"] == rec["alice_basis"]
            else:
                assert rec["alice_basis"] is None
                alice_z = bit == 0  # B92 sends |0> for 0 and |-> for 1
                prepared = protocol.state_index(bit, None)
                sifted = outcome == (1 if bob_z else 0)
            assert rec["sifted"] == sifted
            assert rec["error"] == (sifted and outcome != bit)
            if eve == "intercept_resend_z":
                # Eve reads a Z eigenstate faithfully and resends her result
                assert label in (0, 1)
                if alice_z:
                    assert label == bit
                if bob_z:
                    assert outcome == label
                eve_known += sifted and label == bit
            else:
                # Bob receives Alice's own state
                assert label == (prepared if eve == "ctc" else None)
                if protocol.name == "BB84" and sifted:
                    assert outcome == bit
                if protocol.name == "B92" and alice_z and bob_z:
                    assert outcome == 0
                if protocol.name == "B92" and not alice_z and not bob_z:
                    assert outcome == 1
                eve_known += sifted and eve == "ctc"
            errors += rec["error"]
        assert stats.sifted == sum(rec["sifted"] for rec in records)
        assert stats.qber == errors / stats.sifted
        assert stats.eve_info == eve_known / stats.sifted

    @pytest.mark.parametrize("make_protocol, eve", SESSIONS)
    def test_closed_form_rates(self, make_protocol, eve):
        protocol = make_protocol()
        n = 100_000
        stats = run_qkd(protocol, n, eve, 101)
        sift, qber, eve_info = EXPECTED_RATES[(protocol.name, eve)]
        assert_rate(stats.sifted / n, sift, n)
        assert_rate(stats.qber, qber, stats.sifted)
        assert_rate(stats.eve_info, eve_info, stats.sifted)


def json_dumps_reference(n_signals: int, columns: dict) -> bytes:
    """The transcript as written by one ``json.dumps`` per signal, from the
    session's per-signal arrays (None for a field absent from the session)."""
    names, nothing = np.array(["Z", "X"]), [None] * n_signals
    alice_basis, eve_label = columns["alice_basis"], columns["eve_label"]
    rows = {
        "index": range(n_signals),
        "alice_bit": columns["alice_bit"].tolist(),
        "alice_basis": nothing if alice_basis is None else names[alice_basis].tolist(),
        "eve_label": nothing if eve_label is None else eve_label.tolist(),
        "bob_basis": names[columns["bob_basis"]].tolist(),
        "bob_outcome": columns["bob_outcome"].tolist(),
        "sifted": columns["sifted"].tolist(),
        "error": columns["error"].tolist(),
    }
    lines = (json.dumps(dict(zip(rows, values)), sort_keys=True) + "\n"
             for values in zip(*rows.values()))
    return "".join(lines).encode("utf-8")


@pytest.fixture
def session_arrays(monkeypatch):
    """Record the per-signal arrays each session hands its transcript writer."""
    calls = []
    write = protocols._write_transcript

    def recording(path, n_signals, fields):
        calls.append((n_signals, {key: digits for key, (digits, _) in fields.items()}))
        write(path, n_signals, fields)

    monkeypatch.setattr(protocols, "_write_transcript", recording)
    return calls


class TestTranscriptWriter:
    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("make_protocol, eve", SESSIONS)
    def test_matches_reference(self, make_protocol, eve, seed, tmp_path, session_arrays):
        path = tmp_path / "t.jsonl"
        run_qkd(make_protocol(), 3000, eve, seed, transcript_path=path)
        (n_signals, columns), = session_arrays
        assert path.read_bytes() == json_dumps_reference(n_signals, columns)

    @pytest.mark.parametrize("make_protocol, eve", SESSIONS)
    def test_single_signal(self, make_protocol, eve, tmp_path, session_arrays):
        path = tmp_path / "t.jsonl"
        run_qkd(make_protocol(), 1, eve, 5, transcript_path=path)
        (n_signals, columns), = session_arrays
        assert n_signals == 1
        assert path.read_bytes() == json_dumps_reference(n_signals, columns)

    def test_cli_transcript_matches_reference(self, tmp_path, capsys, session_arrays):
        path = tmp_path / "t.jsonl"
        assert cli.main(["qkd", "--protocol", "bb84", "--signals", "3000", "--eve",
                         "intercept_resend_z", "--seed", "9", "--transcript", str(path)]) == 0
        capsys.readouterr()
        (n_signals, columns), = session_arrays
        assert path.read_bytes() == json_dumps_reference(n_signals, columns)
