import numpy as np
import pytest

from conftest import random_density
import ctcsim.deutsch as deutsch
from ctcsim.deutsch import DeutschInteraction, fixed_points, swap_then_control
from ctcsim.qlinalg import H, PureState, basis_ket, identity, minus_ket
from ctcsim.serialize import (
    SchemaError,
    density_from_json,
    ensemble_from_json,
    fixed_point_result_to_json,
    input_state_from_json,
    interaction_from_json,
    interaction_to_json,
    looks_like_matrix,
    matrix_from_json,
    matrix_to_json,
    pure_states_from_json,
    vector_from_json,
    vector_to_json,
)


class TestScalarAndArrayFormats:
    def test_matrix_roundtrip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_vector_roundtrip(self):
        v = minus_ket()
        encoded = vector_to_json(v)
        assert encoded[1] == [-1 / np.sqrt(2), 0.0]
        np.testing.assert_allclose(vector_from_json(encoded), v)

    def test_matrix_vs_vector_detection(self):
        assert looks_like_matrix(matrix_to_json(identity(2)))
        assert not looks_like_matrix(vector_to_json(basis_ket(2, 0)))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(SchemaError, match="inconsistent"):
            matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_bad_pair_rejected(self):
        with pytest.raises(SchemaError, match="pair"):
            vector_from_json([[1.0, 0.0, 0.0]])


class TestInteractionFiles:
    def test_raw_form_roundtrip(self, rng):
        ix = DeutschInteraction(2, 2, swap_then_control(2, [identity(2), H]).V)
        parsed = interaction_from_json(interaction_to_json(ix))
        np.testing.assert_allclose(parsed.V, ix.V)
        assert (parsed.d_sys, parsed.d_ctc) == (2, 2)

    def test_family_roundtrip_keeps_the_family(self, monkeypatch):
        ix = swap_then_control(2, [identity(2), H])

        def refuse(us):
            raise AssertionError("V was built")

        monkeypatch.setattr(deutsch, "_swap_then_control_matrix", refuse)
        obj = interaction_to_json(ix)
        assert set(obj) == {"d", "family"}
        parsed = interaction_from_json(obj)
        np.testing.assert_array_equal(parsed.family, ix.family)
        rho = PureState(minus_ket()).projector()
        assert fixed_points(parsed, rho).solver == fixed_points(ix, rho).solver == "markov"

    def test_family_form(self):
        obj = {"d": 2, "family": [matrix_to_json(identity(2)), matrix_to_json(H)]}
        parsed = interaction_from_json(obj)
        np.testing.assert_allclose(parsed.V, swap_then_control(2, [identity(2), H]).V)

    def test_non_unitary_rejected(self):
        obj = {"d_sys": 2, "d_ctc": 2, "V": matrix_to_json(np.ones((4, 4)))}
        with pytest.raises(SchemaError, match="invalid interaction"):
            interaction_from_json(obj)

    def test_missing_keys_rejected(self):
        with pytest.raises(SchemaError):
            interaction_from_json({"d_sys": 2})


class TestStateFiles:
    def test_state_set_parse(self):
        obj = {
            "dim": 2,
            "states": [vector_to_json(basis_ket(2, 0)), vector_to_json(minus_ket())],
            "labels": ["zero", "minus"],
        }
        states, labels = pure_states_from_json(obj)
        assert labels == ["zero", "minus"]
        assert states[1].dim == 2

    def test_dimension_mismatch(self):
        obj = {"dim": 3, "states": [vector_to_json(basis_ket(2, 0))]}
        with pytest.raises(SchemaError, match="dim-3"):
            pure_states_from_json(obj)

    def test_unnormalized_state_rejected(self):
        obj = {"dim": 2, "states": [[[2.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(SchemaError, match="invalid state"):
            pure_states_from_json(obj)

    def test_density_from_vector_or_matrix(self, rng):
        rho = density_from_json(vector_to_json(basis_ket(2, 1)))
        assert rho.matrix[1, 1] == pytest.approx(1.0)
        m = random_density(rng, 2)
        np.testing.assert_allclose(density_from_json(matrix_to_json(m)).matrix, m)

    def test_input_state_file(self):
        obj = {"dim": 2, "state": vector_to_json(basis_ket(2, 0))}
        rho = input_state_from_json(obj)
        assert rho.dim == 2
        with pytest.raises(SchemaError, match="does not match"):
            input_state_from_json({"dim": 4, "state": vector_to_json(basis_ket(2, 0))})


class TestEnsembleFiles:
    def test_uniform_default(self):
        obj = {"dim": 2, "states": [vector_to_json(basis_ket(2, 0)), vector_to_json(basis_ket(2, 1))]}
        ens = ensemble_from_json(obj)
        assert ens.priors == (0.5, 0.5)

    def test_explicit_priors_and_matrices(self, rng):
        m = random_density(rng, 2)
        obj = {"priors": [0.25, 0.75], "states": [matrix_to_json(m), vector_to_json(basis_ket(2, 0))]}
        ens = ensemble_from_json(obj)
        assert ens.priors == (0.25, 0.75)

    def test_bad_priors(self):
        obj = {"priors": [0.5], "states": [vector_to_json(basis_ket(2, 0))] * 2}
        with pytest.raises(SchemaError, match="invalid ensemble"):
            ensemble_from_json(obj)


class TestFixedPointReport:
    def test_report_shape(self):
        from ctcsim.deutsch import fixed_points
        from ctcsim.qlinalg import DensityMatrix

        ix = swap_then_control(2, [identity(2), H])
        fp = fixed_points(ix, DensityMatrix.from_pure(basis_ket(2, 0)))
        obj = fixed_point_result_to_json(fp)
        assert obj["unique"] is True
        assert obj["fixed_space_dim"] == 1
        assert len(obj["basis"]) == 1
        np.testing.assert_allclose(
            matrix_from_json(obj["representative"]),
            np.outer(basis_ket(2, 0), basis_ket(2, 0)),
            atol=1e-12,
        )
