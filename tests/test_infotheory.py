import numpy as np
import pytest

from conftest import haar_state, random_unitary
from ctcsim.infotheory import (
    Ensemble,
    _mutual_information_bits,
    ctc_accessible_info,
    holevo_chi,
    violation_report,
    von_neumann_entropy,
)
from ctcsim.qlinalg import DensityMatrix, PureState, basis_ket, minus_ket, plus_ket


def uniform_bb84() -> Ensemble:
    return Ensemble.uniform_pure(
        [
            PureState(basis_ket(2, 0)),
            PureState(basis_ket(2, 1)),
            PureState(plus_ket()),
            PureState(minus_ket()),
        ]
    )


def eight_qubit_states() -> list[PureState]:
    return [
        PureState(np.array([np.cos(m * np.pi / 16), np.sin(m * np.pi / 16)], dtype=complex))
        for m in range(8)
    ]


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(1.0)

    def test_pure_projector(self):
        rho = PureState(plus_ket()).projector()
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_binary_mixture(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        # binary entropy h(1/4) = 2 - (3/4) log2 3
        expected = 2.0 - 0.75 * np.log2(3.0)
        assert expected == pytest.approx(0.811278, abs=1e-6)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_unitary_invariance(self, rng):
        for dim in (2, 3, 5):
            probs = rng.dirichlet(np.ones(dim))
            rho = DensityMatrix(np.diag(probs).astype(complex))
            u = random_unitary(rng, dim)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10
            )


class TestHolevoChi:
    def test_orthogonal_pair(self):
        ens = Ensemble.uniform_pure([PureState(basis_ket(2, 0)), PureState(basis_ket(2, 1))])
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-12)

    def test_four_signal_states(self):
        # the average of the four signal states is I/2 and all members are pure
        assert holevo_chi(uniform_bb84()) == pytest.approx(1.0, abs=1e-9)

    def test_nonorthogonal_pair(self):
        ens = Ensemble.uniform_pure([PureState(basis_ket(2, 0)), PureState(plus_ket())])
        lam = np.array([(1 - 1 / np.sqrt(2)) / 2, (1 + 1 / np.sqrt(2)) / 2])
        expected = float(-(lam * np.log2(lam)).sum())
        assert expected == pytest.approx(0.600876, abs=1e-6)
        assert holevo_chi(ens) == pytest.approx(expected, abs=1e-12)

    def test_bounds(self, rng):
        for dim in (2, 4):
            n = 5
            priors = rng.dirichlet(np.ones(n))
            states = [haar_state(rng, dim).projector() for _ in range(n)]
            ens = Ensemble(priors=tuple(priors), states=tuple(states))
            chi = holevo_chi(ens)
            assert -1e-10 <= chi <= np.log2(dim) + 1e-10


class TestAccessibleInfo:
    def test_four_states_beat_one_bit(self):
        ens = uniform_bb84()
        assert ctc_accessible_info(ens, 4) == pytest.approx(2.0, abs=1e-9)
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pair_no_violation(self):
        ens = Ensemble.uniform_pure([PureState(basis_ket(2, 0)), PureState(basis_ket(2, 1))])
        report = violation_report(ens, 2)
        assert report["accessible_bits"] == pytest.approx(1.0, abs=1e-9)
        assert not report["violation"]

    def test_three_bits_through_one_qubit(self):
        ens = Ensemble.uniform_pure(eight_qubit_states())
        report = violation_report(ens, 8)
        assert report["accessible_bits"] == pytest.approx(3.0, abs=1e-9)
        assert report["chi_bits"] <= 1.0 + 1e-12
        assert report["violation"]
        assert report["qubit_dim"] == 2 and report["padded_dim"] == 8

    def test_random_qubit_quadruple_violates(self, rng):
        # any four distinct qubit-origin states padded to dim 4 reach 2 bits
        while True:
            states = [haar_state(rng, 2) for _ in range(4)]
            overlaps = [
                abs(states[i].overlap(states[j]))
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            if max(overlaps) < 1 - 1e-3:
                break
        ens = Ensemble.uniform_pure(states)
        info = ctc_accessible_info(ens, 4)
        assert info == pytest.approx(2.0, abs=1e-9)
        assert info > holevo_chi(ens)

    def test_nonuniform_priors_give_prior_entropy(self):
        ens = Ensemble(
            priors=(0.7, 0.3),
            states=(PureState(basis_ket(2, 0)).projector(), PureState(basis_ket(2, 1)).projector()),
        )
        assert ctc_accessible_info(ens, 2) == pytest.approx(0.881291, abs=1e-6)

    def test_requires_pure_states(self):
        ens = Ensemble(
            priors=(0.5, 0.5),
            states=(DensityMatrix.maximally_mixed(2), PureState(basis_ket(2, 1)).projector()),
        )
        with pytest.raises(ValueError, match="pure"):
            ctc_accessible_info(ens, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="ensemble size"):
            ctc_accessible_info(uniform_bb84(), 8)


def binary_entropy(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


class TestMutualInformation:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_binary_symmetric_channel(self, p):
        joint = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
        assert _mutual_information_bits(joint) == pytest.approx(1 - binary_entropy(p), abs=1e-12)

    def test_zero_entries_give_finite_value(self):
        # source 0 always labelled 0, source 1 labelled uniformly: h(1/4) - 1/2
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        value = _mutual_information_bits(joint)
        assert np.isfinite(value)
        assert value == pytest.approx(binary_entropy(0.25) - 0.5, abs=1e-12)


class TestEnsembleValidation:
    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(priors=(0.5, 0.4), states=(DensityMatrix.maximally_mixed(2),) * 2)
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(priors=(1.5, -0.5), states=(DensityMatrix.maximally_mixed(2),) * 2)

    @pytest.mark.parametrize("priors", [(np.nan, np.nan), (np.inf, 0.0), (0.5, np.nan)])
    def test_rejects_non_finite_priors(self, priors):
        with pytest.raises(ValueError, match="finite"):
            Ensemble(priors=priors, states=(DensityMatrix.maximally_mixed(2),) * 2)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mismatched"):
            Ensemble(
                priors=(0.5, 0.5),
                states=(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)),
            )

    def test_average_state(self):
        ens = uniform_bb84()
        np.testing.assert_allclose(ens.average_state().matrix, np.eye(2) / 2, atol=1e-12)
