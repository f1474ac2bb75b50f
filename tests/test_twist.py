"""Twist reduction: eigen-angles and multiplicities."""

import json
import math

import numpy as np
import pytest

from resonance_lab.errors import DomainError, NonUnitaryError
from resonance_lab.twist import TwistSpec, eigen_angles


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEigenAngles:
    def test_identity(self):
        t = eigen_angles(np.eye(4))
        assert t.angles == (t.angles[0],)
        assert t.angles[0].theta == 0.0 and t.angles[0].mult == 4

    def test_example_matrix(self):
        t = eigen_angles(np.diag([1j, -1.0]))
        assert [(a.theta, a.mult) for a in t.angles] == [(0.25, 1), (0.5, 1)]

    def test_rotation_block(self):
        alpha = 0.8
        u = np.array(
            [[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]]
        )
        t = eigen_angles(u)
        thetas = sorted(a.theta for a in t.angles)
        assert abs(thetas[0] - alpha / (2 * math.pi)) < 1e-12
        assert abs(thetas[1] - (1.0 - alpha / (2 * math.pi))) < 1e-12

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(31)
        base = np.diag([1.0, 1j, 1j, np.exp(0.6j)])
        for _ in range(10):
            w = random_unitary(rng, 4)
            t = eigen_angles(w.conj().T @ base @ w)
            pairs = [(round(a.theta, 9), a.mult) for a in t.angles]
            assert pairs == [(0.0, 1), (round(0.6 / (2 * math.pi), 9), 1), (0.25, 2)]

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            eigen_angles(np.diag([2.0, 1.0]))

    def test_angle_near_one_wraps_to_zero(self):
        u = np.diag([np.exp(-1e-11j)])
        t = eigen_angles(u)
        assert t.angles[0].theta == 0.0


class TestTwistSpec:
    def test_dimension_and_unitarity(self):
        t = TwistSpec.from_angles([(0.0, 2), (0.25, 1)])
        assert sum(a.mult for a in t.angles) == 3 and t.is_unitary
        tn = TwistSpec.from_angles([(0.0, 1)], moduli=[0.3])
        assert not tn.is_unitary
        assert abs(tn.log_norm() - 0.3) < 1e-15

    def test_duplicate_classes_rejected(self):
        with pytest.raises(DomainError):
            TwistSpec.from_angles([(0.25, 1), (0.25, 2)])

    def test_theta_range_validation(self):
        with pytest.raises(DomainError):
            TwistSpec.from_angles([(1.0, 1)])

    @pytest.mark.parametrize("log_abs", [math.nan, math.inf, -math.inf])
    def test_non_finite_modulus_rejected(self, log_abs):
        with pytest.raises(DomainError, match="log_abs must be finite"):
            TwistSpec.from_angles([(0.25, 1)], moduli=[log_abs])
        with pytest.raises(DomainError, match="log_abs must be finite"):
            TwistSpec.from_json_dict({"angles": [{"theta": 0.25, "mult": 1, "log_abs": log_abs}]})

    def test_json_round_trip(self):
        t = TwistSpec.from_angles([(0.25, 1), (0.5, 3)])
        assert TwistSpec.from_json_dict(json.loads(json.dumps(t.to_json_dict()))) == t
        tn = TwistSpec.from_angles([(0.1, 2)], moduli=[-0.7])
        assert TwistSpec.from_json_dict(json.loads(json.dumps(tn.to_json_dict()))) == tn

    @pytest.mark.parametrize("entry", [{"theta": 0.25, "mult": 1e400}, {"theta": 0.25}, [0.25, 1]])
    def test_malformed_json_rejected(self, entry):
        with pytest.raises(DomainError):
            TwistSpec.from_json_dict({"angles": [entry]})

    def test_eigenvalue_property(self):
        t = TwistSpec.from_angles([(0.25, 1)])
        assert abs(t.angles[0].eigenvalue - 1j) < 1e-15
