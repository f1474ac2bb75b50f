"""Twist data: eigen-angles with multiplicities of a model end's monodromy.

A unitary monodromy U is reduced to its eigenvalue angles theta in [0, 1)
(eigenvalues e^(2 pi i theta)).  Invertible diagonalizable monodromies with
non-unit moduli are supported for resonance lattices on the hyperbolic
cylinder through the optional per-class log|lambda| entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonUnitaryError

#: Unitarity check tolerance and eigenvalue clustering width.
UNITARY_TOL = 1e-10
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class AngleClass:
    """One eigenvalue class: lambda = exp(log_abs + 2 pi i theta)."""

    theta: float
    mult: int
    log_abs: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta < 1.0):
            raise DomainError(f"theta must lie in [0, 1), got {self.theta}")
        if self.mult < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.mult}")

    @property
    def eigenvalue(self) -> complex:
        return math.exp(self.log_abs) * complex(
            math.cos(2.0 * math.pi * self.theta), math.sin(2.0 * math.pi * self.theta)
        )


@dataclass(frozen=True)
class TwistSpec:
    """Eigen-angle classes of a monodromy matrix, sorted by (theta, log_abs)."""

    angles: tuple[AngleClass, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "angles", tuple(sorted(self.angles, key=lambda a: (a.theta, a.log_abs)))
        )
        seen = set()
        for a in self.angles:
            key = (a.theta, a.log_abs)
            if key in seen:
                raise DomainError(f"duplicate eigenvalue class {key}")
            seen.add(key)

    @property
    def is_unitary(self) -> bool:
        return all(a.log_abs == 0.0 for a in self.angles)

    def log_norm(self) -> float:
        """max(log ||chi||, log ||chi^-1||) for the diagonalizable monodromy."""
        if not self.angles:
            return 0.0
        return max(abs(a.log_abs) for a in self.angles)

    @staticmethod
    def from_angles(pairs, moduli=None) -> "TwistSpec":
        """Build from [(theta, mult), ...] plus optional log|lambda| list."""
        pairs = list(pairs)
        if moduli is None:
            moduli = [0.0] * len(pairs)
        if len(moduli) != len(pairs):
            raise DomainError("moduli list must match the angle list")
        return TwistSpec(
            tuple(AngleClass(t, m, la) for (t, m), la in zip(pairs, moduli))
        )

    @staticmethod
    def trivial(dim: int = 1) -> "TwistSpec":
        return TwistSpec((AngleClass(0.0, dim),))

    def to_json_dict(self) -> dict:
        out = {"angles": [{"theta": a.theta, "mult": a.mult} for a in self.angles]}
        if not self.is_unitary:
            for entry, a in zip(out["angles"], self.angles):
                entry["log_abs"] = a.log_abs
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "TwistSpec":
        try:
            angles = tuple(
                AngleClass(
                    float(e["theta"]), int(e["mult"]), float(e.get("log_abs", 0.0))
                )
                for e in d["angles"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed twist spec: {d!r}") from exc
        return TwistSpec(angles)


def eigen_angles(U, tol: float = UNITARY_TOL) -> TwistSpec:
    """Reduce a unitary matrix to its angle classes with multiplicities.

    Eigenvalues within CLUSTER_TOL of each other (cyclically, so angles
    just below 1 merge with 0) form a single class.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {U.shape}")
    n = U.shape[0]
    defect = np.linalg.norm(U.conj().T @ U - np.eye(n), 2)
    if defect > tol:
        raise NonUnitaryError(f"||U*U - I|| = {defect:.3e} exceeds tol = {tol}")
    eigs = np.linalg.eigvals(U)
    thetas = np.mod(np.angle(eigs) / (2.0 * math.pi), 1.0)
    # wrap values indistinguishable from 1 back to 0
    thetas[thetas > 1.0 - CLUSTER_TOL] = 0.0
    order = np.argsort(thetas)
    classes: list[list[float]] = []
    for t in thetas[order]:
        if classes and t - classes[-1][0] <= CLUSTER_TOL:
            classes[-1].append(float(t))
        else:
            classes.append([float(t)])

    def snap(theta: float) -> float:
        # the eigenvalue 1 must come out as theta == 0.0 exactly; the cusp
        # pole at s = 1/2 keys on it
        return 0.0 if theta < CLUSTER_TOL or theta > 1.0 - CLUSTER_TOL else theta

    return TwistSpec(
        tuple(AngleClass(snap(float(np.mean(c))), len(c)) for c in classes)
    )
