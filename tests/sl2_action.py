"""SL(2, R) acting on the upper half-plane by Moebius maps: the oracle of the
isometry-invariance tests."""

import math

import numpy as np

from resonance_lab.geometry import HPoint


def dilation(ell):
    """z -> e^ell z."""
    h = math.exp(0.5 * ell)
    return np.array([[h, 0.0], [0.0, 1.0 / h]])


def translation(t):
    """z -> z + t."""
    return np.array([[1.0, t], [0.0, 1.0]])


def act(g, p):
    """(az + b) / (cz + d) for g = [[a, b], [c, d]] with ad - bc = 1."""
    (a, b), (c, d) = g
    w = (a * p.z + b) / (c * p.z + d)
    return HPoint(w.real, w.imag)
