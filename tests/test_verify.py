"""The batched `verify` checks against their per-sample loops in verify_reference.

Both run with the mode functions wrapped, so that every value either
computes is recorded by its arguments: the batched checks must draw the same
samples and reach the same mode values, in a handful of array calls.  The
finite-difference residuals are not compared: 1/h^2 = 1e6 magnifies the
rounding in which the two differ.
"""

from collections import Counter

import numpy as np
import pytest

import verify_reference as ref
from resonance_lab import model_kernels as mk
from resonance_lab import scattering as sc
from resonance_lab import verify as vf

_MODES = ((mk, "cyl_mode"), (mk, "funnel_mode"), (sc, "funnel_mode"), (sc, "poisson_mode"))


def _recorded(monkeypatch, run):
    """Run run() with the mode functions wrapped: ({(name, s, kappa, r[, r2]): value}, calls per name)."""
    values, calls = {}, Counter()

    def wrap(module, name):
        original = getattr(module, name)

        def recording(s, kappa, *rest):
            out = original(s, kappa, *rest)
            calls[name] += 1
            columns = np.broadcast_arrays(kappa, *rest[:-1], out)
            for row in zip(*(np.ravel(c).tolist() for c in columns)):
                values[(name, complex(s), *row[:-1])] = row[-1]
            return out

        monkeypatch.setattr(module, name, recording)

    for module, name in _MODES:
        wrap(module, name)
    run()
    monkeypatch.undo()
    return values, calls


@pytest.mark.parametrize(
    "check,reference,batched_calls",
    [
        (vf.check_mode_ode, ref.mode_ode, {"cyl_mode": 1, "funnel_mode": 1}),
        # two funnel modes and two Poisson modes for each of the five s
        (vf.check_scattering, ref.functional_equation, {"funnel_mode": 10, "poisson_mode": 10}),
    ],
    ids=["mode_ode", "functional_equation"],
)
def test_same_samples_and_mode_values(check, reference, batched_calls, monkeypatch):
    def run_check():
        assert check().passed

    got, calls = _recorded(monkeypatch, run_check)
    want, _ = _recorded(monkeypatch, reference)
    assert dict(calls) == batched_calls
    assert got.keys() == want.keys()
    assert len(want) >= 125
    for key, value in want.items():
        if value == 0.0:
            assert got[key] == 0.0
            continue
        assert abs(got[key] - value) <= ref.mode_tolerance(*key) * abs(value), key


def test_reference_loops_pass():
    # the per-sample loops still reach what the checks demand of them
    assert ref.mode_ode() <= 1e-4
    assert ref.functional_equation() <= 1e-6
