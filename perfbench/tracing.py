"""Per-module tracing by wrapping resonance_lab's public functions.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (calls, inclusive time, self time, raised) in per-thread counters, so
the `verify` thread pool needs no lock.  A name imported with
`from .x import f` is rebound in every module that holds it, which is where
it is looked up; `_quad` is imported inside functions, so its own module
attributes are enough.  `verify.ALL_CHECKS` holds the check functions
themselves and is rebuilt from the wrappers.  `uninstall()` restores
everything.  Nothing here changes the package's source.

Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import re
import sys
import threading
import time
from collections import Counter

_CHECK_NAMES = {
    "check_two_representation_cylinder": "two_representation_cylinder",
    "check_two_representation_funnel": "two_representation_funnel",
    "check_two_representation_cusp": "two_representation_cusp",
    "check_mode_ode": "mode_ode_residual",
    "check_sxi_dual": "sxi_dual_representation",
    "check_scattering": "scattering_identities",
    "check_free_kernel_pde": "free_kernel_pde",
    "check_kernel_symmetries": "kernel_symmetries",
    "check_twist_phase": "twist_phase",
    "check_resonance_example": "resonance_example",
    "check_counting": "counting_and_growth",
}
VERIFY_CHECKS = tuple(_CHECK_NAMES.values())

IMAGE_ROUTES = ("cyl_kernel_images", "funnel_kernel", "cusp_kernel_images")
FOURIER_ROUTES = ("cyl_kernel_fourier", "funnel_kernel_fourier", "cusp_kernel")
MK_FUNCS = IMAGE_ROUTES + FOURIER_ROUTES + ("s_xi_direct", "s_xi_continued")
MODE_FUNCS = ("cyl_mode", "funnel_mode", "cusp_mode")

#: Integrand evaluations per adaptive panel (15- plus 31-point rule).
EVALS_PER_PANEL = 46

_SCI = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")
_GROWTH = re.compile(r"growth coeff ([\d.]+) \(ell/2 = ([\d.]+)\)")


def _z_bin(az: float) -> str:
    return "z-lo" if az < 0.5 else ("z-mid" if az < 0.9 else "z-hi")


def _sigma_bin(x: float) -> str:
    return "sigma-near" if x < 1.25 else ("sigma-mid" if x < 4.0 else "sigma-far")


def check_error(detail: str) -> float:
    """The error a verify check reports in its detail text.

    The largest number in e-notation; for counting_and_growth the relative
    deviation of the growth coefficient from ell/2; 0 for the exact
    lattice comparison of resonance_example.
    """
    m = _GROWTH.search(detail)
    if m:
        return abs(float(m.group(1)) - float(m.group(2))) / float(m.group(2))
    nums = [abs(float(v)) for v in _SCI.findall(detail)]
    return max(nums) if nums else 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []  # child-time accumulator per open span
        self.route: str | None = None  # images, fourier or census: the outermost route span
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def snapshot(self) -> dict[str, Counter]:
        """Sum of every thread's counters."""
        out = {k: Counter() for k in ("calls", "total_ns", "self_ns", "raised", "counts")}
        values: dict[str, float] = {}
        with self._lock:
            for st in self._states:
                for k, c in out.items():
                    c.update(getattr(st, k))
                values.update(st.values)
        out["values"] = values
        return out

    def _wrap(self, fn, name, binner=None, route=None, tally=None, on_result=None,
              count_integrand=False):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            key = name + "." + binner(args) if binner else name
            outer_route = st.route
            if route is not None and outer_route is None:
                st.route = route
                st.counts[route + ".evals"] += 1
            if tally is not None and st.route == tally:
                st.counts[tally + ".terms"] += 1
            if count_integrand:
                f = args[0]

                def counted(u):
                    st.counts["quad.adaptive.evals"] += 1
                    return f(u)

                args = (counted,) + args[1:]
            st.stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st.raised[key] += 1
                raise
            finally:
                dt = time.perf_counter_ns() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                st.calls[key] += 1
                st.total_ns[key] += dt
                st.self_ns[key] += dt - child
                st.route = outer_route
            if on_result is not None:
                on_result(st, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "resonance_lab" or modname.startswith("resonance_lab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        from resonance_lab import _quad, cli, free_resolvent, model_kernels as mk
        from resonance_lab import resonances as rz, scattering as sc, specfun as sf
        from resonance_lab import verify as vf

        def enumerated(st, args, out):
            st.counts["resonances.enumerated"] += len(out)

        def listed(st, args, out):
            # a listing is a surface_resonances call that census did not make
            if st.route != "census":
                st.counts["resonances.listed"] += len(out)

        targets = [
            (sf.log_gamma, "specfun.log_gamma", {}),
            (sf.reg_hyp2f1_scaled, "specfun.reg_hyp2f1", {"binner": lambda a: _z_bin(abs(a[3]))}),
            (sf.bessel_k, "specfun.bessel_k",
             {"binner": lambda a: "quad" if a[1] > sf.K_SERIES_X_MAX else "series"}),
            (sf.bessel_i, "specfun.bessel_i", {}),
            (free_resolvent.g_s, "free_resolvent.g_s",
             {"binner": lambda a: _sigma_bin(a[1]), "tally": "images"}),
            (_quad.gauss_legendre_adaptive, "quad.adaptive", {"count_integrand": True}),
            (_quad.gauss_legendre_panels, "quad.panels", {}),
            (sc.scattering_coeff, "scattering.scattering_coeff", {}),
            (sc.functional_equation_residual, "scattering.functional_equation_residual", {}),
            (rz.cylinder_resonances, "resonances.cylinder_resonances", {"on_result": enumerated}),
            (rz.funnel_resonances, "resonances.funnel_resonances", {"on_result": enumerated}),
            (rz.cusp_resonances, "resonances.cusp_resonances", {"on_result": enumerated}),
            (rz.surface_resonances, "resonances.surface_resonances", {"on_result": listed}),
            (rz.census, "resonances.census", {"route": "census"}),
            (vf.run_all, "verify.run_all", {}),
            (cli.main, "cli.main", {}),
        ]
        for fn in IMAGE_ROUTES:
            targets.append((getattr(mk, fn), "model_kernels." + fn, {"route": "images"}))
        for fn in FOURIER_ROUTES:
            targets.append((getattr(mk, fn), "model_kernels." + fn, {"route": "fourier"}))
        for fn in ("s_xi_direct", "s_xi_continued"):
            targets.append((getattr(mk, fn), "model_kernels." + fn, {}))
        for fn in MODE_FUNCS:
            targets.append((getattr(mk, fn), "model_kernels." + fn, {"tally": "fourier"}))

        for orig, name, opts in targets:
            self._rebind(orig, self._wrap(orig, name, **opts))
        self._install_checks(vf)

    def _install_checks(self, vf) -> None:
        def record(st, args, out):
            st.values["verify." + out.name + ".err"] = check_error(out.detail)

        wrapped = []
        for check in vf.ALL_CHECKS:
            name = _CHECK_NAMES.get(check.__name__, check.__name__.removeprefix("check_"))
            w = self._wrap(check, "verify." + name, on_result=record)
            self._rebind(check, w)
            wrapped.append(w)
        self._patches.append((vf, "ALL_CHECKS", vf.ALL_CHECKS))
        vf.ALL_CHECKS = tuple(wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
