"""Special-function tests against closed forms and frozen oracle values."""

import cmath
import math

import numpy as np
import pytest

from resonance_lab import specfun as sf
from resonance_lab.errors import DomainError, OverflowBudgetError, PoleError, QuadratureError
from resonance_lab.geometry import TWO_PI

# Frozen oracle values (40-digit arbitrary-precision evaluation, offline).
LOG_GAMMA_REF = complex(-21.27641356440721648795825, 23.29343145091939958486749)  # z = 0.5 + 14.13i
BESSEL_I_REF = complex(769.3551926280344415604213, -587.7723173011140499608253)  # nu = 1.5+7i, x = 3
BESSEL_K_REF = complex(6.232705693804123447472084e-5, -4.906400616822792972996922e-5)


def hyp_partial_sum_oracle(a, b, c, z, n_terms=1000):
    """Brute-force partial sums of the defining series, term by term.

    Arbitrary-precision Gamma evaluations keep the oracle independent of
    the implementation's recurrence and rescaling.
    """
    import mpmath as mp

    with mp.workdps(30):
        a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z)
        total = mp.mpc(0)
        for n in range(n_terms):
            total += (
                mp.gamma(a + n)
                * mp.gamma(b + n)
                / (mp.gamma(a) * mp.gamma(b))
                * mp.rgamma(c + n)
                * z**n
                / mp.factorial(n)
            )
        return complex(total)


def k_quadrature_oracle(nu, x):
    """Independent oracle: adaptive quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt."""
    from scipy.integrate import quad

    f = lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t)
    re = quad(lambda t: f(t).real, 0, 30, limit=400, epsabs=1e-16, epsrel=1e-13)[0]
    im = quad(lambda t: f(t).imag, 0, 30, limit=400, epsabs=1e-16, epsrel=1e-13)[0]
    return complex(re, im)


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(sf.log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert abs(sf.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_frozen_complex_value(self):
        v = sf.log_gamma(0.5 + 14.13j)
        assert abs(v - LOG_GAMMA_REF) / abs(LOG_GAMMA_REF) < 1e-13

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            sf.log_gamma(z)

    def test_reflection_consistency(self):
        # exp(lg(z) + lg(1-z)) == pi / sin(pi z) for z away from the integers
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if min(abs(z - round(z.real)), abs(1 - z - round(1 - z.real))) < 0.1:
                continue
            if abs(z.imag) > 15:  # keep pi/sin(pi z) representable
                continue
            checked += 1
            lhs = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1.0 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_recurrence(self):
        z = -7.3 + 2.1j
        lhs = cmath.exp(sf.log_gamma(z + 1.0))
        rhs = z * cmath.exp(sf.log_gamma(z))
        assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_recurrence_budget(self):
        # Re z = -9999.5 takes the 10,000 steps the recurrence is allowed,
        # as a scalar and as an array; one step more raises
        import mpmath as mp

        z = -9999.5 + 1j
        with mp.workdps(30):
            want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert abs(sf.log_gamma(z) - want) <= 1e-12 * abs(want)
        assert abs(sf.log_gamma(np.array([z, 2.0]))[0] - want) <= 1e-12 * abs(want)
        for bad in (-10000.5 + 1j, -1e300 + 1j):
            with pytest.raises(OverflowBudgetError, match="recurrence"):
                sf.log_gamma(bad)
            with pytest.raises(OverflowBudgetError, match="recurrence"):
                sf.log_gamma(np.array([1.5, bad]))

    @pytest.mark.parametrize("bad", [complex(math.inf, math.inf), complex(math.nan, 1.0), complex(0.5, -math.inf), math.inf])
    def test_non_finite_argument(self, bad):
        # math.ceil of the shift count raised OverflowError or ValueError here
        with pytest.raises(OverflowBudgetError, match="non-finite"):
            sf.log_gamma(bad)
        with pytest.raises(OverflowBudgetError, match="non-finite"):
            sf.log_gamma(np.array([1.5, bad]))

    def test_accuracy_sweep_against_mpmath(self):
        # 1e-12 relative on |z| <= 50 away from the poles
        import mpmath as mp

        rng = np.random.default_rng(14)
        with mp.workdps(30):
            checked = 0
            while checked < 100:
                z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
                if abs(z) > 50 or (z.imag == 0 and z.real <= 0):
                    continue
                if abs(z - round(z.real)) < 0.05 and z.real < 0.5:
                    continue
                checked += 1
                want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
                assert abs(sf.log_gamma(z) - want) <= 1e-12 * max(1.0, abs(want))


class TestRegHyp2F1:
    def test_at_zero(self):
        assert abs(sf.reg_hyp2f1(1, 1, 2, 0) - 1.0) < 1e-15

    def test_nonpositive_c(self):
        # F~(1,1;0;z) = sum_{n>=1} n z^n = z/(1-z)^2
        assert abs(sf.reg_hyp2f1(1, 1, 0, 0.5) - 2.0) < 1e-13
        z = 0.3 - 0.2j
        assert abs(sf.reg_hyp2f1(1, 1, 0, z) - z / (1 - z) ** 2) < 1e-13
        assert abs(sf.reg_hyp2f1(0.5, 0.5, -2, 0.7) - hyp_partial_sum_oracle(0.5, 0.5, -2, 0.7)) < 1e-12

    def test_against_partial_sum_oracle(self):
        # s = 2: a = b = s, c = 2s, z = 0.3
        want = hyp_partial_sum_oracle(2.0, 2.0, 4.0, 0.3)
        got = sf.reg_hyp2f1(2.0, 2.0, 4.0, 0.3)
        assert abs(got - want) < 1e-14
        assert abs(got - 0.2350890628090757093142892) < 1e-15  # frozen from the oracle

    def test_complex_parameters(self):
        a = 2 + 0.3j
        want = hyp_partial_sum_oracle(a, a, 2 * a, 1 / 1.125, n_terms=600)
        got = sf.reg_hyp2f1(a, a, 2 * a, 1 / 1.125)
        assert abs(got - want) / abs(want) < 1e-12

    def test_truncation_consistency(self):
        # summing twice as many oracle terms does not move the value
        v1 = hyp_partial_sum_oracle(1.3, -0.4, 0.9, 0.6, n_terms=120)
        v2 = hyp_partial_sum_oracle(1.3, -0.4, 0.9, 0.6, n_terms=240)
        assert abs(v1 - v2) < 1e-14
        assert abs(sf.reg_hyp2f1(1.3, -0.4, 0.9, 0.6) - v2) < 1e-13

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            sf.reg_hyp2f1(1, 1, 2, 0.9999)

    def test_scaled_variant_consistency(self):
        m, e = sf.reg_hyp2f1_scaled(1.5, 2.5, 0.7, 0.4)
        assert abs(m * math.exp(e) - sf.reg_hyp2f1(1.5, 2.5, 0.7, 0.4)) < 1e-13


def _rel_err(m, e, want_m, want_e):
    """|m e^e - w| / |w| for w = want_m e^want_e, without leaving the double range."""
    return abs(m * cmath.exp(e - want_e) - want_m) / abs(want_m)


def _mp_reg_hyp2f1_log(a, b, c, z):
    """log F~(a, b; c; z) by mpmath at 30 digits; for c = -m in -N0 through
    F~(a, b; -m; z) = (a)_{m+1} (b)_{m+1} z^{m+1} / (m+1)! 2F1(a+m+1, b+m+1; m+2; z)."""
    import mpmath as mp

    with mp.workdps(30):
        a, b, z = mp.mpc(a), mp.mpc(b), mp.mpf(z)
        n = sf._is_nonpositive_integer(complex(c))
        if n is None:
            return complex(mp.log(mp.hyp2f1(a, b, mp.mpc(c), z)) - mp.loggamma(mp.mpc(c)))
        k = n + 1
        return complex(
            mp.log(mp.rf(a, k) * mp.rf(b, k) * z**k / mp.factorial(k))
            + mp.log(mp.hyp2f1(a + k, b + k, k + 1, z))
        )


def _envelope(z, log_value):
    """What the series can reach: rounding that grows with its 37/(1 - |z|) terms,
    and one ulp of the exponent log|F|, which e^E turns into relative error."""
    return 5e-16 / (1.0 - abs(z)) + 1e-14 + 4.0 * 2.2e-16 * abs(log_value)


class TestArrayEngine:
    """The array 2F1 engine against the scalar series loop and mpmath.

    Rows are the cylinder profile's a, b = s +- iq; q = 2 pi 400 runs for
    thousands of terms and renormalises across chunks, and past
    q = 2 pi 3000 a first chunk of terms overflows and is taken again.
    """

    S = 2.0 + 0.3j

    @pytest.mark.parametrize("z", [0.01, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("c", [0.0, -1.0, -2.0, 2.5 + 0.3j, 1.5])
    def test_rows_against_scalar_loop(self, z, c):
        import hyp2f1_reference as ref

        q = TWO_PI * np.array([0.0, 0.25, 1.0, 10.0, 50.0, 400.0, 3000.0])
        if z > 0.99:
            q = q[:4]  # longer rows need more than the 100,000-term cap
        a, b = self.S + 1j * q, self.S - 1j * q
        m, e = sf.reg_hyp2f1_scaled(a, b, c, z)
        assert m.shape == e.shape == q.shape
        for j in range(q.size):
            want_m, want_e = ref.reg_hyp2f1_scaled(a[j], b[j], c, z)
            log_value = want_e + math.log(abs(want_m))
            # the scalar loop's rounding grows with its terms too: 8e-11 at 2 pi 3000
            assert _rel_err(m[j], e[j], want_m, want_e) <= 4.0 * _envelope(z, log_value)

    @pytest.mark.parametrize("z", [0.01, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("c", [0.0, -1.0, -2.0, 2.5 + 0.3j])
    def test_rows_against_mpmath(self, z, c):
        q = TWO_PI * np.array([0.0, 1.0, 10.0])
        a, b = self.S + 1j * q, self.S - 1j * q
        m, e = sf.reg_hyp2f1_scaled(a, b, c, z)
        for j in range(q.size):
            want = _mp_reg_hyp2f1_log(a[j], b[j], c, z)
            assert _rel_err(m[j], e[j], 1.0, want) <= _envelope(z, want.real)

    def test_long_row_against_mpmath(self):
        # 5,000 terms, renormalised across chunks, against a 30-digit sum
        import mpmath as mp

        a, b, c, z = self.S + 2513.2741228718346j, self.S - 2513.2741228718346j, 0.0, 0.9
        m, e = sf.reg_hyp2f1_scaled(np.array([a]), np.array([b]), c, z)
        with mp.workdps(30):
            a_, b_, z_ = mp.mpc(a), mp.mpc(b), mp.mpf(z)
            term, total, n = a_ * b_ * z_, mp.mpc(0), 1
            while abs(term) > mp.mpf(10) ** -30 * abs(total):
                total += term
                term *= (a_ + n) * (b_ + n) / ((c + n) * (n + 1)) * z_
                n += 1
            want = complex(mp.log(total))
        assert n > 4000
        assert _rel_err(m[0], e[0], 1.0, want) <= _envelope(z, want.real)

    @pytest.mark.parametrize("x", [1.05, 1.5, 4.0, 20.0])
    def test_large_c(self, x):
        # g_s at s = 200: Gamma(c) = Gamma(400+2i) overflows, so 1/Gamma(c)
        # lives in the exponent; the scalar loop returned 0 here
        s = 200.0 + 1.0j
        m, e = sf.reg_hyp2f1_scaled(s, s, 2.0 * s, 1.0 / x)
        assert isinstance(m, complex) and isinstance(e, float)
        want = _mp_reg_hyp2f1_log(s, s, 2.0 * s, 1.0 / x)
        assert _rel_err(m, e, 1.0, want) <= _envelope(1.0 / x, want.real)

    def test_scalar_rows_match_array_rows(self):
        q = TWO_PI * np.array([0.5, 7.0, 80.0])
        a, b = self.S + 1j * q, self.S - 1j * q
        m, e = sf.reg_hyp2f1_scaled(a, b, self.S + 0.5, 0.6)
        for j in range(q.size):
            mj, ej = sf.reg_hyp2f1_scaled(complex(a[j]), complex(b[j]), self.S + 0.5, 0.6)
            assert _rel_err(m[j], e[j], mj, ej) <= 1e-14
        m, e = sf.reg_hyp2f1_scaled(a[:0], b[:0], self.S + 0.5, 0.6)
        assert m.size == e.size == 0

    def test_log_gamma_array_matches_scalar(self):
        z = np.array([0.5 + 14.13j, 2.0 - 0.3j, -1.5 + 0.5j, -7.25 - 3.0j, 40.0 + 100.0j])
        got = sf.log_gamma(z)
        for j in range(z.size):
            assert abs(got[j] - sf.log_gamma(complex(z[j]))) <= 1e-14 * max(1.0, abs(got[j]))
        with pytest.raises(PoleError):
            sf.log_gamma(np.array([1.5, -2.0]))

    @pytest.mark.parametrize(
        "c,z", [(-20, 0.5), (-20, -0.9), (-20, 0.3 + 0.4j), (-169, 0.998), (-169, -0.998)]
    )
    def test_pole_start_matches_factorial_start(self, c, z):
        # with a = -n0 the series is its start term alone; the former start
        # z^n0 / n0! times the Pochhammer products stays a normal double
        # for these n0 <= 170, where the new one must give the same value
        n0 = 1 - c
        b = np.array([0.5, 0.3 + 0.2j, -0.4 + 0.7j] + ([2.0 + 0.3j] if n0 < 170 else []))
        m, e = sf.reg_hyp2f1_scaled(np.full(b.size, -float(n0)), b, c, z)
        for j in range(b.size):
            old = z**n0 / math.factorial(n0)
            for i in range(n0):
                old *= (i - n0) * (b[j] + i)
            assert _rel_err(m[j], e[j], old / abs(old), math.log(abs(old))) <= 1e-13

    @pytest.mark.parametrize("c", [-171.0, -250.0])
    def test_pole_start_beyond_factorial_range(self, c):
        # n0! overflows a double here; the start is a product of ratios
        q = TWO_PI * np.array([0.0, 1.0, 10.0])
        a, b = self.S + 1j * q, self.S - 1j * q
        m, e = sf.reg_hyp2f1_scaled(a, b, c, 0.5)
        for j in range(q.size):
            want = _mp_reg_hyp2f1_log(a[j], b[j], c, 0.5)
            assert _rel_err(m[j], e[j], 1.0, want) <= _envelope(0.5, want.real)

    def test_term_budget(self):
        # the 100,000-term cap holds for every row
        from resonance_lab.errors import NonConvergenceError

        with pytest.raises(NonConvergenceError, match="100000 terms"):
            sf.reg_hyp2f1_scaled(np.array([2.0, 2.0 + 2513.0j]), np.array([2.0, 2.0 - 2513.0j]), 0.0, 0.999)

    def test_growing_at_the_cap_fails_at_once(self):
        # the cylinder profile at s = 1e20: a row whose term ratio is still
        # above 1 at the cap raises before any term is summed
        import time

        from resonance_lab.errors import NonConvergenceError

        s = 1e20 + 0.0j
        t0 = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="100000 terms"):
            sf.reg_hyp2f1_scaled(np.array([2.0, s + 1j]), np.array([2.0, s - 1j]), s + 0.5, 0.5)
        assert time.perf_counter() - t0 < 0.05

    @pytest.mark.parametrize("engine", ["hyp2f1", "g_s", "bessel_i"])
    def test_one_cap_for_every_series(self, monkeypatch, engine):
        # every series runs in one driver: a row still open at _SERIES_CAP
        # terms raises, and none returns its partial sum
        from resonance_lab import free_resolvent as fr
        from resonance_lab.errors import NonConvergenceError

        calls = {
            "hyp2f1": lambda: sf._hyp2f1_rows(np.array([2.0 + 1j]), np.array([2.0 - 1j]), 2.5, 0.9),
            "g_s": lambda: fr._g_s_rows(self.S, np.array([1.01, 3.0])),
            "bessel_i": lambda: sf._bessel_i_rows(1.5 + 0.3j, np.array([2.0, 300.0])),
        }
        monkeypatch.setattr(sf, "_SERIES_CAP", 20)
        with pytest.raises(NonConvergenceError, match="20 terms"):
            calls[engine]()

    def test_terminating_row_at_the_cap(self):
        # a = -5 ends the series after six terms, however large b z is
        import mpmath as mp

        m, e = sf.reg_hyp2f1_scaled(-5.0, 1e6, 1.5, 0.5)
        want = complex(mp.hyp2f1(-5, 1e6, 1.5, 0.5) * mp.rgamma(1.5))
        assert _rel_err(m, e, want / abs(want), math.log(abs(want))) <= 1e-13


class TestPerRowZ:
    """z per row against one scalar-z call per row, and against the term-by-term loop.

    Rows that end inside the first chunk of both calls take the same
    arithmetic; past it the rows share chunk boundaries, so products and the
    exponent round differently, within the series' own 5e-16 / (1 - |z|).
    One-row and shared-z calls are held to `hyp2f1_reference`, the oracle
    that no path of the engine shares.
    """

    S = 2.0 + 0.3j

    @staticmethod
    def _rows(c, rotate):
        # a, b = s' +- iq with s' = c - 1/2, as in the cylinder profile: for
        # c in -N0 every term has one sign, so no row cancels
        z = np.linspace(0.05, 0.99, 25)
        if rotate:
            z = z * np.exp(1j * np.linspace(-0.3, 0.3, z.size))
        q = np.linspace(0.0, 3.0, z.size)[::-1]
        return (c - 0.5) + 1j * q, (c - 0.5) - 1j * q, z

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("c", [1.5, 2.5 + 0.3j, 0.7, 0.0, -1.0, -3.0])
    def test_rows_against_scalar_calls(self, c, rotate):
        a, b, z = self._rows(c, rotate)
        m, e = sf._hyp2f1_rows(a, b, c, z)
        assert m.shape == e.shape == z.shape
        for j in range(z.size):
            want_m, want_e = sf.reg_hyp2f1_scaled(complex(a[j]), complex(b[j]), c, complex(z[j]))
            az = abs(z[j])
            assert _rel_err(m[j], e[j], want_m, want_e) <= 1e-15 + 5e-16 * az / (1.0 - az), az

    @staticmethod
    def _reference(a, b, c, z):
        """The term-by-term loop's (m, E), and how far the engine may be from it:
        the series' envelope, and an ulp of the largest term where the terms cancel."""
        import hyp2f1_reference as ref

        want = ref.reg_hyp2f1_scaled(a, b, c, z)
        bound = _envelope(z, want[1] + math.log(abs(want[0])))
        return want, bound + 2.2e-16 * ref.cancellation(a, b, c, z)

    @pytest.mark.parametrize("c", [2.5 + 0.3j, 0.0, -3.0, -171.0])
    def test_one_row_against_reference(self, c):
        # a one-row block with z per row and a scalar call, against the scalar loop
        a, b, z = self._rows(c, True)
        for j in (0, 12, 24):
            want, bound = self._reference(a[j], b[j], c, z[j])
            m, e = sf._hyp2f1_rows(a[j : j + 1], b[j : j + 1], c, z[j : j + 1])
            assert _rel_err(m[0], e[0], *want) <= bound, j
            m, e = sf.reg_hyp2f1_scaled(complex(a[j]), complex(b[j]), c, complex(z[j]))
            assert _rel_err(m, e, *want) <= bound, j

    @pytest.mark.parametrize("c", [2.5 + 0.3j, -3.0])
    def test_shared_z_per_row_against_reference(self, c):
        # the same z on every row, passed per row and as one shared z
        a, b, _ = self._rows(c, False)
        for z in (0.3, -0.85 + 0.2j, 0.97):
            per_row = sf._hyp2f1_rows(a, b, c, np.full(a.size, z))
            shared = sf.reg_hyp2f1_scaled(a, b, c, z)
            for j in range(a.size):
                want, bound = self._reference(a[j], b[j], c, z)
                assert _rel_err(per_row[0][j], per_row[1][j], *want) <= bound, (z, j)
                assert _rel_err(shared[0][j], shared[1][j], *want) <= bound, (z, j)

    def test_broadcast_and_guard(self):
        # a and b scalars against z per row; the guard reads each row's |z|
        m, e = sf.reg_hyp2f1_scaled(self.S, self.S, self.S + 0.5, np.array([0.2, 0.6]))
        for j, z in enumerate((0.2, 0.6)):
            assert _rel_err(m[j], e[j], *sf.reg_hyp2f1_scaled(self.S, self.S, self.S + 0.5, z)) <= 1e-15
        with pytest.raises(DomainError, match="0.9995"):
            sf.reg_hyp2f1_scaled(self.S, self.S, 1.5, np.array([0.2, 0.9995]))
        m, e = sf._hyp2f1_rows(np.array([], dtype=complex), self.S, 1.5, np.array([]))
        assert m.size == e.size == 0


class TestBessel:
    def test_half_integer_closed_forms(self):
        assert abs(sf.bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2) * math.exp(-1)) < 1e-14
        assert abs(sf.bessel_i(0.5, 1.0) - math.sqrt(2 / math.pi) * math.sinh(1)) < 1e-14

    def test_frozen_complex_order(self):
        nu, x = 1.5 + 7j, 3.0
        assert abs(sf.bessel_i(nu, x) - BESSEL_I_REF) / abs(BESSEL_I_REF) < 1e-11
        assert abs(sf.bessel_k(nu, x) - BESSEL_K_REF) / abs(BESSEL_K_REF) < 1e-11

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    def test_against_quadrature_oracle(self):
        scipy = pytest.importorskip("scipy")
        for nu, x in [(1.5 + 7j, 3.0), (0.25 - 2j, 8.0), (4.0 + 1j, 1.2)]:
            want = k_quadrature_oracle(nu, x)
            got = sf.bessel_k(nu, x)
            assert abs(got - want) / abs(want) < 1e-10

    def test_k_symmetry_bit_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            nu = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            x = float(rng.uniform(0.3, 40.0))
            assert sf.bessel_k(nu, x) == sf.bessel_k(-nu, x)

    def test_wronskian(self):
        # I_nu(x) K'_nu(x) - I'_nu(x) K_nu(x) = -1/x, derivatives by h = 1e-5
        rng = np.random.default_rng(13)
        h = 1e-5
        checked = 0
        while checked < 30:
            nu = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
            if abs(nu) > 10 or abs(nu - round(nu.real)) < 0.05:
                continue
            x = float(rng.uniform(0.5, 20.0))
            checked += 1
            ip = (sf.bessel_i(nu, x + h) - sf.bessel_i(nu, x - h)) / (2 * h)
            kp = (sf.bessel_k(nu, x + h) - sf.bessel_k(nu, x - h)) / (2 * h)
            w = sf.bessel_i(nu, x) * kp - ip * sf.bessel_k(nu, x)
            assert abs(w + 1.0 / x) < 1e-8

    def test_seam_continuity(self):
        # reflection/series vs quadrature across the K switch point
        for nu in (0.3 + 9.9j, 2.25 - 3j, 0.5):
            below = sf.bessel_k(nu, sf.K_SERIES_X_MAX - 1e-9)
            above = sf.bessel_k(nu, sf.K_SERIES_X_MAX + 1e-9)
            assert abs(below - above) / abs(below) < 1e-8

    def test_integer_order(self):
        # integer orders route through the quadrature, where sin(pi nu) = 0
        # leaves the reflection formula without a value
        import mpmath as mp

        for n, x in [(0, 0.4), (3, 1.2), (5, 1.9)]:
            want = complex(mp.besselk(n, x))
            assert abs(sf.bessel_k(n, x) - want) / abs(want) < 1e-12

    def test_negative_integer_order_i(self):
        # I_{-n} = I_n: a negative integer order is summed as n, where
        # 1/Gamma(nu + 1) vanishes
        import mpmath as mp

        for n, x in [(-2, 1.3), (-7, 0.9), (-40, 2.0)]:
            want = complex(mp.besseli(n, x))
            assert abs(sf.bessel_i(n, x) - want) / abs(want) < 1e-12

    @pytest.mark.parametrize("n", [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30])
    def test_k_near_integer_orders(self, n):
        # nu = n + delta e^{i phi}: the quadrature inside _K_NEAR_INTEGER,
        # outside it the reflection formula, which divides by sin(pi nu)
        import mpmath as mp

        radius = sf._K_NEAR_INTEGER
        for delta in (0.0, 1e-12, 1e-8, 1e-4, 0.5 * radius, 0.99 * radius, 1.01 * radius, 2.0 * radius):
            for phi in (0.0, 1.1, 0.5 * math.pi, math.pi):
                nu = n + delta * cmath.exp(1j * phi)
                for x in (1e-3, 0.05, 0.4, 1.2, 1.99):
                    want = complex(mp.besselk(nu, x))
                    assert abs(sf.bessel_k(nu, x) - want) <= 1e-12 * abs(want), (nu, x)

    def test_i_against_mpmath(self):
        # large orders, where Gamma(nu + 1) overflows a double, negative
        # orders, integer or not, and the whole accepted range of x
        import mpmath as mp

        orders = [0.3, 2.5 + 7j, -0.5 - 3j, -5.5, -3 + 0.02j, -29.7 + 1j, 30 - 10j,
                  171, 171.5 + 2j, 200, 200 - 3j, -2, -7, -40]
        for nu in orders:
            for x in (1e-3, 0.05, 0.4, 1.2, 1.99, 5.0, 30.0, 100.0, 600.0):
                # at negative integers mpmath fails on tiny values such as
                # I_{-40}(1e-3); the oracle takes I_{-n} = I_n
                want = mp.besseli(-nu if nu in (-2, -7, -40) else nu, x)
                got = sf.bessel_i(nu, x)
                if abs(want) < 1e-290:  # below the double range
                    assert abs(got) < 1e-290, (nu, x)
                else:
                    assert abs(got - complex(want)) <= 1e-12 * abs(complex(want)), (nu, x)

    @pytest.mark.parametrize("nu", [0.5, 1.7 + 0.3j, 2.0, 2.0 + 0.02j, 2.05 - 0.4j, -3.3 + 1.1j, 12.5 - 2j, 0.3 - 2j])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_rows_against_scalar_oracle(self, nu, scaled):
        # one call over x that crosses K_SERIES_X_MAX, at orders inside and
        # outside the _K_NEAR_INTEGER band, against the per-x loops.  Up to
        # |Im nu| = 2: the quadrature's integrand cancels by e^(-pi |Im nu| / 2),
        # which at |Im nu| = 10 lifts the ulps in which numpy's array and
        # one-element cosh and exp differ to 2e-12
        import bessel_reference as bref

        x = np.concatenate([np.geomspace(1e-3, 600.0, 40), sf.K_SERIES_X_MAX + np.array([-1e-9, 0.0, 1e-9])])
        for rows, scalar in ((sf._bessel_i_rows, bref.bessel_i), (sf._bessel_k_rows, bref.bessel_k)):
            got = rows(nu, x, scaled)
            for xj, g in zip(x.tolist(), got.tolist()):
                want = scalar(nu, xj, scaled)
                if want == 0.0:  # below the double range
                    assert g == 0.0, (rows.__name__, xj)
                else:
                    assert abs(g - want) <= 1e-14 * abs(want), (rows.__name__, xj)

    def test_k_against_mpmath_grid(self):
        # a seeded grid over |Re nu|, |Im nu| <= 30 and log-uniform x in
        # [1e-3, 600], with x = 2.5, 4 and 8 at |Im nu| = 25 and 30, where the
        # Gauss-Legendre K was 0.73 off at (1 - 25i, 2.5): within 1e-12 for
        # |Im nu| <= 5 and 1e-8 above, or a QuadratureError, which only the
        # cancellation past |Im nu| = 10 may raise
        import mpmath as mp

        rng = np.random.default_rng(26)
        cases = [(complex(*rng.uniform(-30.0, 30.0, 2)), float(math.exp(rng.uniform(math.log(1e-3), math.log(600.0)))))
                 for _ in range(300)]
        cases += [(complex(re, im), x) for im in (25, -25, 30, -30) for re in (0.5, 1.0, -3.5) for x in (2.5, 4.0, 8.0)]
        raised = 0
        with mp.workdps(30):
            for nu, x in cases:
                try:
                    got = sf.bessel_k(nu, x)
                except QuadratureError:
                    assert abs(nu.imag) > 10.0, (nu, x)
                    raised += 1
                    continue
                want = complex(mp.besselk(mp.mpc(nu.real, nu.imag), x))
                bound = 1e-12 if abs(nu.imag) <= 5.0 else 1e-8
                assert abs(got - want) <= bound * abs(want), (nu, x)
        assert raised < len(cases) // 4

    def test_k_against_panel_oracle(self):
        # the trapezoid K against the Gauss-Legendre panels it replaced, up
        # to |Im nu| = 10, past which the panels' own cancellation dominates
        import bessel_reference as bref

        rng = np.random.default_rng(27)
        for _ in range(60):
            nu = complex(rng.uniform(-30.0, 30.0), rng.uniform(-10.0, 10.0))
            x = float(rng.uniform(2.01, 60.0))
            want = bref.bessel_k_panels(nu, x)
            bound = 1e-11 if abs(nu.imag) <= 5.0 else 1e-9
            assert abs(sf.bessel_k(nu, x) - want) <= bound * abs(want), (nu, x)

    def test_rows_in_bounded_groups(self):
        # 2,000 rows of K by quadrature: every group of nodes, and every
        # array of the I series, stays near its cell bound
        import tracemalloc

        x = np.linspace(2.5, 60.0, 2000)
        tracemalloc.start()
        try:
            k = sf._bessel_k_rows(1.5 + 0.3j, x, True)
            i = sf._bessel_i_rows(1.5 + 0.3j, x, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        for rows, one in ((k, sf.bessel_k), (i, sf.bessel_i)):
            for j in (0, 7, 1999):
                assert abs(rows[j] - one(1.5 + 0.3j, x[j], True)) <= 1e-14 * abs(rows[j])

    def test_rows_domain(self):
        # the first x outside (0, OVERFLOW_BUDGET_X] names itself
        with pytest.raises(DomainError, match="got -1.0"):
            sf._bessel_i_rows(1.0, [2.0, -1.0, 700.0])
        with pytest.raises(OverflowBudgetError, match="x = 700.0"):
            sf._bessel_k_rows(1.0, [2.0, 700.0, -1.0])
        assert sf._bessel_k_rows(1.0, np.empty(0)).shape == (0,)

    def test_domain_and_budget(self):
        with pytest.raises(DomainError):
            sf.bessel_i(1.0, -2.0)
        with pytest.raises(OverflowBudgetError):
            sf.bessel_i(1.0, 700.0)
        with pytest.raises(OverflowBudgetError):
            sf.bessel_k(1.0, 650.0)

    def test_scaled_versions(self):
        nu, x = 1.5, 30.0
        assert abs(sf.bessel_k(nu, x, scaled=True) - sf.bessel_k(nu, x) * math.exp(x)) / abs(
            sf.bessel_k(nu, x, scaled=True)
        ) < 1e-12
        assert abs(sf.bessel_i(nu, x, scaled=True) - sf.bessel_i(nu, x) * math.exp(-x)) / abs(
            sf.bessel_i(nu, x, scaled=True)
        ) < 1e-12
