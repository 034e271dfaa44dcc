"""Profile evaluation via the time map against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from blowup.oracles import bisection_inverse, rk_profile, time_map_midpoint
from blowup.timemap import (
    eval_U,
    eval_U_prime,
    make_profile,
    ode_residual,
    sample_profile,
    time_map,
    time_map_inverse,
)

# high-precision references (Beta closed form / direct quadrature at 40 digits)
L_3 = 1.3110287771460599
MU_3 = 1.8540746773013719
L_2 = 2.4286506478875817
MU_2 = 8.847515954227156
F3_AT_2 = 0.8078193339687290
F3_INV_09 = 7.6278229752890486   # golden: frozen after oracle agreement
U3_AT_09 = 14.142553421421033
UPRIME3_AT_07 = 15.600574139020334


def test_make_profile_constants(profile3, profile2):
    assert profile3.L_p == pytest.approx(L_3, rel=1e-12)
    assert profile3.mu_p == pytest.approx(MU_3, rel=1e-12)
    assert profile2.L_p == pytest.approx(L_2, rel=1e-12)
    # mu_p exponent path 2/(p-1) = 2 at p = 2
    assert profile2.mu_p == pytest.approx(MU_2, rel=1e-12)
    assert profile2.mu_p == pytest.approx((math.sqrt(1.5) * profile2.L_p) ** 2, rel=1e-14)


@pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, float("nan")])
def test_make_profile_domain(bad):
    with pytest.raises(ValueError):
        make_profile(bad)


def test_time_map_endpoints(profile3):
    assert time_map(profile3, 1.0) == 0.0
    assert time_map(profile3, math.inf) == profile3.L_p
    with pytest.raises(ValueError):
        time_map(profile3, 0.99)


def test_time_map_value_and_midpoint_oracle(profile3):
    val = time_map(profile3, 2.0)
    assert 0.0 < val < profile3.L_p
    assert val == pytest.approx(F3_AT_2, rel=1e-12)
    assert abs(val - time_map_midpoint(3.0, 2.0)) <= 1e-10


def test_time_map_monotone(profile3):
    ys = np.geomspace(1.0 + 1e-8, 1e6, 50)
    vals = [time_map(profile3, y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < profile3.L_p


def test_inverse_round_trip(profile3):
    for z in np.linspace(0.0, 0.999 * profile3.L_p, 100):
        y = time_map_inverse(profile3, z)
        assert abs(time_map(profile3, y) - z) <= 1e-10
    assert time_map_inverse(profile3, 0.0) == 1.0


def test_inverse_golden_and_bisection_oracle(profile3):
    z = 0.9 * profile3.L_p
    y = time_map_inverse(profile3, z)
    assert y == pytest.approx(F3_INV_09, rel=1e-10)
    assert y == pytest.approx(bisection_inverse(profile3, z), rel=1e-12)


def test_inverse_domain_and_cap(profile3):
    with pytest.raises(ValueError):
        time_map_inverse(profile3, -1e-12)
    with pytest.raises(ValueError):
        time_map_inverse(profile3, profile3.L_p)
    with pytest.raises(ValueError):
        time_map_inverse(profile3, (1.0 - 1e-12) * profile3.L_p)


def test_eval_U_basics(profile3):
    assert eval_U(profile3, 0.0) == profile3.mu_p
    assert eval_U(profile3, 0.5) == eval_U(profile3, -0.5)
    xs = np.linspace(0.0, 0.99, 30)
    vals = [eval_U(profile3, x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert min(vals) >= profile3.mu_p
    for bad in (1.0, -1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            eval_U(profile3, bad)


def test_eval_U_against_rk_oracle(profile3):
    u_rk, up_rk = rk_profile(3.0, profile3.mu_p, 0.9)
    assert eval_U(profile3, 0.9) == pytest.approx(u_rk, rel=1e-7)
    assert eval_U(profile3, 0.9) == pytest.approx(U3_AT_09, rel=1e-10)
    assert eval_U_prime(profile3, 0.9) == pytest.approx(up_rk, rel=1e-7)


def test_eval_U_prime_symmetry_and_cross_formula(profile3):
    assert eval_U_prime(profile3, 0.0) == 0.0
    assert eval_U_prime(profile3, 0.3) == -eval_U_prime(profile3, -0.3)
    # the time-map form mu_p L_p sqrt(y^(p+1) - 1) must agree with the
    # energy form sqrt((2/(p+1)) (U^(p+1) - mu^(p+1)))
    x = 0.7
    y = eval_U(profile3, x) / profile3.mu_p
    alt = profile3.mu_p * profile3.L_p * math.sqrt(y ** 4.0 - 1.0)
    val = eval_U_prime(profile3, x)
    assert val == pytest.approx(alt, rel=1e-11)
    assert val == pytest.approx(UPRIME3_AT_07, rel=1e-10)
    assert all(eval_U_prime(profile3, x) >= 0.0 for x in np.linspace(0.0, 0.99, 21))


def test_time_map_consistency(profile3):
    for x in np.linspace(0.0, 0.999, 60):
        y = eval_U(profile3, x) / profile3.mu_p
        assert abs(time_map(profile3, y) - profile3.L_p * x) <= 1e-9


def test_blowup_rate_bounded_and_monotone(profile3):
    # U(x) (1-x)^(2/(p-1)) stays bounded and settles monotonically as x -> 1
    vals = [eval_U(profile3, 1.0 - 10.0 ** (-k)) * 10.0 ** (-k) for k in range(1, 7)]
    assert max(vals) / min(vals) < 10.0
    diffs = np.diff(vals)
    assert all(d * diffs[-1] > 0 or abs(d) < 1e-12 for d in diffs[2:])


def test_ode_residual(profile3, profile2):
    r3 = ode_residual(profile3, 0.1)
    assert r3 <= 1e-5
    assert ode_residual(profile2, 0.1) <= 1e-5
    # singularity sits at the boundary: deeper interior is no worse
    assert ode_residual(profile3, 0.5) <= r3 + 1e-12
    with pytest.raises(ValueError):
        ode_residual(profile3, 1e-5)


def test_sample_profile(profile3):
    sample = sample_profile(profile3, n=41, delta=0.01)
    assert np.all(sample.values >= profile3.mu_p)
    assert np.allclose(sample.values, sample.values[::-1], rtol=0, atol=0)
    assert np.allclose(sample.derivs, -sample.derivs[::-1], rtol=0, atol=0)
    with pytest.raises(ValueError):
        sample_profile(profile3, grid=[0.0, 0.9999], delta=0.01)


def _time_map_100(p, y):
    # T(y) = B_u(1/2, a) / (p+1), u = 1 - y^(-(p+1)), at 110 digits; at 40
    # digits u rounds to 1 for y = 1e30 and the reference itself goes wrong
    with mpmath.workdps(110):
        p, y = mpmath.mpf(p), mpmath.mpf(y)
        a = (p - 1) / (2 * (p + 1))
        return mpmath.betainc(mpmath.mpf(1) / 2, a, 0, 1 - y ** (-(p + 1))) / (p + 1)


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0, 8.0, 40.0])
def test_time_map_against_100_digit_reference(p):
    profile = make_profile(p)
    ys = np.concatenate([1.0 + np.geomspace(1e-12, 1.0, 25), np.geomspace(2.0, 1e30, 35)])
    for y in ys:
        y = float(y)
        assert abs(time_map(profile, y) - _time_map_100(p, y)) <= 1e-14 * profile.L_p, y


@pytest.mark.parametrize("p", [1.05, 3.0, 40.0])
def test_time_map_matches_scipy_quadrature(p):
    # the same head/tail integrals through SciPy's QUADPACK give the same bits
    quad = pytest.importorskip("scipy.integrate").quad
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    profile = make_profile(p)

    def head(y):
        def f(w):
            if w == 0.0:
                return 2.0 / math.sqrt(p + 1.0)
            return 2.0 * w / math.sqrt(math.expm1((p + 1.0) * math.log1p(w * w)))
        return quad(f, 0.0, math.sqrt(y - 1.0), **opts)[0]

    def tail(y):
        b = 2.0 / (p - 1.0)
        return quad(lambda z: b / math.sqrt(1.0 - z ** (b * (p + 1.0))), 0.0,
                    y ** (-1.0 / b), **opts)[0]

    for y in np.concatenate([1.0 + np.geomspace(1e-10, 3.0, 15), np.geomspace(4.5, 1e12, 15)]):
        expected = head(y) if y <= 4.0 else profile.L_p - tail(y)
        assert time_map(profile, y) == expected, y


def test_time_map_far_tail_near_p_1():
    # at p = 1.05, L_p - T(y) = B_x(a, 1/2) / (p+1) with x = y^(-(p+1)) decays
    # like y^(-(p-1)/2) / (a (p+1)), so it is still ~1e-5 L_p at y = 1e300
    p = 1.05
    profile = make_profile(p)
    for y in (1e100, 1e160, 1e200, 1e300):
        with mpmath.workdps(50):
            P = mpmath.mpf(p)
            a = (P - 1) / (2 * (P + 1))
            rest = mpmath.betainc(a, mpmath.mpf(1) / 2, 0, mpmath.mpf(y) ** (-(P + 1))) / (P + 1)
        assert abs((profile.L_p - time_map(profile, y)) - rest) <= 1e-14 * profile.L_p, y


@pytest.mark.parametrize("p", [1.05, 1.1])
def test_inverse_brackets_near_p_1(p):
    # near p = 1 the tail lower bound y0 rounds to T(y0) > z at many points;
    # the bracket then restarts from the head/tail switch point
    profile = make_profile(p)
    zs = profile.L_p * np.linspace(0.0, 1.0, 2501)[:-1]
    ys = [time_map_inverse(profile, float(z)) for z in zs]
    for z, y in zip(zs, ys):
        assert abs(time_map(profile, y) - z) <= 1e-12 * profile.L_p, z
    for z, y in zip(zs[::50], ys[::50]):
        assert y == pytest.approx(bisection_inverse(profile, float(z)), rel=1e-9), z


def test_inverse_past_the_double_range_names_z():
    # at p = 1.02 the inverse of the last grid points exceeds the largest
    # double; the error is an OverflowError naming z
    profile = make_profile(1.02)
    z = float(profile.L_p * 2499 / 2500)
    for arg in (z, np.array([0.0, z])):
        with pytest.raises(OverflowError, match=f"z = {z!r} \\(p = 1.02\\) exceeds the largest double"):
            time_map_inverse(profile, arg)
