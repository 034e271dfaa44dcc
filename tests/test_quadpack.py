"""The QUADPACK port against known integrals and against SciPy's QUADPACK."""

import math
import random

import pytest

from blowup.quadpack import quad

# (integrand, a, b, exact): smooth, endpoint singularities that need
# bisection plus epsilon extrapolation, an interior kink
KNOWN = [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0, 2.0),
    (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0, -1.0),
    (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, 5.0 / 18.0),
]


@pytest.mark.parametrize("f, a, b, exact", KNOWN)
def test_known_integrals(f, a, b, exact):
    value, err = quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(value - exact) <= max(1e-14, 1e-13 * abs(exact))
    assert abs(value - exact) <= err
    flipped, _ = quad(f, b, a, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert flipped == -value


def test_failure_warns_and_returns_estimate():
    with pytest.warns(RuntimeWarning, match="maximum number of subdivisions"):
        value, err = quad(lambda x: x ** -0.9 if x > 0.0 else 0.0, 0.0, 1.0, limit=3)
    assert math.isfinite(value) and err > 0.0


@pytest.mark.parametrize("kwargs", [dict(limit=0), dict(epsabs=0.0, epsrel=1e-20)])
def test_invalid_arguments(kwargs):
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, **kwargs)


def _time_map_integrands(p):
    pp1 = p + 1.0
    b = 2.0 / (p - 1.0)

    def head(w):
        if w == 0.0:
            return 2.0 / math.sqrt(pp1)
        return 2.0 * w / math.sqrt(math.expm1(pp1 * math.log1p(w * w)))

    return head, lambda z: b / math.sqrt(1.0 - z ** (b * pp1))


def test_bit_identical_to_scipy_on_time_map_integrands():
    scipy_quad = pytest.importorskip("scipy.integrate").quad
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    rng = random.Random(11)
    for _ in range(400):
        p = 1.0 + 10.0 ** rng.uniform(-2.0, 1.7)
        head, tail = _time_map_integrands(p)
        w = math.sqrt(10.0 ** rng.uniform(-14.0, 0.5))
        upper = (10.0 ** rng.uniform(0.6, 30.0)) ** (-(p - 1.0) / 2.0)
        for f, hi in ((head, w), (tail, upper)):
            assert quad(f, 0.0, hi, **opts) == scipy_quad(f, 0.0, hi, **opts)[:2], (p, hi)


@pytest.mark.filterwarnings("ignore")
def test_bit_identical_to_scipy_on_hard_integrands():
    # endpoint and interior singularities, oscillation, subdivision limits:
    # the bisection order, the epsilon table and every failure exit
    integrate = pytest.importorskip("scipy.integrate")
    fs = [
        lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0,
        lambda x: math.log(x) if x > 0.0 else 0.0,
        lambda x: x ** -0.9 if x > 0.0 else 0.0,
        lambda x: abs(x - 0.3) ** 0.1,
        lambda x: math.sin(50.0 * x),
        lambda x: math.sin(1.0 / x) if x != 0.0 else 0.0,
        lambda x: 1.0 / (x - 0.5) if x != 0.5 else 0.0,
    ]
    rng = random.Random(5)
    for f in fs:
        for k in range(16):
            a = 0.0 if k % 2 else -rng.uniform(0.05, 1.0)
            b = rng.uniform(0.3, 3.0)
            for opts in (dict(), dict(epsabs=1e-14, epsrel=1e-13, limit=200), dict(limit=5),
                         dict(limit=1)):
                assert quad(f, a, b, **opts) == integrate.quad(f, a, b, **opts)[:2], (a, b, opts)
