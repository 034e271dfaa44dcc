"""The array paths of the time map against the scalar ones, bit for bit.

``timemap_reference.time_map_inverse`` is the inverse as two plain scalar
Newton loops; the float and array paths of
``blowup.timemap.time_map_inverse`` must both reproduce it, exceptions
included.  ``quadpack.qk21_many`` must reproduce ``_qk21`` row by row.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timemap_reference
from blowup import timemap
from blowup.quadpack import _qk21, qk21_many, quad, quad_many
from blowup.timemap import (
    INVERSION_CAP,
    eval_U,
    eval_U_prime,
    make_profile,
    sample_profile,
    time_map,
    time_map_inverse,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def _special_z(profile, name):
    split = timemap._z_split(profile.p)
    cap = (1.0 - INVERSION_CAP) * profile.L_p
    return {
        "zero": 0.0,
        "split": split,
        "split-": math.nextafter(split, 0.0),
        "split+": math.nextafter(split, math.inf),
        "cap": cap,
        "cap+": math.nextafter(cap, math.inf),
        "negative": -1e-300,
        "nan": math.nan,
    }[name]


SPECIALS = ("zero", "split", "split-", "split+", "cap", "cap+", "negative", "nan")


@st.composite
def z_arrays(draw):
    p = draw(st.one_of(st.just(1.05), st.floats(1.05, 60.0)))
    profile = make_profile(p)
    picks = draw(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                    st.sampled_from(SPECIALS)), min_size=1, max_size=10))
    zs = [_special_z(profile, v) if isinstance(v, str) else v * profile.L_p for v in picks]
    # duplicates, in an order of their own
    zs += draw(st.lists(st.sampled_from(zs), max_size=4))
    return profile, draw(st.permutations(zs))


def _check_paths(profile, zs):
    expected = [_outcome(timemap_reference.time_map_inverse, profile, z) for z in zs]
    assert [_outcome(time_map_inverse, profile, z) for z in zs] == expected
    batch = _outcome(time_map_inverse, profile, np.array(zs))
    failed = [e for e in expected if isinstance(e, tuple)]
    if failed:
        assert batch == failed[0]
    else:
        assert isinstance(batch, np.ndarray) and batch.shape == (len(zs),)
        assert batch.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(z_arrays())
@example((make_profile(1.05), [0.0, 3.7, 0.5, 39.0, 3.7]))
def test_float_and_array_paths_match_reference(case):
    _check_paths(*case)


def test_float_and_array_paths_match_reference_on_the_restart_path():
    # at p = 1.05 rounding puts T(y0) above z at about one tail point in
    # fifteen of this grid, and the bracket restarts from _SPLIT
    profile = make_profile(1.05)
    L, b = profile.L_p, 2.0 / (profile.p - 1.0)
    zs = [float(z) for z in (L * np.linspace(0.0, 1.0, 2501)[:-1])[770::10]]
    restarts = [z for z in zs if z > timemap._z_split(profile.p)
                and time_map(profile, max(4.0, (b / (L - z)) ** b)) > z]
    assert len(restarts) >= 5
    _check_paths(profile, zs)


def test_array_shape_and_first_failing_index():
    profile = make_profile(3.0)
    zs = profile.L_p * np.array([[0.5, 0.1], [0.5, 0.0]])
    ys = time_map_inverse(profile, zs)
    assert ys.shape == (2, 2)
    assert ys.tolist() == [[time_map_inverse(profile, float(z)) for z in row] for row in zs]
    with pytest.raises(ValueError, match="got -1.0"):
        time_map_inverse(profile, np.array([0.1, -1.0, math.nan]))
    with pytest.raises(ValueError, match="got nan"):
        time_map_inverse(profile, np.array([0.1, math.nan, -1.0]))


def test_eval_arrays_match_scalar_evaluation():
    profile = make_profile(4.3)
    xs = np.array([0.3, -0.3, 0.0, -0.0, 0.999, 1e-12, -0.7, 0.3])
    assert eval_U(profile, xs).tolist() == [eval_U(profile, float(x)) for x in xs]
    assert eval_U_prime(profile, xs).tolist() == [eval_U_prime(profile, float(x)) for x in xs]
    sample = sample_profile(profile, n=41, delta=1e-3)
    assert sample.values.tolist() == [eval_U(profile, x) for x in sample.grid]
    assert sample.derivs.tolist() == [eval_U_prime(profile, x) for x in sample.grid]
    for bad in (1.0, -1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            eval_U(profile, np.array([0.5, bad, 2.0]))


def test_newton_slope_survives_overflow_near_p_1():
    # at p = 1.02, y^(p+1) overflows for y > ~1e152 inside the tail Newton;
    # the slope then comes from y^(-(p+1)/2), and only the last two points,
    # whose inverse exceeds the double range, still fail
    profile = make_profile(1.02)
    zs = profile.L_p * np.arange(2500) / 2500
    ys = time_map_inverse(profile, zs[:-2])
    assert ys.max() > 1e152
    for z, y in zip(zs[-200:-2], ys[-198:]):
        assert abs(time_map(profile, y) - z) <= 1e-12 * profile.L_p, z
    for z in zs[-2:]:
        with pytest.raises(OverflowError):
            time_map_inverse(profile, float(z))
    with pytest.raises(OverflowError):
        time_map_inverse(profile, zs)


def _integrands(p):
    return {"head": timemap._head_integrand(p), "tail": timemap._tail_integrand(p),
            "generic": lambda x: math.sin(7.0 * x) - x * x if x != 0.5 else math.inf}


def _bits(values):
    return [repr(float(v)) for v in values]


@pytest.mark.parametrize("p", [1.05, 3.0, 40.0])
def test_qk21_many_matches_qk21(p):
    rng = random.Random(int(p * 100))
    for name, f in _integrands(p).items():
        hi = math.sqrt(3.0) if name == "head" else 0.99
        a = [0.0] * 60 + [rng.uniform(0.0, hi) for _ in range(60)]
        b = [hi * 10.0 ** rng.uniform(-12.0, 0.0) for _ in range(60)]
        b += [rng.uniform(0.0, hi) for _ in range(60)]  # some reversed
        rows = qk21_many(f, a, b)
        for i, (ai, bi) in enumerate(zip(a, b)):
            assert _bits(r[i] for r in rows) == _bits(_qk21(f, ai, bi)), (name, ai, bi)


@pytest.mark.filterwarnings("ignore")
def test_quad_many_matches_quad():
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    fs = [timemap._head_integrand(2.5), timemap._tail_integrand(2.5),
          lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, lambda x: 0.0]
    rng = random.Random(3)
    a = [0.0, 0.2, 0.7] + [rng.uniform(0.0, 0.5) for _ in range(20)]
    b = [1e-9, 0.2, 0.1] + [rng.uniform(0.0, 0.99) for _ in range(20)]
    for f in fs:
        assert _bits(quad_many(f, a, b, **opts)) == _bits(quad(f, x, y, **opts)[0]
                                                          for x, y in zip(a, b))
    assert _bits(quad_many(math.exp, [0.0], [1.0], limit=1)) == _bits([quad(math.exp, 0.0, 1.0,
                                                                           limit=1)[0]])
