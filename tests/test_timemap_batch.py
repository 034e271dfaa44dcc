"""The array paths of the time map against the scalar ones, bit for bit.

``timemap_reference.time_map_inverse`` is the inverse as two plain scalar
Newton loops; the float and array paths of
``blowup.timemap.time_map_inverse`` must both reproduce it, exceptions
included.  The lanes of the array path are also checked on their own,
and a z whose iteration fails must leave them alone.
``quadpack.qk21_many`` must reproduce ``_qk21`` row by row, and the
integrands' array forms their scalar values node by node.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timemap_reference
from blowup import quadpack, timemap
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


def _lane_inputs(profile):
    """Inputs of _head_lanes and of _tail_lanes, and their float-path inverses."""
    split = timemap._z_split(profile.p)
    cap = (1.0 - INVERSION_CAP) * profile.L_p
    rng = random.Random(int(profile.p * 1000))
    zs = [5e-324, 1e-300, 1e-12, split, math.nextafter(split, 0.0),
          math.nextafter(split, math.inf), cap, math.nextafter(cap, 0.0)]
    zs += [rng.uniform(0.0, split) for _ in range(40)]
    zs += [cap - (cap - split) * 10.0 ** -rng.uniform(0.0, 9.0) for _ in range(40)]
    # an even grid over (0, L_p): near p = 1 some of its tail points restart
    # the bracket from _SPLIT
    zs += (profile.L_p * np.arange(0, 2500, 7) / 2500).tolist()
    # near p = 1 the inverse near the cap exceeds the double range
    pairs = [(z, _outcome(timemap._inverse_point, profile, z)) for z in zs if 0.0 < z <= cap]
    pairs = [(z, y) for z, y in pairs if isinstance(y, float)]
    return ([pair for pair in pairs if pair[0] <= split],
            [pair for pair in pairs if pair[0] > split])


def _check_lanes(lanes, profile, pairs):
    zs, expected = zip(*pairs)
    y, failed = lanes(profile, np.array(zs))
    assert not failed.any()
    assert y.tolist() == list(expected)


@pytest.mark.parametrize("p", [1.02, 1.05, 1.3, 2.0, 4.37, 60.0])
def test_lanes_match_float_path(p):
    # _head_lanes and _tail_lanes called directly: no lane may leave for the
    # float path on these inputs, and every lane must reproduce it
    profile = make_profile(p)
    head, tail = _lane_inputs(profile)
    # at p = 60, T(_SPLIT) rounds to L_p and every z is a head z
    assert len(head) >= 40 and (len(tail) >= 10 or p == 60.0)
    _check_lanes(timemap._head_lanes, profile, head)
    if tail:
        _check_lanes(timemap._tail_lanes, profile, tail)


def test_tail_lanes_match_float_path_when_the_bracket_expands(monkeypatch):
    # the lower bound y0 is sharp enough that the 10x expansion of the
    # bracket never runs on real inputs; start both paths far too low
    start = timemap._tail_start
    monkeypatch.setattr(timemap, "_tail_start", lambda p, L, z: start(p, L, z) * 1e-9)
    for p in (1.3, 3.0, 20.0):
        profile = make_profile(p)
        _check_lanes(timemap._tail_lanes, profile, _lane_inputs(profile)[1])


def _count_float_path(monkeypatch):
    calls = []
    point = timemap._inverse_point

    def counted(profile, z):
        calls.append(z)
        return point(profile, z)

    monkeypatch.setattr(timemap, "_inverse_point", counted)
    return calls


def test_only_failing_z_leave_the_lanes(monkeypatch):
    # at p = 1.02 the inverse of the last two grid points exceeds the
    # largest double; the float path answers only the first of them
    calls = _count_float_path(monkeypatch)
    profile = make_profile(1.02)
    zs = profile.L_p * np.arange(2500) / 2500
    with pytest.raises(OverflowError, match=f"z = {float(zs[-2])!r} "):
        time_map_inverse(profile, zs)
    assert calls == [float(zs[-2])]
    # outside the domain: the first failing index raises, in index order
    calls.clear()
    with pytest.raises(ValueError, match="requires z >= 0"):
        time_map_inverse(profile, np.array([0.5, -1.0, math.nan, 0.25, 0.5]))
    assert calls == [-1.0]


@pytest.mark.parametrize("p", [1.3, 3.0])
def test_lanes_confine_a_failing_time_map(monkeypatch, p):
    # a T(y) that raises for one y fails only the lane that asked for it
    profile = make_profile(p)
    head, tail = _lane_inputs(profile)
    zs = [z for z, _ in head[:20] + tail[:20]]
    z_bad = zs[len(zs) // 2]
    y_bad = timemap._inverse_point(profile, z_bad)  # the last y its iteration asks for
    forward, forward_many = timemap.time_map, timemap._time_map_many

    def time_map_failing(profile, y):
        if y == y_bad:
            raise ArithmeticError(f"no T at y = {y!r}")
        return forward(profile, y)

    def time_map_many_failing(profile, ys):
        if (ys == y_bad).any():
            raise ArithmeticError("one y fails")
        return forward_many(profile, ys)

    monkeypatch.setattr(timemap, "time_map", time_map_failing)
    monkeypatch.setattr(timemap, "_time_map_many", time_map_many_failing)
    calls = _count_float_path(monkeypatch)
    with pytest.raises(ArithmeticError, match=f"no T at y = {y_bad!r}"):
        time_map_inverse(profile, np.array(zs))
    assert calls == [z_bad]
    # with the failure only in the batch, every lane still gets its bits
    monkeypatch.setattr(timemap, "time_map", forward)
    calls.clear()
    expected = [timemap._inverse_point(profile, z) for z in zs]
    calls.clear()
    assert time_map_inverse(profile, np.array(zs)).tolist() == expected
    assert calls == []


def test_lanes_confine_a_failing_slope(monkeypatch):
    # a head slope that raises for one w fails only the lane that asked for it
    profile = make_profile(3.0)
    zs = [z for z, _ in _lane_inputs(profile)[0][:30]]
    z_bad = zs[15]
    w_bad = min(math.sqrt(timemap._SPLIT - 1.0), z_bad * math.sqrt(profile.p + 1.0) / 2.0)
    integrand = timemap._head_integrand

    def failing_integrand(p):
        g = integrand(p)

        def f(w):
            if w == w_bad:
                raise ArithmeticError(f"no slope at w = {w!r}")
            return g(w)

        def many(w):
            if (w == w_bad).any():
                raise ArithmeticError("one w fails")
            return g.many(w)

        f.many = many
        return f

    monkeypatch.setattr(timemap, "_head_integrand", failing_integrand)
    calls = _count_float_path(monkeypatch)
    with pytest.raises(ArithmeticError, match=f"no slope at w = {w_bad!r}"):
        time_map_inverse(profile, np.array(zs))
    assert calls == [z_bad]


def test_a_zero_slope_fails_the_lane_as_the_float_path_does(monkeypatch):
    # y - fy / T'(y) raises ZeroDivisionError on the float path where the
    # slope is 0; numpy would divide quietly, so the lane must leave
    profile = make_profile(3.0)
    zs = [z for z, _ in _lane_inputs(profile)[1][:10]]
    monkeypatch.setattr(timemap, "_time_map_deriv", lambda p, y: 0.0)
    calls = _count_float_path(monkeypatch)
    with pytest.raises(ZeroDivisionError):
        time_map_inverse(profile, np.array(zs))
    assert calls == [zs[0]]


@pytest.mark.parametrize("p", [1.05, 3.0, 40.0])
def test_integrand_array_forms_match_scalar(p):
    rng = random.Random(int(p * 10))
    cases = {
        "head": (timemap._head_integrand(p),
                 [0.0, -0.0, 1e-150, 1.0, math.sqrt(3.0), 1e200, math.inf, math.nan]
                 + [rng.uniform(0.0, 2.0) for _ in range(50)]),
        "tail": (timemap._tail_integrand(p),
                 [0.0, -0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), math.nan]
                 + [rng.uniform(0.0, 1.0) for _ in range(50)]),
    }
    for name, (f, nodes) in cases.items():
        assert _bits(f.many(np.array(nodes))) == _bits(f(x) for x in nodes), name
    # where f raises, the array form raises f's exception at the first such node
    failing = {"head": [0.5, 1e-170, 1e200], "tail": [0.5, 1.0, -0.5, 2.0]}
    for name, nodes in failing.items():
        f = cases[name][0]
        expected = next(_outcome(f, x) for x in nodes if isinstance(_outcome(f, x), tuple))
        assert _outcome(f.many, np.array(nodes)) == expected, name


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


def _warned(fn, *args, **kwargs):
    """fn's value and the warnings it gave, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args, **kwargs)
    return value, [(w.category, str(w.message)) for w in caught]


def test_quad_many_matches_quad(monkeypatch):
    rng = random.Random(3)
    # upper limits of the head (w up to sqrt(_SPLIT - 1)) and the tail (z below 1),
    # from rows the first rule settles to rows that need many bisections
    heads = [1e-7, 0.01, 0.5, 1.0, 1.5, 3.0 ** 0.5] + [rng.uniform(0.0, 1.7) for _ in range(10)]
    tails = [1e-6, 0.1, 0.5, 0.9, 0.99, 0.9999] + [rng.uniform(0.0, 1.0) for _ in range(10)]
    cases = [(f(p), [0.0] * len(b), b, 1e-14) for p in (1.02, 1.05, 3.0, 40.0, 60.0)
             for f, b in ((timemap._head_integrand, heads), (timemap._tail_integrand, tails))]
    a = [0.0, 0.2, 0.7] + [rng.uniform(0.0, 0.5) for _ in range(20)]
    b = [1e-9, 0.2, 0.1] + [rng.uniform(0.0, 0.99) for _ in range(20)]
    cases += [(f, a, b, 1e-14) for f in (lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0,
                                         lambda x: 0.0, math.exp)]
    # a step at the midpoint, where one bisection leaves two smooth halves
    cases.append((lambda x: 1.0 if x < 0.5 else 2.0, [0.0], [1.0], 1e-14))
    # a step inside [1, 1 + 4 ulp]: the error after one bisection, 0.4 of the
    # first rule's, meets epsabs, but that bisection is too small to trust
    # (DQAGSE's ier 4)
    ulp = math.ulp(1.0)
    cases.append((lambda x: 1.0 if x < 1.0 + 2.0 * ulp else 2.0, [1.0], [1.0 + 4.0 * ulp],
                  2e-16))
    rules = []  # DQK21 rules of each scalar call: 1, 3 after one bisection, or more
    rule = quadpack._qk21

    def counting(*args):
        rules[-1] += 1
        return rule(*args)

    def scalar(f, lo, hi, **opts):
        out = []
        with monkeypatch.context() as patch:
            patch.setattr(quadpack, "_qk21", counting)
            for x, y in zip(lo, hi):
                rules.append(0)
                out.append(quad(f, x, y, **opts)[0])
        return out

    warned = 0
    for limit in (1, 2, 200):
        for f, lo, hi, epsabs in cases:
            opts = dict(epsabs=epsabs, epsrel=1e-13, limit=limit)
            many = _warned(quad_many, f, lo, hi, **opts)
            expected = _warned(scalar, f, lo, hi, **opts)
            assert _bits(many[0]) == _bits(expected[0]) and many[1] == expected[1], (limit, hi)
            warned += len(many[1])
    assert {1, 3} <= set(rules) and max(rules) >= 5
    assert warned
