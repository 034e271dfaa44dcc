"""Pointwise evaluation of the canonical blow-up profile via its time map.

The profile U is the unique even solution of

    U'' = U^p  on (-1, 1),   U > 0,   U(x) -> +infinity as x -> +-1,

for p > 1.  Writing mu_p = U(0) for its minimum and

    T(y) = integral_1^y ds / sqrt(s^(p+1) - 1)        (y >= 1),
    L_p  = T(infinity) = B((p-1)/(2(p+1)), 1/2) / (p+1),

the profile is U(x) = mu_p * T^{-1}(L_p |x|) with
mu_p = (sqrt((p+1)/2) * L_p)^(2/(p-1)), and

    U'(x) = sign(x) * sqrt( (2/(p+1)) * (U^(p+1) - mu_p^(p+1)) ).

The integrand of T has an inverse-square-root singularity at s = 1 and an
algebraic tail at infinity.  Both are removed by substitution:

  * head:  s = 1 + w^2 gives the smooth integrand 2w / sqrt((1+w^2)^(p+1) - 1);
  * tail:  s = z^(-2/(p-1)) turns integral_y^infinity into
           (2/(p-1)) * integral_0^(y^(-(p-1)/2)) dz / sqrt(1 - z^(2(p+1)/(p-1))),
           smooth because the upper limit stays below 1.

Both are integrated by ``quadpack.quad``, the package's port of QUADPACK's
adaptive Gauss-Kronrod routine QAGS.

``time_map_inverse`` has one Newton iteration, ``_inverse_steps``: a
generator that yields each y where it needs T(y) and is sent T(y) back.
Two loops run it.  A float z is answered point by point by
``time_map``.  An array of z gets one iteration per distinct z, and each
round evaluates every pending T(y) together: ``quadpack.quad_many``
applies the 21-point Gauss-Kronrod rule to all their intervals with numpy
elementwise arithmetic, and to both halves of those (about 5 %) that the
first rule leaves unsettled, before QUADPACK's own code goes on with
them.  Both paths return the same bits for every z.  ``eval_U``,
``eval_U_prime``, ``sample_profile`` and ``ode_residual`` take their
grids through the array path; the float path and its ``_y_at`` cache
serve pointwise callers such as the x-space oracles.

The integrands stay scalar functions on ``math``'s libm calls, even under
the batched rule.  numpy's own log1p, expm1 and power are vectorised with
SIMD code that does not round as libm does: on an AVX-512 x86-64 machine
they differ from ``math`` in the last place for about 9 %, 10 % and 5 %
of arguments, which would move the bits of the profile.

The blow-up at the endpoints is genuine, so inversion is capped at
z <= (1 - 1e-9) * L_p; evaluation closer to the boundary raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadpack import quad, quad_many
from .specfun import beta

__all__ = [
    "Profile",
    "ProfileSample",
    "make_profile",
    "time_map",
    "time_map_inverse",
    "eval_U",
    "eval_U_prime",
    "ode_residual",
    "sample_profile",
    "INVERSION_CAP",
]

# Inversion is refused for z > (1 - INVERSION_CAP) * L_p: the inverse
# diverges at L_p and values that close to the boundary are meaningless.
INVERSION_CAP = 1e-9

# Switch between head quadrature and L_p minus tail.
_SPLIT = 4.0

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=200)


@dataclass(frozen=True)
class Profile:
    """Immutable description of the blow-up profile for one exponent p."""

    p: float
    mu_p: float
    L_p: float


@dataclass(frozen=True)
class ProfileSample:
    """Profile (or scaled profile) tabulated on a grid away from the boundary."""

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    delta: float


def make_profile(p: float) -> Profile:
    """Build the Profile for exponent p > 1.

    L_p comes from the Beta closed form, mu_p from
    mu_p = (sqrt((p+1)/2) * L_p)^(2/(p-1)).
    """
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"profile exponent must satisfy p > 1, got {p!r}")
    L = beta((p - 1.0) / (2.0 * (p + 1.0)), 0.5) / (p + 1.0)
    mu = (math.sqrt((p + 1.0) / 2.0) * L) ** (2.0 / (p - 1.0))
    return Profile(p=p, mu_p=mu, L_p=L)


def _head_integrand(p: float):
    pp1 = p + 1.0

    def f(w: float) -> float:
        if w == 0.0:
            return 2.0 / math.sqrt(pp1)
        # (1+w^2)^(p+1) - 1 without cancellation for small w
        return 2.0 * w / math.sqrt(math.expm1(pp1 * math.log1p(w * w)))

    return f


def _tail_integrand(p: float):
    b = 2.0 / (p - 1.0)
    expo = b * (p + 1.0)

    def f(z: float) -> float:
        return b / math.sqrt(1.0 - z ** expo)

    return f


def _head(p: float, y: float) -> float:
    if y <= 1.0:
        return 0.0
    return quad(_head_integrand(p), 0.0, math.sqrt(y - 1.0), **_QUAD_OPTS)[0]


@lru_cache(maxsize=256)
def _z_split(p: float) -> float:
    """T(_SPLIT), where time_map_inverse switches from head to tail inversion."""
    return _head(p, _SPLIT)


def _tail_upper(p: float, y: float) -> float:
    return y ** (-1.0 / (2.0 / (p - 1.0)))


def _tail(p: float, y: float) -> float:
    """integral_y^infinity ds / sqrt(s^(p+1) - 1), via s = z^(-2/(p-1))."""
    return quad(_tail_integrand(p), 0.0, _tail_upper(p, y), **_QUAD_OPTS)[0]


def time_map(profile: Profile, y: float) -> float:
    """T(y) = integral_1^y ds / sqrt(s^(p+1) - 1) for y >= 1.

    Monotone increasing, T(1) = 0, T(y) -> L_p as y -> infinity (math.inf is
    accepted and returns L_p exactly).
    """
    y = float(y)
    if math.isnan(y) or y < 1.0:
        raise ValueError(f"time map requires y >= 1, got {y!r}")
    if math.isinf(y):
        return profile.L_p
    if y <= _SPLIT:
        return _head(profile.p, y)
    return profile.L_p - _tail(profile.p, y)


def _time_map_many(profile: Profile, ys: np.ndarray) -> list[float]:
    """[time_map(profile, y) for y in ys], bit for bit.

    Each distinct y is integrated once (Newton iterations for different z
    often ask for the same y, such as 1 + 3 where the head starts).  The
    head integrals go through one ``quad_many`` call and the tail
    integrals through another; a y outside (1, infinity) takes the scalar
    path.  Where several y would fail, the exception raised need not be
    the first one's.
    """
    p = profile.p
    ys, back = np.unique(ys, return_inverse=True)
    out = np.empty(ys.shape)
    head = (ys > 1.0) & (ys <= _SPLIT)
    if head.any():
        # numpy's sqrt and - round as math.sqrt and float - do
        out[head] = quad_many(_head_integrand(p), np.zeros(np.count_nonzero(head)),
                              np.sqrt(ys[head] - 1.0), **_QUAD_OPTS)
    tail = (ys > _SPLIT) & (ys < math.inf)
    if tail.any():
        upper = [_tail_upper(p, y) for y in ys[tail].tolist()]
        out[tail] = profile.L_p - quad_many(_tail_integrand(p), np.zeros(len(upper)), upper,
                                            **_QUAD_OPTS)
    for i in np.flatnonzero(~(head | tail)).tolist():
        out[i] = time_map(profile, float(ys[i]))
    return out[back].tolist()


def _time_map_deriv(p: float, y: float) -> float:
    try:
        return 1.0 / math.sqrt(y ** (p + 1.0) - 1.0)
    except OverflowError:
        # y^(p+1) - 1 is y^(p+1) to rounding long before it overflows
        return y ** (-(p + 1.0) / 2.0)


def _inverse_steps(profile: Profile, z: float):
    """The Newton iteration of the time-map inverse, as a generator.

    It yields each y where it needs T(y), takes T(y) back through
    ``send``, and returns the inverse (``StopIteration.value``).  Which T
    evaluator answers is up to the caller: the arithmetic here alone decides
    the bits of the result.
    """
    p, L = profile.p, profile.L_p
    z = float(z)
    if math.isnan(z) or z < 0.0:
        raise ValueError(f"time map inverse requires z >= 0, got {z!r}")
    if z > (1.0 - INVERSION_CAP) * L:
        raise ValueError(
            f"z = {z!r} exceeds the inversion cap (1 - 1e-9) * L_p = {(1.0 - INVERSION_CAP) * L!r}; "
            "the profile blows up at z = L_p"
        )
    if z == 0.0:
        return 1.0

    if z <= _z_split(p):
        # invert in w-space where G(w) = T(1 + w^2) has a smooth nonzero slope
        g = _head_integrand(p)
        lo, hi = 0.0, math.sqrt(_SPLIT - 1.0)
        w = min(hi, z * math.sqrt(p + 1.0) / 2.0)  # small-z asymptote
        flo = -z
        for _ in range(100):
            fw = (yield 1.0 + w * w) - z
            if abs(fw) <= 0.5e-12 * L:
                break
            if fw * flo > 0.0:
                lo, flo = w, fw
            else:
                hi = w
            slope = g(w)
            step = fw / slope if slope > 0.0 else 0.0
            w_new = w - step
            if not (lo < w_new < hi):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) <= 1e-16 * max(1.0, w):
                w = w_new
                break
            w = w_new
        return 1.0 + w * w

    # Tail regime: y* >= Y0 because the tail integrand is >= 1.
    b = 2.0 / (p - 1.0)
    y0 = (b / (L - z)) ** b
    lo = max(_SPLIT, y0)
    hi = max(1e3 * y0, 2.0 * lo)
    flo = (yield lo) - z
    if flo > 0.0:
        # near p = 1 rounding can put T(y0) above z; T(_SPLIT) < z here
        lo, flo = _SPLIT, _z_split(p) - z
    fhi = (yield hi) - z
    expand = 0
    while fhi < 0.0 and expand < 60:
        lo, flo = hi, fhi
        hi *= 10.0
        fhi = (yield hi) - z
        expand += 1
    if flo > 0.0 or fhi < 0.0:
        raise RuntimeError(f"failed to bracket time-map inverse at z={z!r}")
    y = 0.5 * (lo + hi)
    for _ in range(200):
        fy = (yield y) - z
        if abs(fy) <= 0.5e-12 * L:
            return y
        if fy < 0.0:
            lo = y
        else:
            hi = y
        y_new = y - fy / _time_map_deriv(p, y)
        if not (lo < y_new < hi):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 4e-16 * y:
            return y_new
        y = y_new
    return y


def _inverse_many(profile: Profile, zs: np.ndarray) -> np.ndarray:
    """The array path: one _inverse_steps per distinct z, all answered together.

    Each round gathers the y every unfinished iteration asks for and
    evaluates them with one ``_time_map_many`` call.  Where inputs fail,
    the exception of the first failing index is raised, as a loop over
    ``zs`` would raise it.
    """
    distinct, first, back = np.unique(zs.ravel(), return_index=True, return_inverse=True)
    steps = [_inverse_steps(profile, z) for z in distinct.tolist()]
    ys = [1.0] * len(steps)
    errors: dict[int, Exception] = {}
    # answers: (k, T(y)) for every iteration to resume, None on its first step
    answers = [(k, None) for k in range(len(steps))]
    while answers:
        asks: dict[int, float] = {}
        for k, t in answers:
            try:
                asks[k] = steps[k].send(t)
            except StopIteration as stop:
                ys[k] = stop.value
            except Exception as exc:  # re-raised below if k is the first to fail
                errors[k] = exc
        try:
            answers = list(zip(asks, _time_map_many(profile, np.fromiter(asks.values(), float))))
        except Exception:
            # find whose T(y) fails: answer this round point by point
            answers = []
            for k, y in asks.items():
                try:
                    answers.append((k, time_map(profile, y)))
                except Exception as exc:
                    errors[k] = exc
    if errors:
        raise errors[min(errors, key=lambda k: first[k])]
    return np.array(ys)[back].reshape(zs.shape)


def time_map_inverse(profile: Profile, z):
    """Solve T(y) = z for y >= 1, with |T(y) - z| <= 1e-12 * L_p.

    Valid for 0 <= z <= (1 - 1e-9) * L_p; beyond the cap the inverse diverges
    and a ValueError is raised.  Uses a verified bracket plus Newton steps
    safeguarded by bisection; near L_p the bracket comes from the tail
    asymptotics T(y) ~ L_p - (2/(p-1)) y^(-(p-1)/2).

    A scalar z gives a float; an array gives an array of the same shape,
    each entry bit-identical to the scalar answer (see the module notes).
    """
    if np.ndim(z) > 0:
        return _inverse_many(profile, np.asarray(z, dtype=float))
    steps = _inverse_steps(profile, z)
    t = None
    try:
        while True:
            t = time_map(profile, steps.send(t))
    except StopIteration as stop:
        return stop.value


@lru_cache(maxsize=1_000_000)
def _y_at(profile: Profile, ax: float) -> float:
    return time_map_inverse(profile, profile.L_p * ax)


def _y_many(profile: Profile, x: np.ndarray) -> np.ndarray:
    """T^{-1}(L_p |x|) for an array x; the first |x| >= 1 or non-finite x raises."""
    ax = np.abs(x)
    bad = ~(ax < 1.0)
    if bad.any():
        first_bad = float(x.flat[np.argmax(bad)])
        raise ValueError(f"profile evaluation requires |x| < 1, got {first_bad!r}")
    return time_map_inverse(profile, profile.L_p * ax)


def _u_values(profile: Profile, y: np.ndarray) -> np.ndarray:
    # mu_p * y, rounding to inf quietly where it overflows, as a float * does
    with np.errstate(over="ignore"):
        return profile.mu_p * y


def _u_prime(p: float, mu: float, x: float, y: float) -> float:
    if x == 0.0:
        return 0.0
    # U^(p+1) - mu^(p+1) = mu^(p+1) * (y^(p+1) - 1), cancellation-free near 0
    diff = mu ** (p + 1.0) * math.expm1((p + 1.0) * math.log(y))
    return math.copysign(math.sqrt(2.0 / (p + 1.0) * diff), x)


def _u_prime_many(profile: Profile, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    p, mu = profile.p, profile.mu_p
    values = [_u_prime(p, mu, xi, yi) for xi, yi in zip(x.ravel().tolist(), y.ravel().tolist())]
    return np.array(values, dtype=float).reshape(x.shape)


def eval_U(profile: Profile, x):
    """U(x) = mu_p * T^{-1}(L_p |x|); even in x, minimum mu_p at x = 0.

    Defined on |x| < 1; the implementation refuses |x| > 1 - 1e-9 (inversion
    cap), where the profile is effectively infinite.  An array x gives an
    array, inverting each distinct |x| once.
    """
    if np.ndim(x) > 0:
        x = np.asarray(x, dtype=float)
        return _u_values(profile, _y_many(profile, x))
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"profile evaluation requires |x| < 1, got {x!r}")
    return profile.mu_p * _y_at(profile, abs(x))


def eval_U_prime(profile: Profile, x):
    """U'(x) = sign(x) * sqrt((2/(p+1)) * (U^(p+1) - mu_p^(p+1))); odd in x."""
    if np.ndim(x) > 0:
        x = np.asarray(x, dtype=float)
        return _u_prime_many(profile, x, _y_many(profile, x))
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"profile evaluation requires |x| < 1, got {x!r}")
    return _u_prime(profile.p, profile.mu_p, x, _y_at(profile, abs(x)))


def symmetric_grid(n: int, delta: float) -> np.ndarray:
    """n-point grid on [-1+delta, 1-delta], exactly mirror-symmetric for odd n."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"boundary offset delta must lie in (0, 1), got {delta!r}")
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if n % 2 == 0:
        return np.linspace(-1.0 + delta, 1.0 - delta, n)
    half = np.linspace(0.0, 1.0 - delta, n // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def sample_profile(profile: Profile, grid=None, n: int = 201, delta: float = 1e-3) -> ProfileSample:
    """Tabulate U and U' on a grid inside (-1 + delta, 1 - delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"boundary offset delta must lie in (0, 1), got {delta!r}")
    if grid is None:
        grid = symmetric_grid(n, delta)
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < -1.0 + delta or grid.max() > 1.0 - delta):
        raise ValueError("sample grid leaves the interval (-1 + delta, 1 - delta)")
    # one inversion per distinct |x|: the mirror grid's halves share theirs
    y = _y_many(profile, grid)
    values = _u_values(profile, y)
    derivs = _u_prime_many(profile, grid, y)
    return ProfileSample(grid=grid, values=values, derivs=derivs, delta=float(delta))


def ode_residual(profile: Profile, delta: float, n: int = 1001, h: float = 1e-4) -> float:
    """Max over a grid on [-1+delta, 1-delta] of |U''_num - U^p| / U^p.

    U''_num is the centered second difference of eval_U with step h, so this
    is a finite-difference oracle for the defining equation U'' = U^p.
    Requires delta > 2h so the stencil stays inside the domain.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if delta <= 2.0 * h:
        raise ValueError(f"delta = {delta!r} leaves no room for the stencil (h = {h!r})")
    p = profile.p
    xs = np.linspace(-1.0 + delta, 1.0 - delta, n)
    # every stencil point in one call, in the order x, x - h, x + h per x
    us = eval_U(profile, np.stack([xs, xs - h, xs + h], axis=1)).tolist()
    worst = 0.0
    for u, u_left, u_right in us:
        upp = (u_left - 2.0 * u + u_right) / (h * h)
        target = u ** p
        worst = max(worst, abs(upp - target) / target)
    return worst
