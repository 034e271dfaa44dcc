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

The blow-up at the endpoints is genuine, so inversion is capped at
z <= (1 - 1e-9) * L_p; evaluation closer to the boundary raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadpack import quad
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


def _head(p: float, y: float) -> float:
    if y <= 1.0:
        return 0.0
    return quad(_head_integrand(p), 0.0, math.sqrt(y - 1.0), **_QUAD_OPTS)[0]


@lru_cache(maxsize=256)
def _z_split(p: float) -> float:
    """T(_SPLIT), where time_map_inverse switches from head to tail inversion."""
    return _head(p, _SPLIT)


def _tail(p: float, y: float) -> float:
    """integral_y^infinity ds / sqrt(s^(p+1) - 1), via s = z^(-2/(p-1))."""
    b = 2.0 / (p - 1.0)
    expo = b * (p + 1.0)
    upper = y ** (-1.0 / b)

    def f(z: float) -> float:
        return b / math.sqrt(1.0 - z ** expo)

    return quad(f, 0.0, upper, **_QUAD_OPTS)[0]


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


def _time_map_deriv(p: float, y: float) -> float:
    return 1.0 / math.sqrt(y ** (p + 1.0) - 1.0)


def time_map_inverse(profile: Profile, z: float) -> float:
    """Solve T(y) = z for y >= 1, with |T(y) - z| <= 1e-12 * L_p.

    Valid for 0 <= z <= (1 - 1e-9) * L_p; beyond the cap the inverse diverges
    and a ValueError is raised.  Uses a verified bracket plus Newton steps
    safeguarded by bisection; near L_p the bracket comes from the tail
    asymptotics T(y) ~ L_p - (2/(p-1)) y^(-(p-1)/2).
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
        f_of = lambda w_: _head(p, 1.0 + w_ * w_) - z
        flo = -z
        for _ in range(100):
            fw = f_of(w)
            if abs(fw) <= 0.5e-12 * L:
                break
            if fw * flo > 0.0:
                lo, flo = w, fw
            else:
                hi = w
            step = fw / g(w) if g(w) > 0.0 else 0.0
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
    flo = time_map(profile, lo) - z
    fhi = time_map(profile, hi) - z
    expand = 0
    while fhi < 0.0 and expand < 60:
        lo, flo = hi, fhi
        hi *= 10.0
        fhi = time_map(profile, hi) - z
        expand += 1
    if flo > 0.0 or fhi < 0.0:
        raise RuntimeError(f"failed to bracket time-map inverse at z={z!r}")
    y = 0.5 * (lo + hi)
    for _ in range(200):
        fy = time_map(profile, y) - z
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


@lru_cache(maxsize=1_000_000)
def _y_at(profile: Profile, ax: float) -> float:
    return time_map_inverse(profile, profile.L_p * ax)


def eval_U(profile: Profile, x: float) -> float:
    """U(x) = mu_p * T^{-1}(L_p |x|); even in x, minimum mu_p at x = 0.

    Defined on |x| < 1; the implementation refuses |x| > 1 - 1e-9 (inversion
    cap), where the profile is effectively infinite.
    """
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"profile evaluation requires |x| < 1, got {x!r}")
    return profile.mu_p * _y_at(profile, abs(x))


def eval_U_prime(profile: Profile, x: float) -> float:
    """U'(x) = sign(x) * sqrt((2/(p+1)) * (U^(p+1) - mu_p^(p+1))); odd in x."""
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"profile evaluation requires |x| < 1, got {x!r}")
    if x == 0.0:
        return 0.0
    p, mu = profile.p, profile.mu_p
    y = _y_at(profile, abs(x))
    # U^(p+1) - mu^(p+1) = mu^(p+1) * (y^(p+1) - 1), cancellation-free near 0
    diff = mu ** (p + 1.0) * math.expm1((p + 1.0) * math.log(y))
    return math.copysign(math.sqrt(2.0 / (p + 1.0) * diff), x)


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
    values = np.array([eval_U(profile, x) for x in grid])
    derivs = np.array([eval_U_prime(profile, x) for x in grid])
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
    worst = 0.0
    for x in np.linspace(-1.0 + delta, 1.0 - delta, n):
        u = eval_U(profile, x)
        upp = (eval_U(profile, x - h) - 2.0 * u + eval_U(profile, x + h)) / (h * h)
        target = u ** p
        worst = max(worst, abs(upp - target) / target)
    return worst
