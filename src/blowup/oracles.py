"""Independent numerical routes used to check the closed forms.

Everything here deliberately avoids the machinery it is meant to check:

  * ``beta_integral`` integrates the defining Beta integral directly
    (no Gamma functions);
  * ``profile_length_quadrature`` integrates dt/sqrt(t^(p+1)-1) directly
    (no Beta closed form);
  * ``time_map_midpoint`` re-evaluates the time map with a midpoint-rule
    refinement scheme (the implementation path uses adaptive Gauss-Kronrod
    via the package's QUADPACK port);
  * ``bisection_inverse`` inverts the time map by pure bisection (the
    implementation path uses safeguarded Newton);
  * ``rk_profile`` integrates U'' = U^p with an adaptive Cash-Karp 5(4)
    pair (the implementation path never touches an ODE integrator);
  * the norm oracles integrate in t-space and x-space (the implementation
    path is a pure Beta closed form).

Endpoint singularities are always removed by a substitution (exponent-
matched powers, or tanh-sinh for the Beta integral) before a rule is
applied, so plain rules converge at their nominal order.
"""

from __future__ import annotations

import math

import numpy as np

from .timemap import Profile, eval_U, eval_U_prime, time_map

__all__ = [
    "midpoint_refine",
    "midpoint_fixed",
    "gauss_panels",
    "beta_integral",
    "profile_length_quadrature",
    "time_map_midpoint",
    "bisection_inverse",
    "rk_profile",
    "norm_quadrature",
    "deriv_norm_quadrature",
    "deriv_norm_x_quadrature",
    "norm_x_quadrature",
    "exp_deriv_norm_x_quadrature",
]


# ----------------------------------------------------------------------
# quadrature engines


def midpoint_fixed(f, a: float, b: float, n: int) -> float:
    """Composite midpoint rule with n uniform cells; f must accept arrays."""
    if b <= a:
        return 0.0
    h = (b - a) / n
    x = a + h * (np.arange(n) + 0.5)
    return float(h * np.sum(f(x)))


def midpoint_refine(f, a: float, b: float, tol: float = 1e-11,
                    n0: int = 64, max_doublings: int = 18) -> float:
    """Midpoint rule with mesh doubling until two consecutive refinements
    change the value by less than tol relative to |I|."""
    n = n0
    prev = midpoint_fixed(f, a, b, n)
    hits = 0
    for _ in range(max_doublings):
        n *= 2
        cur = midpoint_fixed(f, a, b, n)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            hits += 1
            if hits >= 2:
                return cur
        else:
            hits = 0
        prev = cur
    return prev


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_panels(f, a: float, b: float, n_panels: int = 24, n_nodes: int = 16) -> float:
    """Composite Gauss-Legendre quadrature; f is evaluated pointwise."""
    if b <= a:
        return 0.0
    if n_nodes not in _GL_CACHE:
        _GL_CACHE[n_nodes] = np.polynomial.legendre.leggauss(n_nodes)
    nodes, weights = _GL_CACHE[n_nodes]
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        total += half * sum(w * f(mid + half * t) for t, w in zip(nodes, weights))
    return total


# ----------------------------------------------------------------------
# Beta and time-map oracles


def beta_integral(x: float, y: float, tol: float = 1e-12) -> float:
    """B(x, y) by direct quadrature of integral_0^1 t^(x-1) (1-t)^(y-1) dt.

    Uses the tanh-sinh endpoint substitution t = (1 + tanh((pi/2) sinh u))/2,
    under which any algebraic endpoint singularity becomes doubly
    exponentially damped; the trapezoid step is halved until convergence.
    t and 1 - t enter through their logarithms (log t = -log1p(e^(-2z))),
    so nothing is lost to rounding near the endpoints.
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError("beta integral requires x, y > 0")

    u_max = 6.5  # e^u reaches ~665: handles exponents down to ~0.02

    def level_sum(u: np.ndarray) -> np.ndarray:
        # exp(+-2z) overflows to inf at the outermost nodes; log1p(inf) = inf
        # and the final exp underflows to the correct 0, so the warnings are noise
        with np.errstate(over="ignore"):
            z = 0.5 * math.pi * np.sinh(u)
            log_t = -np.log1p(np.exp(-2.0 * z))
            log_1mt = -np.log1p(np.exp(2.0 * z))
            return math.pi * np.cosh(u) * np.exp(x * log_t + y * log_1mt)

    h = 0.5
    total = float(np.sum(level_sum(np.arange(-u_max, u_max + h / 2, h))) * h)
    for _ in range(10):
        h *= 0.5
        # new nodes are the odd multiples of the halved step
        fresh = float(np.sum(level_sum(np.arange(-u_max + h, u_max, 2.0 * h))) * h)
        new_total = 0.5 * total + fresh
        if abs(new_total - total) <= tol * abs(new_total):
            return new_total
        total = new_total
    return total


def _head_w_integrand(p: float, extra_power: float = 0.0):
    """Integrand of integral_1^T t^extra (t^(p+1)-1)^(-1/2) dt after t = 1 + w^2."""
    pp1 = p + 1.0

    def f(w):
        w = np.asarray(w, dtype=float)
        t = 1.0 + w * w
        denom = np.sqrt(np.expm1(pp1 * np.log1p(w * w)))
        out = np.where(w > 0.0, 2.0 * w / np.where(denom > 0.0, denom, 1.0), 2.0 / math.sqrt(pp1))
        if extra_power != 0.0:
            out = out * t ** extra_power
        return out

    return f


def _power_tail(p: float, T: float, u_exponent: float, inner_power: float, tol: float) -> float:
    """integral_T^infinity t^a (1 - t^-(p+1))^c dt for a = -(u_exponent), via 1/t = z^beta.

    Written for integrands of the form t^m (t^(p+1)-1)^c: the caller passes
    u_exponent = -(m + c*(p+1)) - 2 offset already folded in; concretely this
    computes  beta * integral_0^(T^(-1/beta)) (1 - z^(beta(p+1)))^c dz  with
    beta = 1/(u_exponent + 1), which requires u_exponent > -1.
    """
    if u_exponent <= -1.0:
        raise ValueError("tail integral diverges")
    b = 1.0 / (u_exponent + 1.0)
    expo = b * (p + 1.0)
    upper = T ** (-1.0 / b)

    def f(z):
        z = np.asarray(z, dtype=float)
        return b * (1.0 - z ** expo) ** inner_power

    return midpoint_refine(f, 0.0, upper, tol=tol)


def profile_length_quadrature(p: float, tol: float = 1e-11) -> float:
    """L_p = integral_1^infinity dt / sqrt(t^(p+1) - 1), fully by quadrature."""
    T = 4.0
    head = midpoint_refine(_head_w_integrand(p), 0.0, math.sqrt(T - 1.0), tol=tol)
    # t^0 (t^(p+1)-1)^(-1/2): v-exponent (p-3)/2
    tail = _power_tail(p, T, (p - 3.0) / 2.0, -0.5, tol)
    return head + tail


def time_map_midpoint(p: float, y: float, tol: float = 1e-11) -> float:
    """T(y) by midpoint refinement on the substituted integrand."""
    if y <= 1.0:
        return 0.0
    return midpoint_refine(_head_w_integrand(p), 0.0, math.sqrt(y - 1.0), tol=tol)


def bisection_inverse(profile: Profile, z: float, iters: int = 120) -> float:
    """Invert the time map by pure bisection (independent of the Newton path)."""
    if z == 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while time_map(profile, hi) < z:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("bisection inverse failed to bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if time_map(profile, mid) < z:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# ODE integration oracle (Cash-Karp 5(4), adaptive steps)

_CK_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_CK_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0, 277.0 / 14336.0, 1.0 / 4.0)


def rk_profile(p: float, mu_p: float, x_end: float, rtol: float = 1e-11) -> tuple[float, float]:
    """Integrate U'' = U^p from (U, U')(0) = (mu_p, 0) to x_end.

    Returns (U(x_end), U'(x_end)).  Adaptive Cash-Karp 5(4) with a standard
    PI-free step controller; the solution grows steeply near the boundary so
    steps shrink automatically.
    """

    def rhs(state):
        u, v = state
        return np.array([v, u ** p])

    x = 0.0
    state = np.array([mu_p, 0.0])
    h = min(0.01, x_end if x_end > 0 else 0.01)
    if x_end == 0.0:
        return mu_p, 0.0
    safety = 0.9
    while x < x_end:
        h = min(h, x_end - x)
        k = [rhs(state)]
        for i in range(1, 6):
            incr = sum(a * ki for a, ki in zip(_CK_A[i], k))
            k.append(rhs(state + h * incr))
        y5 = state + h * sum(b * ki for b, ki in zip(_CK_B5, k))
        y4 = state + h * sum(b * ki for b, ki in zip(_CK_B4, k))
        scale = np.abs(y5) + np.abs(state) + 1e-300
        err = float(np.max(np.abs(y5 - y4) / scale))
        if err <= rtol:
            x += h
            state = y5
            if err > 0.0:
                h *= min(5.0, safety * (rtol / err) ** 0.2)
            else:
                h *= 5.0
        else:
            h *= max(0.1, safety * (rtol / err) ** 0.25)
        if h < 1e-15:
            raise RuntimeError("step size underflow in rk_profile")
    return float(state[0]), float(state[1])


# ----------------------------------------------------------------------
# t-space norm oracles (change of variables s = U(x), s = mu t)


def norm_quadrature(p: float, q: float, mu_p: float, n: int | None = None,
                    tol: float = 1e-10) -> float:
    """||U||_q by quadrature: ||U||_q^q = 2 sqrt((p+1)/2) mu^((2q-p+1)/2) * J,
    J = integral_1^infinity t^q (t^(p+1)-1)^(-1/2) dt, head/tail substituted.

    Pass n to force a fixed midpoint mesh (mesh-consistency checks); the
    default refines adaptively.
    """
    if q >= (p - 1.0) / 2.0 or q <= 0.0:
        raise ValueError("norm oracle requires 0 < q < (p-1)/2")
    T = 4.0
    head_f = _head_w_integrand(p, extra_power=q)
    W = math.sqrt(T - 1.0)
    # t^q (t^(p+1)-1)^(-1/2): v-exponent (p-3-2q)/2
    uexp = (p - 3.0 - 2.0 * q) / 2.0
    if n is None:
        head = midpoint_refine(head_f, 0.0, W, tol=tol)
        tail = _power_tail(p, T, uexp, -0.5, tol)
    else:
        head = midpoint_fixed(head_f, 0.0, W, n)
        b = 1.0 / (uexp + 1.0)
        expo = b * (p + 1.0)
        tail = midpoint_fixed(lambda z: b * (1.0 - np.asarray(z) ** expo) ** -0.5,
                              0.0, T ** (-1.0 / b), n)
    j = head + tail
    val_q = 2.0 * math.sqrt((p + 1.0) / 2.0) * mu_p ** ((2.0 * q - p + 1.0) / 2.0) * j
    return val_q ** (1.0 / q)


def deriv_norm_quadrature(p: float, r: float, mu_p: float, n: int | None = None,
                          tol: float = 1e-10) -> float:
    """||U'||_r by quadrature:
    ||U'||_r^r = 2 (2/(p+1))^((r-1)/2) mu^((r-1)(p+1)/2 + 1) * K,
    K = integral_1^infinity (t^(p+1)-1)^((r-1)/2) dt.

    Head substituted with t = 1 + w^gamma, gamma = 2/(r+1); tail with the
    power substitution.
    """
    if r >= (p - 1.0) / (p + 1.0) or r <= 0.0:
        raise ValueError("deriv norm oracle requires 0 < r < (p-1)/(p+1)")
    T = 4.0
    pp1 = p + 1.0
    c = (r - 1.0) / 2.0
    gamma = 2.0 / (r + 1.0)

    def head_f(w):
        w = np.asarray(w, dtype=float)
        tm1 = w ** gamma
        inner = np.expm1(pp1 * np.log1p(tm1))
        return gamma * w ** (gamma - 1.0) * inner ** c

    # (t^(p+1)-1)^((r-1)/2): v-exponent -(p+1)(r-1)/2 - 2
    uexp = -pp1 * c - 2.0
    W = (T - 1.0) ** (1.0 / gamma)
    if n is None:
        head = midpoint_refine(head_f, 0.0, W, tol=tol)
        tail = _power_tail(p, T, uexp, c, tol)
    else:
        head = midpoint_fixed(head_f, 0.0, W, n)
        b = 1.0 / (uexp + 1.0)
        expo = b * pp1
        tail = midpoint_fixed(lambda z: b * (1.0 - np.asarray(z) ** expo) ** c,
                              0.0, T ** (-1.0 / b), n)
    k = head + tail
    val_r = 2.0 * (2.0 / pp1) ** c * mu_p ** (c * pp1 + 1.0) * k
    return val_r ** (1.0 / r)


# ----------------------------------------------------------------------
# x-space norm oracles: pointwise profile values + analytic tail
#
# The tail uses U(x) ~ C (1-x)^(-2/(p-1)) with C fitted at x = 1 - delta;
# the relative error of that local power law is O(delta^(2(p+1)/(p-1))),
# far below the tail's own share of the integral.


def _fit_blowup_constant(profile: Profile, delta: float) -> float:
    return eval_U(profile, 1.0 - delta) * delta ** (2.0 / (profile.p - 1.0))


def norm_x_quadrature(profile: Profile, q: float, delta: float = 1e-6,
                      scale: float = 1.0, n_panels: int = 40) -> float:
    """||scale * U||_q via x-space quadrature on [0, 1-delta] plus analytic tail.

    Integrates in v with x = 1 - e^(-v), which grades the mesh geometrically
    toward the blow-up boundary.
    """
    p = profile.p
    sigma = 2.0 * q / (p - 1.0)
    if sigma >= 1.0:
        raise ValueError("q outside the integrability range")
    vmax = -math.log(delta)

    def f(v):
        x = -math.expm1(-v)
        return eval_U(profile, x) ** q * math.exp(-v)

    partial = gauss_panels(f, 0.0, vmax, n_panels=n_panels)
    C = _fit_blowup_constant(profile, delta)
    tail = C ** q * delta ** (1.0 - sigma) / (1.0 - sigma)
    return scale * (2.0 * (partial + tail)) ** (1.0 / q)


def _origin_kink_piece(g, r: float, x_hi: float, n_panels: int) -> float:
    """integral_0^x_hi g(x)^r dx for g vanishing linearly at 0.

    g^r has a fractional-power kink at the origin; x = x_hi * eta^(2/(1+r))
    turns it into an integrand vanishing linearly in eta.
    """
    gamma = 2.0 / (1.0 + r)

    def f(eta):
        x = x_hi * eta ** gamma
        return g(x) ** r * x_hi * gamma * eta ** (gamma - 1.0)

    return gauss_panels(f, 0.0, 1.0, n_panels=n_panels)


def deriv_norm_x_quadrature(profile: Profile, r: float, delta: float = 1e-6,
                            scale: float = 1.0, n_panels: int = 40) -> float:
    """||scale * U'||_r via x-space quadrature plus analytic tail.

    Split at x = 1/2: the origin piece desingularizes the |U'|^r ~ x^r kink,
    the boundary piece integrates in v with x = 1 - e^(-v) (geometric mesh
    grading toward the blow-up), and the region beyond 1 - delta uses the
    fitted power-law tail.
    """
    p = profile.p
    sigma = r * (p + 1.0) / (p - 1.0)
    if sigma >= 1.0:
        raise ValueError("r outside the integrability range")

    head = _origin_kink_piece(lambda x: eval_U_prime(profile, x), r, 0.5, n_panels)

    vmax = -math.log(delta)

    def f(v):
        x = -math.expm1(-v)
        return eval_U_prime(profile, x) ** r * math.exp(-v)

    body = gauss_panels(f, math.log(2.0), vmax, n_panels=n_panels)
    C = _fit_blowup_constant(profile, delta)
    amp = (2.0 / (p + 1.0)) ** (r / 2.0) * C ** (r * (p + 1.0) / 2.0)
    tail = amp * delta ** (1.0 - sigma) / (1.0 - sigma)
    return scale * (2.0 * (head + body + tail)) ** (1.0 / r)


def exp_deriv_norm_x_quadrature(r: float, n_panels: int = 40) -> float:
    """||pi tan(pi x / 2)||_r over (-1, 1) by x-space quadrature.

    Origin piece as in the power case; boundary piece with x = 1 - w^beta,
    beta = 2/(1-r), which makes the integrand vanish linearly at w = 0 for
    every r in (0, 1).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("requires 0 < r < 1")

    def g(x):
        return math.pi * math.tan(0.5 * math.pi * x)

    head = _origin_kink_piece(g, r, 0.5, n_panels)

    b = 2.0 / (1.0 - r)

    def f(w):
        # pi tan(pi x / 2) = pi cot(pi y / 2) with y = 1 - x = w^b evaluated
        # directly in w; forming 1 - w^b first would round the tan argument
        # onto pi/2 and destroy the value
        y = w ** b
        return (math.pi / math.tan(0.5 * math.pi * y)) ** r * b * w ** (b - 1.0)

    body = gauss_panels(f, 0.0, 0.5 ** (1.0 / b), n_panels=n_panels)
    return (2.0 * (head + body)) ** (1.0 / r)
