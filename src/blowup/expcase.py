"""Exponential nonlinearity: A(||u'||_r1) u'' = lambda B(||u'||_r2) e^u.

The local model U'' = lambda e^U with boundary blow-up on (-1, 1) has the
explicit solution

    U(x)  = log(pi^2 / (2 lambda)) - 2 log(cos(pi x / 2)),
    U'(x) = pi tan(pi x / 2)                  (lambda-independent),
    ||U'||_r^r = 2 pi^(r-1) B((1-r)/2, (r+1)/2),   finite iff 0 < r < 1.

The nonlocal problem is solved by a plain shift: for every lambda > 0 its
unique solution is

    u(x) = U(x) - log( B(||U'||_r2) / A(||U'||_r1) ),

because shifting changes neither u' nor its norms, and u'' = lambda e^(U)
picks up exactly the factor A/B: A u'' = lambda B e^u.  The shift is
lambda-free; equivalently u equals the lambda = 1 profile minus
log(lambda B / A).  Coefficients here are
one-variable expressions in t (the derivative norm); mentioning s is a
validation error since the problem has no ||u||_q dependence.  Note u may
change sign: U(0) = log(pi^2/(2 lambda)) is negative for lambda > pi^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprdsl import CoeffExpr, EvalError, check_param_values, eval_expr, parse
from .specfun import beta
from .timemap import ProfileSample, symmetric_grid

__all__ = [
    "ExpProfile",
    "ExpProblemSpec",
    "ExpSolution",
    "make_exp_profile",
    "eval_U_lambda",
    "eval_U_lambda_prime",
    "exp_prime_norm",
    "make_exp_problem_spec",
    "solve_exp",
]


@dataclass(frozen=True)
class ExpProfile:
    lam: float
    mu_lambda: float


@dataclass(frozen=True)
class ExpProblemSpec:
    r1: float
    r2: float
    A: CoeffExpr
    B: CoeffExpr
    lam: float
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExpSolution:
    sample: ProfileSample
    shift: float
    lam: float
    deriv_norm_r1: float
    deriv_norm_r2: float


def make_exp_profile(lam: float) -> ExpProfile:
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return ExpProfile(lam=float(lam), mu_lambda=math.log(math.pi ** 2 / (2.0 * lam)))


def eval_U_lambda(profile: ExpProfile, x: float) -> float:
    """U(x) = mu_lambda - 2 log(cos(pi x / 2)); even, minimum at x = 0."""
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"evaluation requires |x| < 1, got {x!r}")
    return profile.mu_lambda - 2.0 * math.log(math.cos(0.5 * math.pi * x))


def eval_U_lambda_prime(profile: ExpProfile, x: float) -> float:
    """U'(x) = pi tan(pi x / 2); odd and independent of lambda."""
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise ValueError(f"evaluation requires |x| < 1, got {x!r}")
    return math.pi * math.tan(0.5 * math.pi * x)


def exp_prime_norm(r: float) -> float:
    """||U'||_r = (2 pi^(r-1) B((1-r)/2, (r+1)/2))^(1/r), for 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"derivative norm requires 0 < r < 1, got {r!r}")
    val_r = 2.0 * math.pi ** (r - 1.0) * beta((1.0 - r) / 2.0, (r + 1.0) / 2.0)
    return val_r ** (1.0 / r)


def make_exp_problem_spec(r1: float, r2: float, A: str | CoeffExpr, B: str | CoeffExpr,
                          lam: float, params: dict[str, float] | None = None) -> ExpProblemSpec:
    """Validate the exponential-case instance: 0 < r1, r2 < 1 strictly,
    finite parameter values, and coefficients may reference only t (the
    derivative norm) and parameters."""
    for name, value in (("r1", r1), ("r2", r2)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} = {value!r} violates 0 < {name} < 1")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    params = dict(params or {})
    check_param_values(params)
    A = parse(A) if isinstance(A, str) else A
    B = parse(B) if isinstance(B, str) else B
    for label, expr in (("A", A), ("B", B)):
        if "s" in expr.free_names():
            raise ValueError(
                f"coefficient {label} mentions 's'; the exponential case has no "
                "solution-norm argument, use the single variable 't'")
        unbound = [n for n in expr.free_parameters() if n not in params and n != "t"]
        if unbound:
            raise ValueError(f"coefficient {label} has unbound parameters: {sorted(unbound)}")
    return ExpProblemSpec(r1=float(r1), r2=float(r2), A=A, B=B, lam=float(lam), params=params)


def solve_exp(spec: ExpProblemSpec, grid=None, n: int = 201, delta: float = 1e-3) -> ExpSolution:
    """The unique solution u = U - log(B(||U'||_r2) / A(||U'||_r1)).

    Returns the sampled solution together with the scalar shift; there is
    always exactly one solution.  Coefficient evaluation failures propagate
    with the norm argument attached.  (Direct substitution fixes the shift:
    u'' = lambda e^(u + shift), so A u'' = lambda B e^u forces
    shift = log(B/A), with no lambda inside the logarithm.)
    """
    profile = make_exp_profile(spec.lam)
    t1 = exp_prime_norm(spec.r1)
    t2 = exp_prime_norm(spec.r2)
    try:
        a_val = eval_expr(spec.A, None, t1, spec.params)
    except EvalError as exc:
        raise ValueError(f"coefficient A failed at t = ||u'||_r1 = {t1!r}: {exc}") from exc
    try:
        b_val = eval_expr(spec.B, None, t2, spec.params)
    except EvalError as exc:
        raise ValueError(f"coefficient B failed at t = ||u'||_r2 = {t2!r}: {exc}") from exc
    if a_val <= 0.0:
        raise ValueError(f"coefficient A nonpositive ({a_val!r}) at t = {t1!r}")
    if b_val <= 0.0:
        raise ValueError(f"coefficient B nonpositive ({b_val!r}) at t = {t2!r}")
    shift = math.log(b_val / a_val)
    if grid is None:
        grid = symmetric_grid(n, delta)
    grid = np.asarray(grid, dtype=float)
    values = np.array([eval_U_lambda(profile, x) - shift for x in grid])
    derivs = np.array([eval_U_lambda_prime(profile, x) for x in grid])
    sample = ProfileSample(grid=grid, values=values, derivs=derivs, delta=float(delta))
    return ExpSolution(sample=sample, shift=shift, lam=spec.lam,
                       deriv_norm_r1=t1, deriv_norm_r2=t2)
