"""Closed forms the benchmark computes without importing the package.

The request generator needs the profile norms to place lambda relative to
the analytic thresholds, and the ``exp`` checker needs the exponential-case
solution.  Both are written here from the formulas in the package
docstrings, with ``math.lgamma`` in place of the package's own log-Gamma,
so that the generated inputs stay the same whatever the package does to
its internals, and so that the ``exp`` reference shares no code with the
implementation it checks.
"""

from __future__ import annotations

import math

CATALOG = {
    "cor1": ("s^(p-1)*(1+t)", "s+t"),
    "cor2": ("s^p*((t-a)^2+b)", "s+t"),
    "cor3": ("2+sin(s)", "t^(1-p)"),
    "cor4": ("exp(s)", "1"),
}


def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def norms(p: float, q1: float, q2: float, r1: float, r2: float) -> tuple[float, float, float, float]:
    """(||U||_q1, ||U||_q2, ||U'||_r1, ||U'||_r2) of the blow-up profile."""
    pp1 = p + 1.0
    log_L = _log_beta((p - 1.0) / (2.0 * pp1), 0.5) - math.log(pp1)
    log_mu = (2.0 / (p - 1.0)) * (0.5 * math.log(pp1 / 2.0) + log_L)

    def norm_u(q: float) -> float:
        log_val = (0.5 * math.log(2.0 / pp1) + (2.0 * q - p + 1.0) / 2.0 * log_mu
                   + _log_beta((p - 2.0 * q - 1.0) / (2.0 * pp1), 0.5))
        return math.exp(log_val / q)

    def norm_du(r: float) -> float:
        log_val = ((r + 1.0) / 2.0 * math.log(2.0 / pp1) + (pp1 * (r - 1.0) / 2.0 + 1.0) * log_mu
                   + _log_beta(((1.0 - r) * pp1 - 2.0) / (2.0 * pp1), (r + 1.0) / 2.0))
        return math.exp(log_val / r)

    return norm_u(q1), norm_u(q2), norm_du(r1), norm_du(r2)


def thresholds(name: str, p: float, nq: tuple[float, float, float, float],
               params: dict[str, float]) -> list[float]:
    """Analytic count-change thresholds in lambda, ascending."""
    n1, n2, m1, m2 = nq
    if name == "cor1":
        return [n1 ** (p - 1.0) * m1 / (n2 + m2)]
    if name == "cor2":
        base = n1 ** p / (n2 + m2)
        return [params["b"] * base, (params["a"] ** 2 + params["b"]) * base]
    if name == "cor3":
        return [m2 ** (p - 1.0), 3.0 * m2 ** (p - 1.0)]
    if name == "cor4":
        return [(math.e / (p - 1.0)) ** (p - 1.0) * n1 ** (p - 1.0)]
    raise ValueError(f"unknown scenario {name!r}")


def exp_deriv_norm(r: float) -> float:
    """||U'||_r = (2 pi^(r-1) B((1-r)/2, (r+1)/2))^(1/r) for the e^u profile."""
    return math.exp((math.log(2.0) + (r - 1.0) * math.log(math.pi)
                     + _log_beta((1.0 - r) / 2.0, (r + 1.0) / 2.0)) / r)
