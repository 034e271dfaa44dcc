"""Closed-form Lebesgue norms of the blow-up profile and its derivative.

With mu = mu_p and B the Beta function,

    ||U||_q^q  = sqrt(2/(p+1)) * mu^((2q-p+1)/2) * B((p-2q-1)/(2(p+1)), 1/2),
    ||U'||_r^r = (2/(p+1))^((r+1)/2) * mu^((p+1)(r-1)/2 + 1)
                 * B(((1-r)(p+1)-2)/(2(p+1)), (r+1)/2),

finite exactly when 0 < q < (p-1)/2 and 0 < r < (p-1)/(p+1) (both Beta first
arguments turn nonpositive at the boundary, where the norms diverge).  The
functions below return the plain norms ||.|| (the 1/q and 1/r powers are
already applied): the scalar reduction of the nonlocal problem consumes
plain norms, not their q-th powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import beta
from .timemap import make_profile

__all__ = [
    "NormTable",
    "ExponentError",
    "validate_exponents",
    "norm_U",
    "norm_U_prime",
    "make_norm_table",
]


class ExponentError(ValueError):
    """Raised when the integrability assumption on the exponents fails."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class NormTable:
    """The four profile norms entering the scalar reduction, plus mu_p, L_p.

    Entries are plain norms: n_q1 = ||U||_q1, n_q2 = ||U||_q2,
    m_r1 = ||U'||_r1, m_r2 = ||U'||_r2.
    """

    p: float
    q1: float
    q2: float
    r1: float
    r2: float
    n_q1: float
    n_q2: float
    m_r1: float
    m_r2: float
    mu_p: float
    L_p: float


def validate_exponents(p: float, q1: float, q2: float, r1: float, r2: float) -> list[str]:
    """Check the strict integrability bounds; returns a list of violations.

    An empty list means the exponents are admissible.  Each entry names the
    violated bound, e.g. "q1 = 1.0 violates q1 < (p-1)/2 = 1.0".  Requires
    p > 1 (raises ValueError otherwise, since no bound is even defined).
    """
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"exponent p must satisfy p > 1, got {p!r}")
    q_bound = (p - 1.0) / 2.0
    r_bound = (p - 1.0) / (p + 1.0)
    violations = []
    for name, value in (("q1", q1), ("q2", q2)):
        if not math.isfinite(value) or value <= 0.0:
            violations.append(f"{name} = {value!r} violates {name} > 0")
        elif value >= q_bound:
            violations.append(f"{name} = {value!r} violates {name} < (p-1)/2 = {q_bound!r}")
    for name, value in (("r1", r1), ("r2", r2)):
        if not math.isfinite(value) or value <= 0.0:
            violations.append(f"{name} = {value!r} violates {name} > 0")
        elif value >= r_bound:
            violations.append(f"{name} = {value!r} violates {name} < (p-1)/(p+1) = {r_bound!r}")
    return violations


def _require(p: float, name: str, value: float, bound: float, bound_text: str) -> None:
    if not math.isfinite(p) or p <= 1.0:
        raise ValueError(f"exponent p must satisfy p > 1, got {p!r}")
    if not math.isfinite(value) or value <= 0.0:
        raise ExponentError([f"{name} = {value!r} violates {name} > 0"])
    if value >= bound:
        raise ExponentError([f"{name} = {value!r} violates {name} < {bound_text} = {bound!r}"])


def norm_U(p: float, q: float, mu_p: float | None = None) -> float:
    """||U||_q from the closed form; requires 0 < q < (p-1)/2."""
    _require(p, "q", q, (p - 1.0) / 2.0, "(p-1)/2")
    if mu_p is None:
        mu_p = make_profile(p).mu_p
    try:
        val_q = (
            math.sqrt(2.0 / (p + 1.0))
            * mu_p ** ((2.0 * q - p + 1.0) / 2.0)
            * beta((p - 2.0 * q - 1.0) / (2.0 * (p + 1.0)), 0.5)
        )
        return val_q ** (1.0 / q)
    except OverflowError:
        raise OverflowError(f"norm ||U||_q exceeds the largest double at p = {p!r}, q = {q!r}") from None


def norm_U_prime(p: float, r: float, mu_p: float | None = None) -> float:
    """||U'||_r from the closed form; requires 0 < r < (p-1)/(p+1)."""
    _require(p, "r", r, (p - 1.0) / (p + 1.0), "(p-1)/(p+1)")
    if mu_p is None:
        mu_p = make_profile(p).mu_p
    pp1 = p + 1.0
    try:
        val_r = (
            (2.0 / pp1) ** ((r + 1.0) / 2.0)
            * mu_p ** (pp1 * (r - 1.0) / 2.0 + 1.0)
            * beta(((1.0 - r) * pp1 - 2.0) / (2.0 * pp1), (r + 1.0) / 2.0)
        )
        return val_r ** (1.0 / r)
    except OverflowError:
        raise OverflowError(f"norm ||U'||_r exceeds the largest double at p = {p!r}, r = {r!r}") from None


def make_norm_table(p: float, q1: float, q2: float, r1: float, r2: float) -> NormTable:
    """Assemble the NormTable; raises ExponentError listing every violated bound."""
    violations = validate_exponents(p, q1, q2, r1, r2)
    if violations:
        raise ExponentError(violations)
    profile = make_profile(p)
    mu = profile.mu_p
    return NormTable(
        p=p, q1=q1, q2=q2, r1=r1, r2=r2,
        n_q1=norm_U(p, q1, mu),
        n_q2=norm_U(p, q2, mu),
        m_r1=norm_U_prime(p, r1, mu),
        m_r2=norm_U_prime(p, r2, mu),
        mu_p=mu,
        L_p=profile.L_p,
    )
