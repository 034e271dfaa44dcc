"""Seeded request streams, one per workload.

Each stream is an endless iterator of CLI argv lists; the same seed gives
the same argvs.  Requests come in blocks of eight in which the request
kinds appear in fixed proportions, in a seeded order, and the benchmark
runs whole blocks.  Each kind draws p from its own stratified sequence:
eight successive draws take one value from each eighth of [2, 8].
Stratifying this way keeps the per-run mix the same from seed to seed, so
run-to-run spread comes from the program, not from a lucky draw of cheap
requests.

Every request gets a fresh p, so the profile cache of the package starts
cold on each request, as it does in a real one-shot CLI process.  The
other exponents sit at seeded fractions in [0.2, 0.8] of their admissible
ranges.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

import reference

BLOCK = 8
P_RANGE = (2.0, 8.0)
FRACTION_RANGE = (0.2, 0.8)
LAMBDA_N = 41
GRID_N = 2001

# lambda keeps at least this factor away from every analytic threshold in
# the roots stream, so the analytic count is unambiguous
THRESHOLD_GAP = 1.25

def _fmt(x: float) -> str:
    return repr(float(x))


class _Draw:
    """Seeded draws shared by the streams."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self._p_strata: dict[str, list[int]] = {}
        self._seen_p: set[float] = set()
        self._formats: dict[str, int] = {}

    def p(self, kind: str) -> float:
        while True:
            strata = self._p_strata.setdefault(kind, [])
            if not strata:
                strata += self.rng.sample(range(BLOCK), BLOCK)
            k = strata.pop()
            lo, hi = P_RANGE
            p = lo + (hi - lo) * (k + self.rng.random()) / BLOCK
            if p not in self._seen_p:
                self._seen_p.add(p)
                return p

    def format(self, kind: str) -> str:
        """CSV and JSON in turn for each kind, from a seeded start."""
        n = self._formats.get(kind)
        n = self.rng.randrange(2) if n is None else n + 1
        self._formats[kind] = n
        return ("csv", "json")[n % 2]

    def exponents(self, p: float) -> tuple[float, float, float, float]:
        qb = (p - 1.0) / 2.0
        rb = (p - 1.0) / (p + 1.0)
        lo, hi = FRACTION_RANGE
        return tuple(self.rng.uniform(lo, hi) * bound for bound in (qb, qb, rb, rb))

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def block(self, kinds: list) -> list:
        return self.rng.sample(kinds, len(kinds))


def _problem_args(p: float, ex: tuple[float, ...]) -> list[str]:
    out = ["--p", _fmt(p)]
    for name, value in zip(("q1", "q2", "r1", "r2"), ex):
        out += [f"--{name}", _fmt(value)]
    return out


def _param_args(params: dict[str, float]) -> list[str]:
    out: list[str] = []
    for name in sorted(params):
        out += ["--param", f"{name}={_fmt(params[name])}"]
    return out


def _cor2_params(d: _Draw, two_root_band: bool) -> dict[str, float]:
    if two_root_band:
        # a^2 / b >= 1 keeps the two-root band at least a factor 2 wide
        return {"a": d.rng.uniform(1.0, 2.0), "b": d.rng.uniform(0.5, 1.0)}
    return {"a": d.rng.uniform(0.5, 2.0), "b": d.rng.uniform(0.5, 2.0)}


def _lambda_away(d: _Draw, ths: list[float]) -> float:
    lo, hi = ths[0] / 20.0, ths[-1] * 20.0
    while True:
        lam = d.log_uniform(lo, hi)
        if all(max(lam / t, t / lam) >= THRESHOLD_GAP for t in ths):
            return lam


def window_args(name: str, nq: tuple[float, float, float, float]) -> list[str]:
    """A scan window that holds every analytic root of the request.

    The CLI default (1e-6, 1e6) * n1 misses roots for p near 2, where n1 is
    large.  The cor1 and cor2 roots scale with n1 / m1: at
    lambda = (1 + eps) * threshold the cor1 root sits near n1 / (m1 eps) and
    the smaller cor2 root at the upper threshold near eps * n1 / m1, so these
    windows also keep every count change within 1e-9 of its threshold.  The
    cor4 roots do not scale, and the cor3 band fills any window.
    """
    scale = nq[0] / nq[2]
    lo, hi = {"cor1": (1e-6 * scale, 1e12 * scale), "cor2": (1e-12 * scale, 1e6 * scale),
              "cor4": (1e-6, 1e6)}.get(name, (None, None))
    return [] if lo is None else ["--window", _fmt(lo), _fmt(hi)]


def roots_stream(seed: int) -> Iterator[list[str]]:
    """Single-lambda ``roots`` requests on custom DSL coefficients.

    Six in eight requests put lambda a factor >= 1.25 away from every
    threshold; two in eight sit exactly at the cor2 / cor4 tangency.
    """
    d = _Draw("roots", seed)
    while True:
        kinds = ["cor1", "cor1", "cor2", "cor2", "cor4", "cor4", "cor2@tangent", "cor4@tangent"]
        for kind in d.block(kinds):
            name, _, where = kind.partition("@")
            p = d.p(kind)
            ex = d.exponents(p)
            params = _cor2_params(d, False) if name == "cor2" else {}
            nq = reference.norms(p, *ex)
            ths = reference.thresholds(name, p, nq, params)
            lam = ths[0] if where == "tangent" else _lambda_away(d, ths)
            A, B = reference.CATALOG[name]
            yield (["roots"] + _problem_args(p, ex) + ["--A", A, "--B", B]
                   + _param_args(params) + window_args(name, nq)
                   + ["--lambda", _fmt(lam), "--format", d.format(kind)])


def sweep_stream(seed: int) -> Iterator[list[str]]:
    """41-point lambda sweeps whose range covers every analytic threshold.

    Sweeps cost cor4 < cor1 < cor2 < cor3.  The mix 1:2:3:2 puts the median
    request inside the cor2 group and the 90th percentile inside the cor3
    group, rather than on a boundary between groups, where it would jump
    from run to run.
    """
    d = _Draw("sweep", seed)
    while True:
        for name in d.block(["cor4", "cor1", "cor1", "cor2", "cor2", "cor2", "cor3", "cor3"]):
            p = d.p(name)
            ex = d.exponents(p)
            nq = reference.norms(p, *ex)
            params = _cor2_params(d, False) if name == "cor2" else {}
            ths = reference.thresholds(name, p, nq, params)
            # a fixed factor 2 beyond the outer thresholds keeps the share of
            # the grid inside the cor3 band, and so the cost of a sweep, steady
            lo, hi = ths[0] / 2.0, ths[-1] * 2.0
            yield (["sweep", "--scenario", name] + _problem_args(p, ex) + _param_args(params)
                   + window_args(name, nq)
                   + ["--lambda-min", _fmt(lo), "--lambda-max", _fmt(hi),
                      "--lambda-n", str(LAMBDA_N), "--format", d.format(name)])


def profile_stream(seed: int) -> Iterator[list[str]]:
    """``eval --grid-n 2001`` on a root of a fresh cor2 / cor4 problem, and
    one in four requests ``exp --grid-n 2001``."""
    d = _Draw("profile", seed)
    while True:
        for kind in d.block(["cor2", "cor2", "cor2", "cor4", "cor4", "cor4", "exp", "exp"]):
            delta = d.log_uniform(1e-4, 1e-2)
            tail = ["--grid-n", str(GRID_N), "--delta", _fmt(delta), "--format", d.format(kind)]
            if kind == "exp":
                params = {"a": d.rng.uniform(0.5, 2.0), "b": d.rng.uniform(0.5, 2.0)}
                yield (["exp", "--r1", _fmt(d.rng.uniform(0.2, 0.8)),
                        "--r2", _fmt(d.rng.uniform(0.2, 0.8)), "--A", "a+t", "--B", "b+t"]
                       + _param_args(params)
                       + ["--lambda", _fmt(d.log_uniform(0.1, 100.0))] + tail)
                continue
            p = d.p(kind)
            ex = d.exponents(p)
            params = _cor2_params(d, True) if kind == "cor2" else {}
            nq = reference.norms(p, *ex)
            ths = reference.thresholds(kind, p, nq, params)
            if kind == "cor2":
                lam = d.log_uniform(ths[0] * THRESHOLD_GAP, ths[1] / THRESHOLD_GAP)
            else:
                lam = d.log_uniform(ths[0] * THRESHOLD_GAP, ths[0] * 20.0)
            yield (["eval", "--scenario", kind] + _problem_args(p, ex) + _param_args(params)
                   + window_args(kind, nq)
                   + ["--lambda", _fmt(lam), "--root-index", str(d.rng.randrange(2))] + tail)


def verify_stream(seed: int) -> Iterator[list[str]]:
    """The oracle suite for one fresh p per request."""
    d = _Draw("verify", seed)
    while True:
        yield ["verify", "--ps", _fmt(d.p("verify"))]


STREAMS = {
    "roots": roots_stream,
    "sweep": sweep_stream,
    "profile": profile_stream,
    "verify": verify_stream,
}
WORKLOADS = tuple(STREAMS)


def stream(workload: str, seed: int) -> Iterator[list[str]]:
    if workload not in STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return STREAMS[workload](seed)
