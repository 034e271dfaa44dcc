"""In-memory span recorder patched around the package's layer boundaries.

Modules of the package import each other's functions by name (``cli``
holds its own ``solve_single``, ``bifurcation`` its own ``eval_U``,
``timemap`` its own ``quad``), so a wrapper must replace a function at
every binding in every loaded ``blowup.*`` namespace, not only where it is
defined.  A target missing from the package is skipped and reported as
absent, so a later change that deletes a function still gets a trace.

A span is (id, name, start, end, parent id, request id).  Totals per span
name (calls, inclusive time, self time) are kept as spans close; the raw
spans are kept up to ``max_spans`` and written out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute).  The span name is "<layer>.<role>".
TARGETS = (
    ("cli.emit", "blowup.cli", "_emit_sample"),
    ("cli.emit", "blowup.cli", "_emit_json"),
    ("cli.emit", "blowup.cli", "_csv_lines"),
    ("cli.emit", "blowup.cli", "_emit"),
    ("norms.table", "blowup.norms", "make_norm_table"),
    ("exprdsl.parse", "blowup.exprdsl", "parse"),
    ("exprdsl.eval_scalar", "blowup.exprdsl", "eval_expr"),
    ("exprdsl.eval_array", "blowup.exprdsl", "eval_array"),
    ("bifurcation.solve", "blowup.bifurcation", "solve_single"),
    ("bifurcation.g_array", "blowup.bifurcation", "_g_array"),
    ("bifurcation.g_scalar", "blowup.bifurcation", "g_of_s"),
    ("bifurcation.positivity", "blowup.bifurcation", "_scan_positive"),
    ("bifurcation.brent", "blowup.bifurcation", "_refine_bracket"),
    ("bifurcation.golden", "blowup.bifurcation", "_golden_min"),
    ("bifurcation.threshold", "blowup.bifurcation", "_locate_threshold"),
    ("bifurcation.reconstruct", "blowup.bifurcation", "reconstruct"),
    ("timemap.inverse", "blowup.timemap", "time_map_inverse"),
    ("timemap.forward", "blowup.timemap", "time_map"),
    ("timemap.quad", "blowup.timemap", "quad"),
    ("timemap.eval", "blowup.timemap", "eval_U"),
    ("timemap.eval", "blowup.timemap", "eval_U_prime"),
    ("expcase.solve", "blowup.expcase", "solve_exp"),
    ("scenarios.check", "blowup.scenarios", "check_scenario"),
    ("verify.profile_checks", "blowup.verify", "_profile_checks"),
    ("verify.norm_checks", "blowup.verify", "_norm_checks"),
    ("verify.scenario_checks", "blowup.verify", "_scenario_checks"),
    ("verify.exp_checks", "blowup.verify", "_exp_checks"),
)

# every public function of the oracle module is one "oracles" span
ORACLE_MODULE = "blowup.oracles"


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.active = False
        self.request = -1
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name: str, fn):
        on_call = _ON_CALL.get(name)
        on_return = _ON_RETURN.get(name)
        stack, spans, cap = self._stack, self.spans, self.max_spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer)
            frame = [name, 0.0, tracer._next_id]  # name, time in child spans, span id
            tracer._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(spans) < cap:
                    spans.append((frame[2], name, start, end,
                                  parent[2] if parent else None, tracer.request))
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target at every binding in the loaded blowup modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "blowup" or n.startswith("blowup."))]
        targets = list(TARGETS)
        oracles = sys.modules.get(ORACLE_MODULE)
        if oracles is None:
            self.absent.append(ORACLE_MODULE)
        else:
            targets += [("oracles", ORACLE_MODULE, attr) for attr in getattr(oracles, "__all__", ())]
        for name, module_name, attr in targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _count_threshold_solve(tracer: Tracer) -> None:
    if tracer.inside("bifurcation.threshold"):
        tracer.count("bifurcation.threshold_solves")


def _count_oracle_entry(tracer: Tracer) -> None:
    if not tracer.inside("oracles"):
        tracer.count("oracles.calls")


def _count_points(tracer: Tracer, result) -> None:
    tracer.count("exprdsl.eval_array_points", float(result.size))


def _count_roots(tracer: Tracer, result) -> None:
    tracer.count("bifurcation.roots_found", float(len(result.roots)))


_ON_CALL = {"bifurcation.solve": _count_threshold_solve, "oracles": _count_oracle_entry}
_ON_RETURN = {"exprdsl.eval_array": _count_points, "bifurcation.solve": _count_roots}
