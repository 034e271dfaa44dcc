"""Child process of the benchmark: one cold interpreter per call.

    worker.py import                       time a cold ``import blowup.cli``
    worker.py probe [--defects]            golden corpus (and defect probe)
    worker.py run WORKLOAD SEED LIMIT [--count] [--trace FILE]

Each timed import sits between two runs of a fixed calibration kernel.
``run`` times its own cold import, then sends the workload's requests to
``blowup.cli.main`` one after another (a closed loop with one client) in
whole blocks of the stream until LIMIT seconds of request time have
passed, or, with ``--count``, until LIMIT requests have run.  Each
request's output is captured and checked after its timer stops.  Before
the first request and after each one, untimed, a fixed calibration
kernel runs; its times measure how fast the machine ran around each
request.  The last line of stdout is a JSON summary.
"""

import sys
import time


def import_kernel() -> float:
    """Fixed interpreted float arithmetic; returns its wall time.  It needs
    no import, so it can bracket the timed import."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(5_000):
        total += (i % 7) * 0.5
    return time.perf_counter() - t0


_k0 = import_kernel()
_t0 = time.perf_counter()
import blowup.cli  # noqa: E402  (the timed cold import)

SETUP_S = time.perf_counter() - _t0
SETUP_KERNELS = (_k0, import_kernel())

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

# Peak RSS is read after this many requests, a fixed amount of work, so a
# faster program that fits more requests into a run does not read higher
# merely because the package's profile cache grew further.
RSS_AFTER = {"roots": 400, "sweep": 10, "profile": 40, "verify": 12}

MAX_FAILURE_NOTES = 5


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def request_kernel() -> float:
    """Fixed interpreted float arithmetic and small numpy calls, the mix the
    package's requests spend their time in; returns its wall time.  (A
    kernel without the numpy part tracked the sweep workload worse: over
    ten seeds, req_p50_ms spread 0.065 against 0.040 and 0.014 with it.)"""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(4_000):
        total += (i % 7) * 0.5
    a = np.arange(64.0)
    for _ in range(10):
        a = np.sqrt(a + total)
    return time.perf_counter() - t0


def _lambdas(argv: list[str]) -> int:
    if argv[0] == "sweep":
        return int(argv[argv.index("--lambda-n") + 1])
    return 1 if argv[0] in ("roots", "eval") else 0


def _cache_info():
    cached = getattr(sys.modules["blowup.timemap"], "_y_at", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def run(workload: str, seed: int, limit: float, by_count: bool, trace_file: str | None) -> dict:
    tracer = None
    if trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    main = blowup.cli.main
    stream = workloads.stream(workload, seed)
    times: list[float] = []
    failures: list[str] = []
    failed = lambdas = out_bytes = failed_checks = 0
    cache_hits = cache_misses = 0
    rss = None
    busy = 0.0
    kernels = [request_kernel()]
    done = False
    while not done:
        argv = next(stream)
        before = _cache_info() if tracer else None
        if tracer:
            tracer.request = len(times)
            tracer.active = True
        t0 = time.perf_counter()
        code, out, err, exc = probes.run_cli(main, argv)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
            after = _cache_info()
            if before and after:
                cache_hits += after.hits - before.hits
                cache_misses += after.misses - before.misses
        times.append(elapsed)
        busy += elapsed
        why = f"raised {type(exc).__name__}: {exc}" if exc is not None else checks.check(argv, code, out)
        if why is not None:
            failed += 1
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{' '.join(argv)} -> {why}")
        lambdas += _lambdas(argv)
        out_bytes += len(out.encode("utf-8"))
        failed_checks += sum(1 for line in out.splitlines() if line.startswith("FAIL  "))
        if len(times) == RSS_AFTER[workload]:
            rss = _rss_mb()
        kernels.append(request_kernel())
        if by_count:
            done = len(times) >= limit
        else:
            done = busy >= limit and len(times) % workloads.BLOCK == 0
    result = {
        "setup_s": SETUP_S, "setup_kernels": SETUP_KERNELS,
        "times": times, "kernels": kernels, "busy_s": busy,
        "failed": failed, "failures": failures,
        "peak_rss_mb": rss if rss is not None else _rss_mb(),
        "rss_after": min(len(times), RSS_AFTER[workload]),
        "lambdas": lambdas, "out_bytes": out_bytes, "verify_failed_checks": failed_checks,
    }
    if tracer:
        tracer.write(trace_file)
        result["trace"] = {"totals": tracer.totals, "counters": tracer.counters,
                           "absent": tracer.absent, "cache_hits": cache_hits,
                           "cache_misses": cache_misses,
                           "cache_present": _cache_info() is not None}
    return result


def probe(defects: bool) -> dict:
    main = blowup.cli.main
    result = {"golden_differ": probes.golden_diff(main), "golden_total": len(probes.GOLDEN)}
    if defects:
        result["defects"] = probes.defect_probe(main)
    return result


def _main(args: list[str]) -> dict:
    if args == ["import"]:
        return {"setup_s": SETUP_S, "setup_kernels": SETUP_KERNELS}
    if args and args[0] == "probe":
        return probe("--defects" in args[1:])
    if len(args) >= 4 and args[0] == "run":
        workload, seed, limit = args[1], int(args[2]), float(args[3])
        trace_file = args[args.index("--trace") + 1] if "--trace" in args else None
        return run(workload, seed, limit, "--count" in args, trace_file)
    raise SystemExit(__doc__)


if __name__ == "__main__":
    print(json.dumps(_main(sys.argv[1:])))
