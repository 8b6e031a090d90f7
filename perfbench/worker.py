"""One workload iteration in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --result FILE
                                [--trace] [--setup-only] [--small]

Writes a JSON result to FILE.  ``setup_done`` is a ``time.monotonic()``
stamp, a system-wide clock on Linux, so the parent subtracts its own stamp
taken just before it started this process to get the set-up time.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import qpjumps

    if not os.path.abspath(qpjumps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qpjumps imported from {qpjumps.__file__}, not {SRC}")
    import spans
    import workloads

    job = workloads.prepare(args.workload, args.seed, args.out, args.small)
    result = {"setup_done": time.monotonic()}
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        error = None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            workloads.execute(job, tracer)
        except Exception:  # reported as a failed operation, not a crash
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
        checks = []
        if error is None:
            try:
                checks = workloads.check(job)
            except Exception:
                error = traceback.format_exc()
        result.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": (spans.peak_rss_mb(resource.RUSAGE_SELF)
                            + spans.peak_rss_mb(resource.RUSAGE_CHILDREN)),
            "output_mb": workloads.data_bytes(args.out) / spans.MB,
            "operations": job.operations,
            "failed_operations": job.failed_operations,
            "error": error,
            "checks": checks,
            "counts": job.counts,
            "hashes": workloads.data_files(args.out),
        })
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
