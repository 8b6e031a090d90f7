"""qpjumps benchmark: end-to-end metrics per workload, or a traced run for
per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each iteration runs in a fresh interpreter (perfbench/worker.py), one at a
time, with workers=1.  Iterations repeat, all at the same seed, until the
run is as near to ``--seconds`` long as whole iterations make it (at least
one always runs); each metric is the median over the iterations.
``setup_s`` also takes SETUP_PROBES extra set-up-only interpreters,
started before the measured iterations.  With ``--trace 1``
every iteration is an untraced run followed by a traced one; the per-layer
metrics come from the traced runs and ``trace.overhead_s`` is the
difference of the two wall-time medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every
iteration, provenance and the spans of traced runs) go to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS, effective_seed  # noqa: E402  (stdlib-only)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing)."""


def source_digest() -> str:
    """sha256 over the package sources, keying determinism references."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qpjumps", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size")) as fh:
                return fh.read().strip()
        except OSError:
            continue
    return None


def provenance() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain", "--", "src")) if in_repo else None,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3": _l3_size(),
    }


def spawn(workload: str, seed: int, *, trace=False, setup_only=False,
          small=False) -> dict:
    """Run one worker to completion; returns its result plus ``setup_s``,
    or ``{"crash": message}`` if it exited abnormally."""
    os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(STATE, "work"))
    result_path = out + ".json"
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--out", out, "--result", result_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--small"] * small
    try:
        started = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"crash": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        if done.returncode != 0 or not os.path.exists(result_path):
            return {"crash": f"worker exit {done.returncode}: {done.stderr[-2000:]}"}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result.pop("setup_done") - started
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if os.path.exists(result_path):
            os.unlink(result_path)


def iteration_failures(workload: str, result: dict,
                       reference: dict | None) -> tuple[int, int, list]:
    """(operations attempted, operations failed, reasons) for one iteration."""
    operations = WORKLOADS[workload].operations
    if "crash" in result:
        return operations, operations, [result["crash"]]
    reasons = []
    if result["error"]:
        reasons.append(result["error"])
    reasons += [f"check {c['name']} failed: {c['detail']}"
                for c in result["checks"] if not c["ok"]]
    if reference is not None and result["hashes"] != reference:
        differ = sorted(k for k in set(reference) | set(result["hashes"])
                        if reference.get(k) != result["hashes"].get(k))
        reasons.append(f"data files differ from an earlier run at this seed: {differ}")
    failed = result["failed_operations"]
    if reasons:
        failed = max(failed, 1)
    return operations, failed, reasons


def _reference(workload: str, seed: int, small: bool) -> tuple[str, dict | None]:
    """Path and content of the stored data-file hashes for this workload,
    seed and source tree (the determinism contract across runs)."""
    tag = f"{workload}-{seed}{'-small' if small else ''}-{source_digest()[:16]}"
    path = os.path.join(STATE, "hashes", tag + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return path, json.load(fh)
    return path, None


def run_is_done(elapsed: float, lengths: list, seconds: float) -> bool:
    """Stop where the run ends nearest to `seconds`: one more iteration of
    the usual length would overshoot by more than stopping now falls short.
    So a psd fit (~30 s) is not doubled in a 28 s run."""
    return elapsed + statistics.median(lengths) / 2 >= seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, probes: int = SETUP_PROBES) -> dict:
    setups = []
    for _ in range(probes):
        probe = spawn(workload, seed, setup_only=True, small=small)
        if "crash" in probe:
            raise BenchError(f"set-up failed: {probe['crash']}")
        setups.append(probe["setup_s"])

    ref_path, reference = _reference(workload, seed, small)
    plain, traced, reasons, lengths = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            result = spawn(workload, seed, trace=is_traced, small=small)
            ops, bad, why = iteration_failures(workload, result, reference)
            attempted += ops
            failed += bad
            reasons += why
            if "crash" in result:
                continue
            if reference is None and not bad:
                reference = result["hashes"]
                os.makedirs(os.path.dirname(ref_path), exist_ok=True)
                with open(ref_path, "w", encoding="utf-8") as fh:
                    json.dump(reference, fh, indent=1, sort_keys=True)
            setups.append(result["setup_s"])
            (traced if is_traced else plain).append(result)
        lengths.append(time.monotonic() - began)
        if run_is_done(time.monotonic() - start, lengths, seconds):
            break
    return {"workload": workload, "seed": seed, "setups": setups, "plain": plain,
            "traced": traced, "attempted": attempted, "failed": failed,
            "reasons": reasons}


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(run: dict, contract: dict, trace: bool) -> dict:
    """The metrics the contract names, with their units."""
    plain, traced = run["plain"], run["traced"]
    if not plain or (trace and not traced):
        raise BenchError("no iteration completed: " + "; ".join(run["reasons"])[-2000:])
    values = {}
    if trace:
        for name in (m["name"] for m in contract["per_layer"]):
            values[name] = _median([r["layers"].get(name, 0.0) for r in traced])
        values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                      - _median([r["wall_s"] for r in plain]))
        metrics = contract["per_layer"]
    else:
        values["setup_s"] = _median(run["setups"])
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "output_mb"):
            values[name] = _median([r[name] for r in plain])
        metrics = contract["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def report(run: dict, metrics: dict, trace: bool, prov: dict) -> None:
    """Human-readable lines and the per-run results file."""
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"iterations {len(run['plain'])} untraced, {len(run['traced'])} traced, "
          f"{len(run['setups'])} set-ups")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else float("nan")
    print(f"  {'failed_ratio':<44} {ratio:>16.6g} ({run['failed']}/{run['attempted']})")
    for reason in run["reasons"]:
        print("  FAILED:", reason.strip().splitlines()[-1])
    done = (run["plain"] or run["traced"])
    if done:
        print("  record counts:", json.dumps(done[0]["counts"], sort_keys=True))
        for c in done[0]["checks"]:
            print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print("provenance:", json.dumps(prov, sort_keys=True))

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results",
                        f"{run['workload']}-seed{run['seed']}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "metrics": metrics, **run}, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int,
                   help="rng_seed for the workload (default: its preset's seed; "
                        "psd always runs at its preset's seed)")
    p.add_argument("--seconds", type=float, default=28.0,
                   help="measure each workload for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qpjumps", "__init__.py")):
        print(f"error: no qpjumps sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(contract_path, encoding="utf-8") as fh:
        contract = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            seed = effective_seed(name, args.seed)
            if args.seed is not None and seed != args.seed:
                print(f"{name} keeps its record at seed {seed}; --seed {args.seed} ignored")
            run = run_workload(name, seed, args.seconds, bool(args.trace))
            metrics = summarize(run, contract, bool(args.trace))
            report(run, metrics, bool(args.trace), prov)
            prefix = "" if len(names) == 1 else name + "."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
