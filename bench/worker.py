"""One workload in one fresh process: set up, then measure for a time budget.

Started by ``run.py``.  It prints ``ready`` once qfock is imported and the
inputs are generated (``run.py`` times set-up up to that line), sends one
untimed warm-up request, then repeats the workload's fixed request set
("a pass") until the budget is spent and at least ``MIN_PASSES`` passes
are done.  The last line of its output is one JSON object with the
measurements.  Request times are scaled to the reference speed of
``calibrate.py``, measured at least every 0.1 s of a pass.

Every pass must render byte-identical output; the answers of the first
pass are checked against the references in ``reference.py``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibrate  # noqa: E402
import layer_trace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 8
# Tail percentile: the highest of these with at least 10 requests beyond
# it over MIN_PASSES passes, fixed per workload so it never shifts with
# how many passes fit in the budget.
PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def tail_percentile(requests_per_pass: int) -> float:
    total = requests_per_pass * MIN_PASSES
    return next(p for p in PERCENTILES if total * (1.0 - p / 100.0) >= 10.0 - 1e-9)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _is_time(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith("_s")


# A calibration runs at least this often during a pass, so that the
# speed each request is scaled by was measured within ~0.1 s of it.
CALIBRATE_EVERY_S = 0.1


@dataclass
class Pass:
    """One pass: per-request seconds, raw and at reference speed."""

    latencies: list[float]
    latencies_ref: list[float]
    responses: list
    digest: str

    @property
    def wall(self) -> float:
        return math.fsum(self.latencies)

    @property
    def wall_ref(self) -> float:
        return math.fsum(self.latencies_ref)


class Workload:
    def __init__(self, qfock, requests, calibration="python"):
        self.qfock = qfock
        self.requests = requests
        self.calibration = calibration  # a task of calibrate.TASKS

    def run_pass(self) -> Pass:
        """Send every request once, calibrating between runs of requests.

        Each request is scaled by the mean slowness of the calibrations
        just before and after the run of requests it belongs to.
        """
        clock = time.perf_counter
        latencies, scaled, responses = [], [], []
        gc.collect()
        before = calibrate.slowness(self.calibration)
        since = 0.0
        for index, request in enumerate(self.requests):
            start = clock()
            responses.append(request.send(self.qfock))
            latencies.append(clock() - start)
            since += latencies[-1]
            if since >= CALIBRATE_EVERY_S or index == len(self.requests) - 1:
                after = calibrate.slowness(self.calibration)
                slowness = 0.5 * (before + after)
                scaled += [x / slowness for x in latencies[len(scaled):]]
                before, since = after, 0.0
        digest = hashlib.sha256()
        for response in responses:
            digest.update(response.digest_text().encode())
        return Pass(latencies, scaled, responses, digest.hexdigest())

    def check(self, responses):
        """Bulk and probe tallies of one pass, checked against the references."""
        tally = {"bulk": 0, "bulk_failed": 0, "probes": 0, "probes_failed": 0,
                 "unexpected": [], "max_rel_err": 0.0}  # fmt: skip
        for request, response in zip(self.requests, responses):
            for op in request.check(response):
                if op.rel_err is not None:
                    tally["max_rel_err"] = max(tally["max_rel_err"], op.rel_err)
                if request.tag is None:
                    tally["bulk"] += 1
                    if op.failure is not None:
                        tally["bulk_failed"] += 1
                        tally["unexpected"].append(f"{op.failure}: {request!r:.200}")
                else:
                    tally["probes"] += 1
                    if op.failure is not None:
                        tally["probes_failed"] += 1
                        if op.failure not in workloads.PROBE_TAGS[request.tag][0]:
                            tally["unexpected"].append(f"{op.failure}: {request!r:.200}")
        return tally

    def unattributed_probes(self) -> int:
        """Failing probes whose request moved none of their tag's failure counters."""
        count = 0
        for request in self.requests:
            if request.tag is None:
                continue
            with layer_trace.Tracer(workloads.reference_converges) as tracer:
                response = request.send(self.qfock)
            failed = any(op.failure is not None for op in request.check(response))
            counters = workloads.PROBE_TAGS[request.tag][1]
            if failed and not any(tracer.counts[c] for c in counters):
                count += 1
        return count


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    workload.requests[0].send(workload.qfock)  # warm-up, untimed
    plain, traced, snapshots = [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(workload.run_pass())
        if len(plain) > 1:
            plain[-1].responses = None  # only the first pass is checked; the rest by digest
        if trace:
            with layer_trace.Tracer(workloads.reference_converges) as tracer:
                traced.append(workload.run_pass())
            traced[-1].responses = None
            snapshot = tracer.metrics()
            slow = traced[-1].wall / traced[-1].wall_ref
            snapshots.append({k: v / slow if _is_time(k) else v for k, v in snapshot.items()})
    digests = {p.digest for p in plain + traced}
    result = {
        "passes": plain,
        "digest": min(digests),
        "repeatable": len(digests) == 1,
        "tally": workload.check(plain[0].responses),
    }
    if trace:
        per_layer = layer_trace.median_metrics(snapshots)
        per_layer["bench.trace_overhead_s"] = statistics.median(
            p.wall_ref for p in traced
        ) - statistics.median(p.wall_ref for p in plain)
        per_layer["bench.defects_unattributed"] = workload.unattributed_probes()
        result["per_layer"] = per_layer
    return result


def end_to_end(result: dict, requests_per_pass: int) -> tuple[dict, float]:
    tally, passes = result["tally"], result["passes"]
    wall = statistics.median(p.wall_ref for p in passes)
    ops = tally["bulk"] + tally["probes"]
    correct_ops = ops - tally["bulk_failed"] - tally["probes_failed"]
    p = tail_percentile(requests_per_pass)
    latencies = [x for q in passes for x in q.latencies_ref]
    return {
        "wall_s": wall,
        "ops_per_s": correct_ops / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * percentile(latencies, p),
        "fail_ratio": (tally["bulk_failed"] + tally["probes_failed"]) / ops,
        "max_rel_err": tally["max_rel_err"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, p


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print ready and exit")
    args = parser.parse_args(argv)

    import qfock
    import qfock.cli

    requests = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    calibration = workloads.CALIBRATION.get(args.workload, "python")
    result = measure(Workload(qfock, requests, calibration), args.seconds, bool(args.trace))
    metrics, p = end_to_end(result, len(requests))
    tally, passes = result["tally"], result["passes"]
    per_layer = result.get("per_layer")
    if per_layer is not None:
        for name in ("fail_ratio", "max_rel_err", "latency_tail_ms"):
            per_layer[f"bench.{name}"] = metrics[name]
    payload = {
        "correct": result["repeatable"] and not tally["unexpected"],
        "attempted": tally["bulk"] * len(passes),
        "failed": tally["bulk_failed"] * len(passes),
        "metrics": metrics,
        "per_layer": per_layer,
        "info": {
            "passes": len(passes),
            "requests_per_pass": len(requests),
            "ops_per_pass": tally["bulk"] + tally["probes"],
            "probes_per_pass": tally["probes"],
            "probes_failed_per_pass": tally["probes_failed"],
            "latency_tail_percentile": p,
            "latency_samples": sum(len(q.latencies) for q in passes),
            "raw_wall_s": statistics.median(q.wall for q in passes),
            "slowness": statistics.median(q.wall / q.wall_ref for q in passes),
            "output_sha256": result["digest"],
            "repeatable": result["repeatable"],
            "unexpected": tally["unexpected"][:20],
            **environment(),
        },
    }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
