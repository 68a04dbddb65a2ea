"""chargeopt benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload robust-week --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run sets up several times
(``prepare.py`` in a fresh interpreter), then repeats whole rounds of the
workload's operations, one per generated instance, and stops at the end of
the round nearest to ``--seconds``.  It checks every distinct output apart
from the program (``check.py``) and prints one JSON line last: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Diagnostics go to stderr.
"""

import os

# One process, one BLAS thread: the load is the program's alone and the
# simplex pivots (and so the iteration counts) repeat exactly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per run; setup_s is their median


def _fingerprint(res) -> str:
    """Digest of everything the checks look at, to check each distinct output once."""
    h = hashlib.sha256(repr(res.fcfs_cost).encode())
    for gamma, s in sorted(res.schedules.items()):
        for arr in (s.charging_power, s.net_purchase, s.solar_used):
            h.update(arr.tobytes())
        h.update(repr((gamma, s.objective_value, s.protection_cost, res.worst[gamma],
                       res.adjustments[gamma])).encode())
    if res.trace is not None:
        h.update(res.trace.applied_power.tobytes())
        h.update(res.trace.applied_solar.tobytes())
        h.update(repr(res.trace.total_cost).encode())
    return h.hexdigest()


def _setup(workload: str, seed: int, inputs: Path) -> list[float]:
    took = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(inputs)],
            check=True, stdout=subprocess.DEVNULL,
        )
        took.append(time.perf_counter() - t0)
    return took


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chargeopt" / "__init__.py").is_file():
        print(f"error: no chargeopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    if args.workload not in gen.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(gen.SPECS)}",
              file=sys.stderr)
        return 2
    spec = gen.SPECS[args.workload]
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "in"
    setup_times = _setup(args.workload, args.seed, inputs)

    import chargeopt
    import ops
    import tracing

    if Path(chargeopt.__file__).resolve().parent != ROOT / "src" / "chargeopt":
        print(f"error: imported chargeopt from {chargeopt.__file__}", file=sys.stderr)
        return 2
    operation = ops.OPERATIONS[args.workload]
    tracer = tracing.Tracer(bool(args.trace))
    tracer.install()
    op_times, decisions, layers = [], [], []
    first: dict[tuple[int, str], object] = {}  # one outcome per distinct output
    outputs: list[tuple[int, str]] = []
    attempted = failed = rounds = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        for k in range(spec.instances):
            out_dir = work / "out" / str(k)
            out_dir.mkdir(parents=True, exist_ok=True)
            attempted += 1
            t0 = time.perf_counter()
            try:
                res = operation(inputs / str(k), out_dir, spec, tracer)
            except Exception:
                traceback.print_exc()
                failed += 1
                tracer.take()
                continue
            op_times.append(time.perf_counter() - t0)
            if peak_rss_mb is None:
                # as in one CLI command: a process that has run one operation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            decisions.extend(res.decisions)
            layers.append(tracer.take())
            key = (k, _fingerprint(res))
            first.setdefault(key, res)
            outputs.append(key)
            del res
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:  # the round end nearest --seconds
            break
    if not op_times:
        print("error: every operation failed", file=sys.stderr)
        return 1

    import check  # scipy is imported only now, after peak memory was read

    instances = {k: check.read_instance(inputs / str(k), spec) for k in range(spec.instances)}
    verdict = {}
    for (k, digest), res in first.items():
        try:
            verdict[k, digest] = check.CHECKS[args.workload](instances[k], spec, res)
        except RuntimeError as exc:  # a reference LP the program's output made infeasible
            verdict[k, digest] = [str(exc)]
        for problem in verdict[k, digest]:
            print(f"check failed, instance {k}: {problem}", file=sys.stderr)
    bad_outputs = sum(1 for key in outputs if verdict[key])
    failed += bad_outputs
    (k, _), res = next(iter(first.items()))
    missed = check.self_test(instances[k], spec, res)
    for m in missed:
        print(f"checker self-test: {m}", file=sys.stderr)
    correct = bad_outputs == 0 and not missed

    if args.trace:
        metrics = {
            name: {"value": statistics.fmean(op[name] for op in layers),
                   "unit": "s" if name.endswith("_s") else "count"}
            for name in layers[0]
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": statistics.fmean(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "resolve_p50_ms": {"value": 1000.0 * statistics.median(decisions), "unit": "ms"},
        }
    print(
        f"{args.workload} seed {args.seed}: {len(decisions)} decisions, {len(first)} distinct "
        f"outputs, setups " + " ".join(f"{t:.3f}" for t in setup_times)
        + ", ops " + " ".join(f"{t:.3f}" for t in op_times),
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
