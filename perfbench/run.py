"""The entangle-pl benchmark: one seeded workload per run.

Usage, from the root of a checkout (no install needed; ``src`` is put on
the path the way the test suite's ``PYTHONPATH=src`` does):

    python3 perfbench/run.py --workload det --seed 1 --seconds 20 --trace 0

Workloads: ``det`` (nrev and counting loops), ``search`` (coloring, MST,
grammar corpus), ``bigdb`` (a 10k-clause program) and ``oracle``
(``--oracle-check`` through the CLI).  Each run happens in fresh
subprocesses, one after another: four that only time set-up, then one that
sets up again and drives the workload's ops in a closed loop (one client,
the next op starts when the previous one has finished), checking every
answer.  The work is fixed: a set number of passes through the workload's
schedule of ops (``workloads.SIZES``), sized to take about 20 s, the
``run_seconds`` of ``BENCHMARK.json``, on a busy 2-core x86-64 box;
``--seconds`` is recorded but does not change the work.  Timings are scaled
to a reference host by a calibration round (see ``measure``); the unscaled
figures are kept in the record.  ``--trace 1`` instead goes once through
the schedule, running each op once untraced and once under the per-layer
tracer, and reports the per-layer metrics.  The last line of standard
output is the result as JSON; the full record, with run metadata, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = Path("perfbench/out")
PACKAGE = Path("src/entangle_pl/__init__.py")
SETUP_RUNS = 5  # set-up is timed in this many fresh processes; median kept
DEADLINE_S = 170  # the whole run must end within 180 s
# A calibration round's median time (timed as ``_calibrate`` does) on the
# reference host (a 2-core x86-64 VM, CPython 3.11, in a quiet period);
# timings are reported as if measured there.
CAL_REFERENCE_S = 0.315e-3
SETUP_CAL_ROUNDS = 16  # calibration rounds before and after each set-up


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("det", "search", "bigdb", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- child process --------------------------------------------------------


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("ref", "next")


def _round():
    table = {}
    head = None
    for i in range(1500):
        cell = _Cell()
        cell.ref = (i, head)
        cell.next = head
        table[i & 255] = cell
        head = cell
    n = 0
    while head is not None:
        if isinstance(head.ref, tuple):
            n += len(table) & head.ref[0]
        head = head.next


def _calibrate() -> float:
    """Seconds one fixed round of pure-Python work takes right now.

    The round is shaped like the engine's own work (small slotted objects
    allocated and linked, attribute and dict access, isinstance tests), so
    it slows down with the host the way the engine does.  The scale factor
    must follow only the host, not the program, so the collector is off (a
    collection here would scan the engine's heap) and the round runs twice
    with only the second timed (the first refills the caches the previous
    op evicted, which would tie its time to the op's memory traffic).
    """
    gc.disable()
    try:
        _round()
        t0 = perf_counter()
        _round()
        return perf_counter() - t0
    finally:
        gc.enable()


def to_reference(samples: list) -> float:
    """Scale factor to the reference host: the round's time there against
    the median of the rounds measured here."""
    return CAL_REFERENCE_S / statistics.median(samples)


def measure(wl) -> dict:
    """Closed loop through ``wl.ops``, ``wl.passes`` times.

    The work is fixed, not the time: the engine leaks cells, so each op's
    cost grows with the ops run before it, and a run that stopped on time
    would do fewer of them on a slower host.

    On a shared 2-core host, other tenants slow it by 15% over tens of
    seconds and by up to 2x for minutes, far more than the bounds a change
    is judged by.  So a short calibration round runs before every op, and
    every time is scaled to the reference host by the calibration rounds'
    median in the run.
    Throughput and the median take each distinct op's median repetition,
    which drops the repetitions that met interference; the 90th percentile
    is taken over every timed op, so collector pauses and ops slowed by
    the leak show in it.  The unscaled figures go to the result record.
    """
    times, firsts = {}, {}  # per distinct op (an op recurs in a schedule)
    errors, cal = [], []
    failed = 0
    start = perf_counter()
    n_ops = wl.passes * len(wl.ops)
    for i in range(n_ops):
        op = wl.ops[i % len(wl.ops)]
        cal.append(_calibrate())
        result = wl.run(op)
        times.setdefault(id(op), []).append(result.seconds)
        if result.first_solution is not None:
            firsts.setdefault(id(op), []).append(result.first_solution)
        if not result.ok:
            failed += 1
            if len(errors) < 5:
                errors.append(result.error)
    wall = perf_counter() - start
    per_op = [statistics.median(t) for t in times.values()]
    p50 = statistics.median(per_op)
    p90 = statistics.quantiles([t for ts in times.values() for t in ts], n=10)[8]
    first = [statistics.median(f) for f in firsts.values()]
    first = statistics.median(first) if first else None
    scale = to_reference(cal)
    inferences = sum({id(op): op.inferences for op in wl.ops}.values())
    return {
        "attempted": n_ops,
        "failed": failed,
        "errors": errors,
        "distinct_ops": len(per_op),
        "ops_per_s": len(per_op) / sum(per_op) / scale,
        "op_ms_p50": p50 * scale * 1e3,
        "op_ms_p90": p90 * scale * 1e3,
        "first_solution_ms_p50": first and first * scale * 1e3,
        "lips": inferences / sum(per_op) / scale if wl.lips else None,
        "peak_rss_mib": _peak_rss_mib(),
        "unscaled_ops_per_s": len(per_op) / sum(per_op),
        "unscaled_op_ms_p50": p50 * 1e3,
        "unscaled_op_ms_p90": p90 * 1e3,
        "calibration_median_ms": statistics.median(cal) * 1e3,
        "wall_ops_per_s": n_ops / wall,
    }


def trace_run(wl, out: Path) -> dict:
    """One pass through the schedule; each op runs untraced and traced,
    alternating which goes first; counts come from the traced half only."""
    import entangle_pl  # imported before the tracer patches its modules
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("setup", wl.setup)
    finally:
        tracer.uninstall()
    stores = [e.store for e in wl.engines]
    tracer.harvest_cells(stores)
    plain = traced = 0.0
    failed = 0
    errors = []
    for i, op in enumerate(wl.ops):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                try:
                    tracer.rebase_cells()
                    t0 = perf_counter()
                    result = tracer.call(f"op:{op.label}", wl.run, op)
                    traced += perf_counter() - t0
                finally:
                    tracer.uninstall()
                tracer.harvest_cells(stores)
            else:
                t0 = perf_counter()
                result = wl.run(op)
                plain += perf_counter() - t0
            if not result.ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(result.error)
    metrics = tracer.metrics(wl.live_cells(), plain / traced)
    out.write_text(json.dumps({"kernel": entangle_pl.KERNEL_IMPL, **tracer.dump()}))
    return {"attempted": 2 * len(wl.ops), "failed": failed, "errors": errors,
            "metrics": metrics}


def child(args) -> int:
    sys.path[:0] = [str(Path("src").resolve()), str(HERE)]
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size, OUT)
    if args.trace:
        out = OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        report = trace_run(wl, out)
        report["trace_file"] = str(out)
    else:
        cal = [_calibrate() for _ in range(SETUP_CAL_ROUNDS)]
        t0 = perf_counter()
        wl.setup()
        raw = perf_counter() - t0
        cal += [_calibrate() for _ in range(SETUP_CAL_ROUNDS)]
        report = {"setup_s": raw * to_reference(cal), "unscaled_setup_s": raw}
        if args.child == "run":
            report.update(measure(wl))
    import entangle_pl

    report["kernel"] = entangle_pl.KERNEL_IMPL
    print(json.dumps(report))
    return 0


# --- parent process ---------------------------------------------------------


def _spawn(args, role: str, deadline: float) -> dict:
    import time

    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--child", role]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(args, kernel: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "KERNEL_IMPL": kernel,
        "ENTANGLE_PL_KERNEL": os.environ.get("ENTANGLE_PL_KERNEL", ""),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def parent(args) -> int:
    import time

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    extra = {}
    if args.trace:
        from tracing import RECORD_ONLY

        report = _spawn(args, "run", deadline)
        every = report.pop("metrics")
        metrics = {k: v for k, v in every.items() if k not in RECORD_ONLY}
        extra = {k: v for k, v in every.items() if k in RECORD_ONLY}
    else:
        runs = [_spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
        report = _spawn(args, "run", deadline)
        runs.append(report)
        setups = [r["setup_s"] for r in runs]
        raw_setups = [r["unscaled_setup_s"] for r in runs]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(report["ops_per_s"], "1/s"),
            "op_ms_p50": _metric(report["op_ms_p50"], "ms"),
            "op_ms_p90": _metric(report["op_ms_p90"], "ms"),
            "peak_rss_mib": _metric(report["peak_rss_mib"], "MiB"),
        }
        extra = {
            "failed_frac": _metric(report["failed"] / report["attempted"], "ratio"),
            "setup_s_runs": _metric(setups, "s"),
            "distinct_ops": _metric(report["distinct_ops"], "count"),
            "unscaled_ops_per_s": _metric(report["unscaled_ops_per_s"], "1/s"),
            "unscaled_op_ms_p50": _metric(report["unscaled_op_ms_p50"], "ms"),
            "unscaled_op_ms_p90": _metric(report["unscaled_op_ms_p90"], "ms"),
            "unscaled_setup_s": _metric(statistics.median(raw_setups), "s"),
            "calibration_median_ms": _metric(report["calibration_median_ms"], "ms"),
            "wall_ops_per_s": _metric(report["wall_ops_per_s"], "1/s"),
        }
        if report["first_solution_ms_p50"] is not None:
            extra["first_solution_ms_p50"] = _metric(
                report["first_solution_ms_p50"], "ms")
        if report["lips"] is not None:
            extra["lips"] = _metric(report["lips"], "inferences/s")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {"meta": _metadata(args, report["kernel"]), **result, "extra": extra,
              "errors": report["errors"]}
    name = f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for error in report["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    for key, m in {**metrics, **extra}.items():
        print(f"{key:24} {m['value']!s:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run from the root of an entangle-pl "
              "checkout", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    try:
        return parent(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
