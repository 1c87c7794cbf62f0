"""Smoke test for the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

It runs a tiny instance of every workload through ``run.py`` (untraced and
traced twice), and checks that

- the result line has exactly the keys the benchmark contract names, and
  every metric of ``BENCHMARK.json`` with its unit;
- no op fails;
- the traced runs' exact counts repeat;
- the same seed generates byte-identical program text;
- every generated ``~Name`` program agrees with its transpilation under
  ``oracle.check_program``;
- a wrong expected answer and a ``~Name`` cell left bound are both counted
  as failures, so the checker is shown able to fail;
- in a directory that holds only the benchmark, ``run.py`` exits non-zero
  without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path("src").resolve()), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(Path("BENCHMARK.json").read_text())
EXACT = ("reader.tokens", "engine.clause_tries", "engine.head_matches",
         "kernel.unify_calls", "kernel.cells_allocated", "engine.solutions")
SEED = 7

failures = []


def check(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metrics_match(result: dict, specs: list, label: str):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{label}: every metric with its unit")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{label}: every value is a number")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{label}: no failed op ({result['failed']}/{result['attempted']})")


def end_to_end():
    for name in workloads.NAMES:
        result = result_of(name, 0)
        metrics_match(result, SPEC["end_to_end"], f"{name} untraced")
        record = json.loads((run.OUT / f"result-{name}-tiny-seed{SEED}-trace0.json")
                            .read_text())
        check(record["extra"]["failed_frac"]["value"] == 0, f"{name}: failed_frac 0")
        check(bool(record["meta"]["KERNEL_IMPL"]), f"{name}: kernel recorded")
        first, second = result_of(name, 1), result_of(name, 1)
        metrics_match(first, SPEC["per_layer"], f"{name} traced")
        same = [k for k in EXACT
                if first["metrics"][k]["value"] == second["metrics"][k]["value"]]
        check(same == list(EXACT), f"{name}: exact counts repeat across traced runs")


def determinism():
    for name in workloads.NAMES:
        a, b = (workloads.build(name, SEED, "tiny", run.OUT) for _ in range(2))
        check(a.programs == b.programs and a.ops == b.ops,
              f"{name}: same seed, identical inputs")


def generated_programs_pass_oracle():
    from entangle_pl.oracle import check_program

    rng = random.Random(SEED)
    programs = [
        (gen.coloring(rng, 5, 6), None),
        (gen.mst(rng, 8, 12), None),
        (gen.registry(rng, 30, 10), None),
    ]
    db = gen.bigdb(rng, 60, 40, 10, 12)
    cells = [k for k in db["keys"] if db["facts"][k][2] is None]
    bigdb_queries = [
        gen.bigdb_point(db, db["keys"][0])["query"],
        gen.bigdb_bind(db, cells[0], "mark")["query"],
        gen.bigdb_value(db, db["facts"][db["keys"][1]][0])["query"],
        gen.bigdb_rule(db, 0, db["keys"][2])["query"],
    ]
    programs.append(({"text": db["text"]}, bigdb_queries))
    for spec, queries in programs:
        queries = queries or spec.get("queries") or [spec["query"]]
        results = check_program(spec["text"], queries)
        check(bool(results) and all(r.ok for r in results),
              f"generated program agrees with its transpilation: {queries[0][:40]}")


def _corrupt(expected):
    if isinstance(expected, int):
        return expected + 1
    if isinstance(expected, str):
        return expected + "\nX = wrong"
    return expected + ["X = wrong"]


def checker_can_fail():
    for name in workloads.NAMES:
        wl = workloads.build(name, SEED, "tiny", run.OUT)
        wl.setup()
        target = wl.ops[0]
        target.expected = _corrupt(target.expected)
        report = run.measure(wl)
        runs = sum(op is target for op in wl.ops) * report["attempted"] // len(wl.ops)
        check(report["failed"] == runs,
              f"{name}: injected wrong expectation counted as a failure")

    wl = workloads.build("bigdb", SEED, "tiny", run.OUT)
    wl.setup()
    store = wl.engines[0].store
    cell = next(iter(store.evars.values()))
    import entangle_pl.kernel as kernel

    store.bind(cell, kernel.Atom("stuck"))
    report = run.measure(wl)
    check(report["failed"] > 0 and "left bound" in report["errors"][0],
          "a ~Name cell left bound is counted as a failure")


def bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", "det", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program, run.py exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    determinism()
    generated_programs_pass_oracle()
    checker_can_fail()
    bare_directory()
    end_to_end()
    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
