"""Command-line front end: REPL, one-shot query, transpile, oracle-check."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import MAX_FRAMES, Engine
from .errors import PrologError
from .oracle import check_directory, read_source
from .transpiler import transpile

_CORPUS_DEFAULT = object()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entangle-pl",
        description=(
            "A mini Prolog with interclausal ~Name variables: values bound in "
            "one clause activation are visible to every other clause until "
            "the query is abandoned."
        ),
    )
    parser.add_argument("files", nargs="*", help="program files to consult")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "-q", "--query", metavar="QUERY", help="run one query, print all solutions"
    )
    mode.add_argument(
        "--transpile",
        metavar="OUT",
        help="write a ~-free transpilation of the consulted files to OUT ('-' for stdout)",
    )
    mode.add_argument(
        "--oracle-check",
        nargs="?",
        const=_CORPUS_DEFAULT,
        metavar="DIR",
        help=(
            "for each DIR/*.pl with a sibling .queries file, compare native "
            "solutions against the transpiled program (default: bundled corpus)"
        ),
    )
    parser.add_argument(
        "--occurs-check", action="store_true", help="unify with occurs check"
    )
    parser.add_argument(
        "--no-evar", action="store_true", help="reject ~Name variable syntax"
    )
    parser.add_argument(
        "--no-prelude",
        action="store_true",
        help="start without the assumption-grammar library",
    )
    parser.add_argument(
        "--unknown-fail",
        action="store_true",
        help="unknown predicates fail instead of raising an error",
    )
    parser.add_argument(
        "--max-solutions", type=int, metavar="N", help="stop after N solutions"
    )
    parser.add_argument(
        "--max-frames",
        type=int,
        default=MAX_FRAMES,
        metavar="N",
        help=f"resource limit on engine frames (default {MAX_FRAMES:,})",
    )
    return parser


def _engine_options(args) -> dict:
    """Engine options from the flags; ``allow_evars`` is not among them,
    since the oracle sets it on each of its two engines."""
    return {
        "occurs_check": args.occurs_check,
        "unknown_fail": args.unknown_fail,
        "load_prelude": not args.no_prelude,
        "max_frames": args.max_frames,
    }


def _make_engine(args) -> Engine:
    engine = Engine(allow_evars=not args.no_evar, **_engine_options(args))
    for name in args.files:
        engine.consult_text(read_source(name))
    return engine


def _solution_line(solution) -> str:
    text = str(solution)
    return "true." if text == "true" else text


def _run_query(engine: Engine, query: str, max_solutions) -> int:
    count = 0
    gen = engine.query(query)
    try:
        for solution in gen:
            print(_solution_line(solution))
            count += 1
            if max_solutions is not None and count >= max_solutions:
                break
    finally:
        gen.close()
    if count == 0:
        print("false.")
        return 1
    return 0


def _read_line(prompt: str) -> str | None:
    try:
        return input(prompt if sys.stdin.isatty() else "")
    except EOFError:
        return None


def _run_repl(engine: Engine) -> int:
    while True:
        line = _read_line("?- ")
        if line is None:
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        if line in ("halt", "halt."):
            return 0
        try:
            gen = engine.query(line)
        except PrologError as exc:
            print(f"error: {exc}")
            continue
        try:
            stop = False
            for solution in gen:
                text = str(solution)
                sys.stdout.write(text)
                sys.stdout.flush()
                answer = _read_line("")
                if answer is not None and answer.strip() == ";":
                    sys.stdout.write(" ;\n")
                    continue
                print(".")
                stop = True
                break
            if not stop:
                # no solutions, or the user kept asking past the last one
                print("false.")
        except PrologError as exc:
            print(f"error: {exc}")
        finally:
            gen.close()


def _run_transpile(args) -> int:
    texts = [read_source(name) for name in args.files]
    result = transpile(*texts)
    if args.transpile == "-":
        sys.stdout.write(result.text)
    else:
        Path(args.transpile).write_text(result.text, encoding="utf-8")
    return 0


def _run_oracle(args) -> int:
    if args.oracle_check is _CORPUS_DEFAULT:
        from . import corpus_dir

        directory = corpus_dir()
    else:
        directory = Path(args.oracle_check)
    results = check_directory(
        directory, limit=args.max_solutions, engine_options=_engine_options(args)
    )
    for result in results:
        print(result)
    if not results:
        print(f"error: no program/queries pairs under {directory}", file=sys.stderr)
        return 2
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.transpile is not None and not args.files:
        parser.error("--transpile requires at least one program file")
    if args.oracle_check is not None and args.files:
        parser.error("--oracle-check does not take program files")
    if args.no_evar and (args.transpile is not None or args.oracle_check is not None):
        parser.error("--no-evar does not apply to --transpile or --oracle-check")
    if args.max_solutions is not None and args.max_solutions < 1:
        parser.error("--max-solutions must be at least 1")
    if args.max_frames < 1:
        parser.error("--max-frames must be at least 1")

    try:
        if args.oracle_check is not None:
            return _run_oracle(args)
        if args.transpile is not None:
            return _run_transpile(args)
        engine = _make_engine(args)
        if args.query is not None:
            return _run_query(engine, args.query, args.max_solutions)
        return _run_repl(engine)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except (OSError, PrologError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
