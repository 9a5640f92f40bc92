#!/usr/bin/env python
"""Uncalled-code guard: every ``src/repro`` function is entered by a run.

Runs each end-to-end workload (``bench_e2e/run.py --smoke``), each
``examples/*.py`` script and each ``benchmarks/bench_*.py`` file in its own
subprocess under ``cProfile`` (every thread profiled), collects the code
objects those runs entered, and compares them with an AST list of the
functions defined under ``src/repro``.  It exits non-zero when a function is
entered by no run, unless the function

* is a stub: its body is only a docstring, ``...`` or ``pass`` (a protocol
  method or an abstract hook), or
* is on the allow-list, ``tools/uncalled_allow.txt``.  Each line there reads
  ``<path under src/repro>::<qualified name>  <test file>  <reason>``.  The
  guard runs every test file the list names under the same profiler, and an
  entry holds only while its test file enters the function, so an entry says
  which test drives the code that no run reaches.  An entry whose function a
  run enters no longer belongs on the list and fails the guard too.

A function is matched to what the runs entered by its module and qualified
name (``co_qualname``), not by its line, so an edit made while the guard runs
renames nothing; two functions of one module with one qualified name fail the
guard.  A run's exit status is not the verdict (a timing gate may fail under
the profiler), but a run that enters no ``src/repro`` function at all fails
the guard: it crashed before doing anything.  From the repository root:

    python tools/uncalled.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ALLOW_FILE = Path("tools") / "uncalled_allow.txt"
JOBS = 2                        # profiled runs at a time
WORKLOADS = ("construct", "serve_mix", "serve_paths", "serve_writes")
BENCH_FLAGS = (
    "-q", "-p", "no:cacheprovider", "-o", "python_files=bench_*.py",
    "-o", "python_functions=bench_*", "--benchmark-disable",
)
TEST_FLAGS = ("-q", "-p", "no:cacheprovider")


@dataclass(frozen=True)
class Function:
    path: str           # relative to src/repro, with "/" separators
    qualname: str
    first_line: int     # the first decorator's line, as in ``co_firstlineno``
    last_line: int

    @property
    def ident(self) -> str:
        """The allow-list's name for the function, and how a run reports its
        code object as entered: module and ``co_qualname``, so an edit that
        moves lines changes no name."""
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


@dataclass(frozen=True)
class AllowEntry:
    ident: str
    test_file: str
    reason: str
    line: int


# --------------------------------------------------------------------- #
# what is defined
# --------------------------------------------------------------------- #
def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant) and (
            statement.value.value is Ellipsis or isinstance(statement.value.value, str)
        ):
            continue
        return False
    return True


def defined_functions(package: Path) -> tuple[list[Function], int]:
    """Every non-stub function under *package*, and the number of stubs."""
    functions: list[Function] = []
    stubs = 0
    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(package).as_posix()
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))

        def visit(node: ast.AST, prefix: str) -> None:
            nonlocal stubs
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    if _is_stub(child):
                        stubs += 1
                    else:
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        functions.append(Function(
                            path, qualname, first, child.end_lineno or first
                        ))
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions, stubs


# --------------------------------------------------------------------- #
# what the runs enter
# --------------------------------------------------------------------- #
def planned_runs(root: Path) -> list[tuple[str, list[str]]]:
    """(label, argv after the interpreter) of every run, in a fixed order."""
    runs: list[tuple[str, list[str]]] = []
    if (root / "bench_e2e" / "run.py").is_file():
        for workload in WORKLOADS:
            runs.append((f"bench_e2e:{workload}", [
                "bench_e2e/run.py", "--workload", workload, "--seed", "0", "--smoke",
            ]))
    for script in sorted((root / "examples").glob("*.py")):
        runs.append((f"examples/{script.name}", [f"examples/{script.name}"]))
    for bench in sorted((root / "benchmarks").glob("bench_*.py")):
        runs.append((f"benchmarks/{bench.name}", [
            "-m", "pytest", f"benchmarks/{bench.name}", *BENCH_FLAGS,
        ]))
    return runs


def allow_list_runs(root: Path, allow: list[AllowEntry]) -> list[tuple[str, list[str]]]:
    """(test file, argv) of every existing test file the allow-list names."""
    files = sorted({entry.test_file for entry in allow if (root / entry.test_file).is_file()})
    return [(name, ["-m", "pytest", name, *TEST_FLAGS]) for name in files]


def _child(out_path: str, package: str, argv: list[str]) -> None:
    """Run *argv* as ``python`` would, profiling every thread, and write the
    ``(file, qualified name)`` of each entered code object under *package*."""
    import cProfile
    import runpy
    import threading
    import types

    profilers: list[cProfile.Profile] = []
    first_frames: list[types.CodeType] = []

    def profile_this_thread() -> None:
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()

    def thread_start(frame, event, arg):
        # threading installs this hook in each new thread before run();
        # swap it for a C-level profiler at the first event.
        sys.setprofile(None)
        first_frames.append(frame.f_code)
        profile_this_thread()

    threading.setprofile(thread_start)
    status: object = 0
    profile_this_thread()
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            sys.path[0] = os.getcwd()
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        status = 0 if stop.code is None else stop.code
    except Exception:                           # a crash is reported, not fatal here
        import traceback
        traceback.print_exc()
        status = 1
    finally:
        profilers[0].disable()
        threading.setprofile(None)
        codes = set(first_frames)
        for profiler in list(profilers):
            for entry in profiler.getstats():
                if isinstance(entry.code, types.CodeType):
                    codes.add(entry.code)
        prefix = os.path.realpath(package) + os.sep
        entered = sorted({
            (os.path.relpath(os.path.realpath(code.co_filename), package), code.co_qualname)
            for code in codes if os.path.realpath(code.co_filename).startswith(prefix)
        })
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"status": status if isinstance(status, int) else 1,
                       "entered": entered}, handle)
    sys.stdout.flush()
    os._exit(0)      # the verdict is written; do not wait on daemon threads


def run_one(root: Path, argv: list[str], workdir: str, index: int) -> tuple[int | None, set]:
    """Run one entry under the profiler: (exit status or None, entered idents)."""
    out_path = os.path.join(workdir, f"run-{index}.json")
    env = dict(os.environ, PYTHONHASHSEED="0", BENCH_JSON_DIR=workdir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", out_path,
         str(root / "src" / "repro"), "--", *argv],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        return None, set()
    entered = {f"{path.replace(os.sep, '/')}::{qualname}" for path, qualname in result["entered"]}
    return result["status"], entered


# --------------------------------------------------------------------- #
# the verdict
# --------------------------------------------------------------------- #
def parse_allowlist(text: str) -> list[AllowEntry]:
    entries = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ValueError(f"allow-list line {number}: want '<function> <test file> <reason>'")
        entries.append(AllowEntry(parts[0], parts[1], parts[2], number))
    return entries


def judge(functions: list[Function], entered: dict, allow: list[AllowEntry],
          tests_entered: dict[str, set]) -> tuple[list[Function], list[str]]:
    """The functions no run entered, and the problems that fail the guard.

    *entered* maps each function ident a run entered to that run's label;
    *tests_entered* maps each test file run to the idents it entered.
    """
    uncalled = [f for f in functions if f.ident not in entered]
    by_ident: dict[str, Function] = {}
    problems = []
    for function in functions:
        first = by_ident.setdefault(function.ident, function)
        if first is not function:
            problems.append(
                f"src/repro/{function.path}:{function.first_line}: {function.qualname} is "
                f"also defined at line {first.first_line}; a run's entry cannot tell them apart"
            )
    allowed = set()
    for entry in allow:
        function = by_ident.get(entry.ident)
        where = f"{ALLOW_FILE}:{entry.line}"
        if function is None:
            problems.append(f"{where}: {entry.ident} is not a function under src/repro")
        elif function.ident in entered:
            problems.append(f"{where}: {entry.ident} is entered by {entered[function.ident]}; "
                            "it does not belong on the allow-list")
        elif entry.test_file not in tests_entered:
            problems.append(f"{where}: {entry.test_file} does not exist")
        elif function.ident not in tests_entered[entry.test_file]:
            problems.append(f"{where}: {entry.test_file} does not enter {entry.ident}")
        else:
            allowed.add(entry.ident)
    for function in uncalled:
        if function.ident not in allowed:
            problems.append(
                f"src/repro/{function.path}:{function.first_line}: {function.qualname} "
                f"({function.lines} lines) is entered by no workload, example or benchmark"
            )
    return uncalled, problems


def _distinct_lines(functions: list[Function]) -> int:
    lines = set()
    for f in functions:
        lines.update((f.path, n) for n in range(f.first_line, f.last_line + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="repository root (default: .)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    package = root / "src" / "repro"
    functions, stubs = defined_functions(package)
    allow_path = root / ALLOW_FILE
    allow = parse_allowlist(allow_path.read_text(encoding="utf-8")) if allow_path.is_file() else []

    runs = planned_runs(root)
    tests = allow_list_runs(root, allow)
    entered: dict = {}
    tests_entered: dict[str, set] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as workdir:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = pool.map(
                lambda item: run_one(root, item[1][1], workdir, item[0]),
                enumerate(runs + tests),
            )
            for index, ((label, _), (status, keys)) in enumerate(zip(runs + tests, results)):
                print(f"  {label:<48} exit {status}  entered {len(keys)}", flush=True)
                if not keys:
                    problems.append(f"{label}: entered no src/repro function (exit {status})")
                if index < len(runs):
                    for key in keys:
                        entered.setdefault(key, label)
                else:
                    tests_entered[label] = keys

    uncalled, verdict = judge(functions, entered, allow, tests_entered)
    problems.extend(verdict)
    print(f"{len(functions)} functions under src/repro ({stubs} stubs exempt); "
          f"{len(uncalled)} entered by no run, {_distinct_lines(uncalled)} lines; "
          f"{len(allow)} allow-listed")
    for problem in problems:
        print(problem)
    if problems:
        print(f"uncalled guard FAILED: {len(problems)} problem(s)")
        return 1
    print("uncalled guard OK")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[5:])
    sys.exit(main())
