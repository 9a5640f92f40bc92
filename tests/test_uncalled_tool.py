"""The uncalled-code guard (tools/uncalled.py) on a small fixture tree.

Each test builds a repository with a ``src/repro`` package, one example
script and a ``tests/`` directory, then runs the guard's ``main`` on it: the
example, and each test file the allow-list names, runs in a profiled
subprocess exactly as a real workload does.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncalled.py"


@pytest.fixture(scope="module")
def uncalled():
    spec = importlib.util.spec_from_file_location("uncalled_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module           # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


MODULE = '''
import threading


def used():
    return 1


def used_in_a_thread():
    return 2


def planted():
    return 3


def stub_docstring():
    """Only a docstring."""


def stub_ellipsis():
    ...


def stub_pass():
    pass


class Protocolish:
    def hook(self):
        """A hook a subclass fills in."""
        ...

    def run(self):
        thread = threading.Thread(target=used_in_a_thread)
        thread.start()
        thread.join()
        return used()
'''

EXAMPLE = '''
from repro.mod import Protocolish

print(Protocolish().run())
'''


def make_tree(root: Path, allow: str = "", test_text: str = "", example: str = EXAMPLE) -> Path:
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    (root / "src" / "repro" / "mod.py").write_text(textwrap.dedent(MODULE))
    (root / "examples").mkdir()
    (root / "examples" / "run.py").write_text(textwrap.dedent(example))
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(test_text)
    (root / "tools").mkdir()
    (root / "tools" / "uncalled_allow.txt").write_text(allow)
    return root


def run_guard(uncalled, root: Path, capsys) -> tuple[int, str]:
    status = uncalled.main(["--root", str(root)])
    return status, capsys.readouterr().out


def test_a_planted_uncalled_function_fails_the_guard(uncalled, tmp_path, capsys):
    status, out = run_guard(uncalled, make_tree(tmp_path), capsys)
    assert status == 1
    assert "mod.py:13: planted (2 lines) is entered by no workload" in out
    # entered on the main thread and on a worker thread: neither is reported
    assert ": used " not in out and "used_in_a_thread" not in out
    assert "uncalled guard FAILED: 1 problem(s)" in out


def test_stub_bodies_are_exempt(uncalled, tmp_path, capsys):
    functions, stubs = uncalled.defined_functions(make_tree(tmp_path) / "src" / "repro")
    names = {function.qualname for function in functions}
    assert stubs == 4
    assert names == {"used", "used_in_a_thread", "planted", "Protocolish.run"}
    status, out = run_guard(uncalled, tmp_path, capsys)
    assert "stub" not in out.replace("stubs exempt", "") and "hook" not in out


ALLOW_PLANTED = "mod.py::planted  tests/test_mod.py  only the fixture's test drives it\n"
CALLS_PLANTED = """
from repro.mod import planted


def test_planted():
    assert planted() == 3
"""


def test_an_allow_list_entry_needs_a_test_that_enters_the_function(
    uncalled, tmp_path, capsys
):
    # naming the function is not enough: the test file must enter it
    names_only = "from repro.mod import planted  # planted is tested elsewhere\n\n\n" \
        "def test_other():\n    assert planted\n"
    root = make_tree(tmp_path / "silent", allow=ALLOW_PLANTED, test_text=names_only)
    status, out = run_guard(uncalled, root, capsys)
    assert status == 1
    assert "tests/test_mod.py does not enter mod.py::planted" in out

    root = make_tree(tmp_path / "named", allow=ALLOW_PLANTED, test_text=CALLS_PLANTED)
    status, out = run_guard(uncalled, root, capsys)
    assert status == 0, out
    assert "tests/test_mod.py" in out and "uncalled guard OK" in out


def test_an_allow_list_entry_that_a_run_enters_fails(uncalled, tmp_path, capsys):
    allow = ALLOW_PLANTED + "mod.py::used  tests/test_mod.py  stale: the example calls it\n"
    root = make_tree(tmp_path, allow=allow, test_text=CALLS_PLANTED)
    status, out = run_guard(uncalled, root, capsys)
    assert status == 1
    assert "mod.py::used is entered by examples/run.py; it does not belong" in out
    assert "uncalled guard FAILED: 1 problem(s)" in out


def test_an_allow_list_entry_must_name_a_defined_function_and_test(
    uncalled, tmp_path, capsys
):
    allow = ALLOW_PLANTED + (
        "mod.py::gone  tests/test_mod.py  deleted long ago\n"
        "mod.py::planted  tests/test_missing.py  a test file that is not there\n"
    )
    root = make_tree(tmp_path, allow=allow, test_text=CALLS_PLANTED)
    status, out = run_guard(uncalled, root, capsys)
    assert status == 1
    assert "mod.py::gone is not a function under src/repro" in out
    assert "tests/test_missing.py does not exist" in out
    assert "uncalled guard FAILED: 2 problem(s)" in out


def test_a_run_that_crashes_before_entering_anything_fails(uncalled, tmp_path, capsys):
    root = make_tree(tmp_path, allow=ALLOW_PLANTED, test_text=CALLS_PLANTED,
                     example="raise SystemExit('broken before any call')\n")
    status, out = run_guard(uncalled, root, capsys)
    assert status == 1
    assert "examples/run.py: entered no src/repro function (exit 1)" in out


def test_a_line_inserted_while_the_guard_runs_moves_no_key(
    uncalled, tmp_path, capsys, monkeypatch
):
    # The source changes between the AST scan and the profiled runs: every
    # function below the new line starts one line later than the scan saw.
    root = make_tree(tmp_path, allow=ALLOW_PLANTED, test_text=CALLS_PLANTED)
    scan = uncalled.defined_functions

    def scan_then_edit(package):
        scanned = scan(package)
        module = package / "mod.py"
        module.write_text("# a line added above every function\n" + module.read_text())
        return scanned

    monkeypatch.setattr(uncalled, "defined_functions", scan_then_edit)
    status, out = run_guard(uncalled, root, capsys)
    assert status == 0, out
    assert "uncalled guard OK" in out


def test_two_functions_with_one_qualified_name_fail_the_guard(uncalled, tmp_path):
    root = make_tree(tmp_path)
    module = root / "src" / "repro" / "mod.py"
    module.write_text(module.read_text() + "\n\ndef planted():\n    return 4\n")
    functions, _ = uncalled.defined_functions(root / "src" / "repro")
    entered = {function.ident: "examples/run.py" for function in functions}
    _, problems = uncalled.judge(functions, entered, [], {})
    assert problems == [
        "src/repro/mod.py:41: planted is also defined at line 13; "
        "a run's entry cannot tell them apart"
    ]
