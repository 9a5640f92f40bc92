"""Smoke test of the end-to-end benchmark, at ``--smoke`` size.

Checks the contract between BENCHMARK.json and what ``run.py`` prints; it
asserts nothing about speed.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

from bench_e2e import run, workloads

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_SPEC = run.load_spec()


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in _SPEC[section]}


def _run_in_process(capsys, *argv: str) -> tuple[int, list[str]]:
    code = run.main(list(argv))
    return code, capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in _SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert _SPEC["paths"] == ["bench_e2e"]
    names = [m["name"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]]
    names += [w["name"] for w in _SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in _SPEC["end_to_end"]}
    assert bounds.pop("peak_rss_mb") == 0.05
    # The timings, setup_s among them, have the widest bound the driver takes:
    # README.md, "Bounds the box can keep".
    assert set(bounds.values()) == {0.25}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_printed_once_with_its_unit(workload, capsys):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _run_in_process(
            capsys, "--workload", workload, "--smoke", "--seed", "0", "--trace", trace
        )
        assert code == 0, "\n".join(lines)
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        declared = _declared(section)
        assert list(last["metrics"]) == list(declared)
        for name, metric in last["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), name
            if section == "end_to_end":
                assert metric["value"] > 0, name
            else:
                assert metric["value"] >= 0, name
        # the report names every metric of this run once, with its unit
        printed = _declared("end_to_end") if trace == "0" else {**_declared("end_to_end"), **declared}
        report = [line.split() for line in lines[:-1] if line.startswith("  ")]
        for name, unit in printed.items():
            rows = [row for row in report if row[0] == name]
            assert len(rows) == 1, name
            assert rows[0][2] == unit, name


def test_a_second_seed_runs_clean_as_a_script():
    """The command of BENCHMARK.json, from the repository root, on another seed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, *_SPEC["command"][1:], "--workload", "serve_mix", "--smoke",
         "--seed", "7", "--trace", "0"],
        capture_output=True, text=True, cwd=root, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
