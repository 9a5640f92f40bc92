"""Shared fixtures for the benchmark harness.

Each benchmark reproduces one table/figure of the paper's evaluation (see
DESIGN.md §3 and EXPERIMENTS.md).  The fixtures build a benchmark-sized
synthetic world and the reference KG once per session.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.datagen import (
    TextCorpusConfig,
    TextCorpusGenerator,
    WorldConfig,
    generate_world,
    world_to_store,
)
from repro.model import default_ontology

BENCH_WORLD_CONFIG = WorldConfig(
    num_people=120,
    num_artists=50,
    num_actors=30,
    num_athletes=20,
    songs_per_artist=5,
    albums_per_artist=2,
    num_playlists=20,
    num_movies=50,
    num_cities=30,
    num_countries=10,
    num_schools=15,
    num_labels=12,
    num_teams=14,
    num_stadiums=14,
    num_companies=12,
    seed=73,
)


@pytest.fixture(scope="session")
def ontology():
    """The default open-domain ontology."""
    return default_ontology()


@pytest.fixture(scope="session")
def bench_world():
    """Benchmark-sized ground-truth world."""
    return generate_world(BENCH_WORLD_CONFIG)


@pytest.fixture(scope="session")
def bench_store(bench_world):
    """Reference KG for the benchmark world."""
    return world_to_store(bench_world)


@pytest.fixture(scope="session")
def bench_passages(bench_world):
    """Annotated text passages for the NERD benchmarks."""
    generator = TextCorpusGenerator(
        bench_world, TextCorpusConfig(num_passages=250, tail_fraction=0.55, seed=97)
    )
    return generator.generate()


def write_bench_json(filename: str, payload: dict) -> str:
    """Write a machine-readable benchmark summary for the CI artifact trail.

    Summaries land in ``$BENCH_JSON_DIR`` (default: the working directory,
    which in CI is the checkout root) so workflows can upload them as
    per-commit artifacts and track the performance trajectory.  Re-runs in
    one session merge into the existing file instead of clobbering sibling
    benchmarks' sections.
    """
    out_dir = os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    merged: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = {}
    merged.update(payload)
    merged["written_at_unix"] = round(time.time(), 3)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a small aligned table, mirroring the paper's reporting style."""
    widths = [len(h) for h in headers]
    rendered_rows = []
    for row in rows:
        rendered = [f"{value:.3f}" if isinstance(value, float) else str(value) for value in row]
        rendered_rows.append(rendered)
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
    line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for rendered in rendered_rows:
        print(" | ".join(cell.ljust(w) for cell, w in zip(rendered, widths)))
