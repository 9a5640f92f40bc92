"""Construction output does not depend on the interpreter's hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so iterating a
set of record ids visits them in a different order in every process.  A
choice made in that order (which KG record an unattached source record joins
when correlation clustering splits a cluster around several KG records) made
the constructed KG differ from run to run.  The test bootstraps the same
small source suite in two processes under different hash seeds and compares
the fused store and the link table.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

#: Bootstrap a world of a quarter of the benchmark suite's entity counts;
#: print a digest of the fused store and the link table.
SNIPPET = """
import hashlib
from repro import SagaPlatform
from repro.datagen import WorldConfig, default_source_suite, generate_world

world = generate_world(WorldConfig(
    num_people=30, num_artists=12, num_actors=7, num_athletes=5, num_playlists=5,
    num_movies=12, num_cities=7, num_countries=2, num_schools=3, num_labels=3,
    num_teams=3, num_stadiums=3, num_companies=3,
    songs_per_artist=5, albums_per_artist=2, seed=73,
))
snapshot = [(source.source_id, source.entities)
            for source in default_source_suite(world, seed=500)]
platform = SagaPlatform()
for source_id, _ in snapshot:
    platform.register_source(source_id)
platform.ingest_batch(snapshot)
construction = platform.construction
content = repr((construction.store.canonical_rows(), sorted(construction.link_table.items())))
print(construction.store.fact_count(), hashlib.sha256(content.encode()).hexdigest())
"""


def _digest_under(hash_seed: str) -> str:
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", SNIPPET], env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_bootstrap_output_is_the_same_under_any_hash_seed():
    assert _digest_under("0") == _digest_under("7")
