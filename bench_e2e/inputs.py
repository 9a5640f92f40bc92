"""Seeded inputs: worlds, source snapshots, the serving KG and request lists.

Everything here is a pure function of ``--seed`` and a size, and runs before
any clock starts, so a seed fixes every request and every delta and the
program's counters (cache hits, rows, fragments) repeat exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from repro.datagen import (
    WorldConfig,
    default_source_suite,
    evolve_source,
    generate_world,
    world_to_store,
)
from repro.datagen.reference_kg import REFERENCE_SOURCE
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore

# The entity counts of benchmarks/conftest.py's BENCH_WORLD_CONFIG; a world
# of scale k multiplies every count by k.
_BASE_COUNTS = {
    "num_people": 120,
    "num_artists": 50,
    "num_actors": 30,
    "num_athletes": 20,
    "num_playlists": 20,
    "num_movies": 50,
    "num_cities": 30,
    "num_countries": 10,
    "num_schools": 15,
    "num_labels": 12,
    "num_teams": 14,
    "num_stadiums": 14,
    "num_companies": 12,
}

FOREST_FANOUT = 4
ZIPF_EXPONENT = 0.8         # puts the result-cache hit ratio near 0.3 (see README)
POOL_SIZE = 4096            # 16x the per-tenant result cache, 32x the plan cache
POINT_READ_SHARE = 0.20
JOIN_SHARE = 0.01

# The edge column a cross-view join fetches from kg_edges, per joined type.
_JOIN_COLUMNS = {
    "record_label": "headquarters",
    "company": "headquarters",
    "sports_team": "venue",
    "stadium": "located_in",
    "school": "located_in",
    "country": "capital",
}

# A request is a tuple whose first item names its kind:
#   ("kgq", view, text)             -> FrontDoor.query
#   ("read", view, subject)         -> fleet.read
#   ("join", left_text, right_text) -> fleet.join, entity_profile x kg_edges on name
Request = tuple


def make_world(scale: float):
    """The ground-truth world of *scale* times the benchmark-suite size.

    The dataset is fixed, like a scale factor: worlds built from different
    seeds differ by a fifth in construction cost and in query cost, which
    would drown the run-to-run comparison the benchmark exists for.  The
    ``--seed`` drives what is done to the dataset: the source deltas, the
    request sequences, the write batches.
    """
    counts = {key: max(2, int(value * scale)) for key, value in _BASE_COUNTS.items()}
    return generate_world(WorldConfig(songs_per_artist=5, albums_per_artist=2, seed=73, **counts))


def source_snapshots(world, seed: int, deltas: int) -> list[list[tuple[str, list]]]:
    """Snapshot 0 of the four-source suite, then *deltas* evolved snapshots.

    Snapshot 0 belongs to the fixed dataset; the evolution is drawn from
    *seed*.  Every source moves in every delta, so delta cycles are alike.
    """
    suite = default_source_suite(world, seed=500)
    snapshots = [[(source.source_id, source.entities) for source in suite]]
    rng = np.random.default_rng(49_000 + seed)
    for _ in range(deltas):
        suite = [evolve_source(world, source, rng=rng) for source in suite]
        snapshots.append([(source.source_id, source.entities) for source in suite])
    return snapshots


def serving_store(world) -> TripleStore:
    """The reference KG of *world* plus a fan-out-4 ``part_of`` forest.

    The forest hangs entity *i* (in sorted id order) under entity
    ``(i - 1) // 4``, so ``part_of`` closures are about log4(n) deep and the
    predicate is tree-shaped (the interval index serves it).
    """
    store = world_to_store(world)
    subjects = sorted(store.subjects())
    store.add_all(
        ExtendedTriple(
            subject=subject,
            predicate="part_of",
            obj=subjects[(index - 1) // FOREST_FANOUT],
            provenance=Provenance.from_source(REFERENCE_SOURCE, 0.95),
        )
        for index, subject in enumerate(subjects)
        if index > 0
    )
    return store


# ------------------------------------------------------------------ #
# request generation
# ------------------------------------------------------------------ #
def _by_type(profile_rows: dict[str, dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for subject in sorted(profile_rows):
        row = profile_rows[subject]
        name = row.get("name")
        if row.get("types") and name and '"' not in name:
            grouped.setdefault(row["types"][0], []).append(row)
    return grouped


def _zipf_sampler(rng: random.Random, size: int):
    """Draws ranks 0..size-1 with weight 1/(rank+1)^ZIPF_EXPONENT."""
    cumulative = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)))
    total = cumulative[-1]
    return lambda: min(bisect_left(cumulative, rng.random() * total), size - 1)


def _mix_pools(rng: random.Random, grouped: dict[str, list[dict]]) -> list[list[str]]:
    """Distinct KGQ texts over ``entity_profile`` in three pools — name-equality
    lookups, range filters with LIMIT, small-type scans — sized 70/22/8 of
    POOL_SIZE (fewer when the KG has fewer names) and shuffled, so a pool
    position is a popularity rank."""
    # A KG with fewer names than the pool needs asks for them with further
    # RETURN lists, so the pool stays several times the result cache and the
    # median request is an executed one, not a cache hit.
    lookups: list[str] = []
    for columns in ("name, fact_count, popularity", "name, fact_count", "name, popularity", "name"):
        batch = sorted(
            {
                f'MATCH {entity_type} WHERE name = "{row["name"]}" RETURN {columns}'
                for entity_type, rows in grouped.items()
                for row in rows
            }
        )
        rng.shuffle(batch)
        lookups.extend(batch[: int(POOL_SIZE * 0.70) - len(lookups)])
    # Range filters and scans walk a whole type, so they stay on the smaller
    # types; on the big ones a single request would cost tens of milliseconds
    # and a few of them would set a segment's p95.
    mid_types = sorted(t for t, rows in grouped.items() if len(rows) <= 600)
    small_types = sorted(t for t, rows in grouped.items() if len(rows) <= 200) or mid_types
    ranges: set[str] = set()
    range_target = max(1, len(lookups) * 22 // 70)
    while len(ranges) < range_target:
        entity_type = rng.choice(mid_types)
        if entity_type in ("city", "country") and rng.random() < 0.5:
            unit = 1_000 if entity_type == "city" else 1_000_000
            ranges.add(
                f"MATCH {entity_type} WHERE population > {rng.randint(1, 60) * unit} "
                f"RETURN name, population LIMIT {rng.randint(5, 30)}"
            )
        else:
            ranges.add(
                f"MATCH {entity_type} WHERE popularity > {rng.randint(5, 95) / 100} "
                f"RETURN name, popularity LIMIT {rng.randint(5, 30)}"
            )
    columns = ("name", "name, popularity", "name, fact_count", "name, fact_count, popularity")
    scans: set[str] = set()
    scan_target = max(1, len(lookups) * 8 // 70)
    while len(scans) < scan_target:
        scans.add(
            f"MATCH {rng.choice(small_types)} RETURN {rng.choice(columns)} "
            f"LIMIT {rng.randint(40, 400)}"
        )
    pools = [lookups, sorted(ranges), sorted(scans)]
    for pool in pools[1:]:
        rng.shuffle(pool)
    return pools


def _shares(size: int, shares: tuple[float, ...]) -> list[int]:
    """Split *size* by *shares*, rounding; the first share absorbs the rest."""
    counts = [round(size * share) for share in shares[1:]]
    return [size - sum(counts), *counts]


def mix_requests(
    profile_rows: dict[str, dict], seed: int, client: int, blocks: int, block_size: int
) -> list[Request]:
    """The ``serve_mix`` request sequence of one client.

    79 % KGQ texts through the front door, Zipf-drawn from one seed-wide pool
    (lookups, range filters and scans apart, so every block holds the same
    70/22/8 split), 20 % routed point reads, 1 % cross-view joins.  Each
    block of *block_size* requests has exactly that composition, shuffled:
    equal-work segments are then equal in kind as well as in count.
    """
    grouped = _by_type(profile_rows)
    pools = _mix_pools(random.Random(9_000), grouped)       # the pool is dataset, not draw
    rng = random.Random((9_000 + seed) * 1_000 + client)
    draws = [_zipf_sampler(rng, len(pool)) for pool in pools]
    subjects = sorted(profile_rows)
    join_types = sorted(
        t for t, rows in grouped.items() if t in _JOIN_COLUMNS and 2 <= len(rows) <= 200
    )
    joins = max(1, round(block_size * JOIN_SHARE)) if join_types else 0
    reads = round(block_size * POINT_READ_SHARE)
    kgq_counts = _shares(block_size - joins - reads, (0.70, 0.22, 0.08))
    requests: list[Request] = []
    for _ in range(blocks):
        block: list[Request] = []
        for pool, draw, count in zip(pools, draws, kgq_counts):
            block.extend(("kgq", "entity_profile", pool[draw()]) for _ in range(count))
        block.extend(("read", "entity_profile", rng.choice(subjects)) for _ in range(reads))
        for _ in range(joins):
            entity_type = rng.choice(join_types)
            block.append((
                "join",
                f"MATCH {entity_type} WHERE popularity > {rng.randint(20, 80) / 100} "
                "RETURN name, popularity",
                f"MATCH {entity_type} RETURN name, {_JOIN_COLUMNS[entity_type]}",
            ))
        rng.shuffle(block)
        requests.extend(block)
    return requests


_PATH_SHAPES = (
    # (share of a block, seeds, REACH expression); the first share absorbs rounding
    (0.40, "any", "part_of*"),
    (0.25, "any", "^part_of+"),
    (0.25, "artist", "^performed_by/part_of_album"),
    (0.10, "any", "(part_of|performed_by|record_label)+"),
)


def path_requests(
    profile_rows: dict[str, dict], seed: int, client: int, blocks: int, block_size: int
) -> list[Request]:
    """The ``serve_paths`` request sequence of one client: REACH queries over
    ``kg_edges``, every text used once so no result cache can answer, every
    block holding the same 40/25/25/10 split of the four shapes."""
    rng = random.Random((19_000 + seed) * 1_000 + client)
    grouped = _by_type(profile_rows)
    everyone = [(t, row["name"]) for t, rows in sorted(grouped.items()) for row in rows]
    artists = [("music_artist", row["name"]) for row in grouped.get("music_artist", [])]
    seeds = {"any": everyone, "artist": artists or everyone}
    counts = _shares(block_size, tuple(share for share, _, _ in _PATH_SHAPES))
    seen: dict[str, int] = {}
    requests: list[Request] = []
    for _ in range(blocks):
        block: list[Request] = []
        for (_, seed_kind, expression), count in zip(_PATH_SHAPES, counts):
            for _ in range(count):
                entity_type, name = rng.choice(seeds[seed_kind])
                base = (
                    f'MATCH {entity_type} WHERE name = "{name}" REACH {expression} RETURN name'
                )
                # A repeated seed gets the next LIMIT up: a new text, the
                # same work.
                repeat = seen.get(base, 0)
                seen[base] = repeat + 1
                block.append(("kgq", "kg_edges", f"{base} LIMIT {50 + repeat}"))
        rng.shuffle(block)
        requests.extend(block)
    return requests


def write_batches(
    subjects: list[str], seed: int, cycles: int, batch_size: int
) -> list[list[tuple[str, float]]]:
    """Per write cycle, the subjects to change and their new ``popularity``."""
    rng = random.Random(29_000 + seed)
    size = min(batch_size, len(subjects))
    return [
        [(subject, round(rng.random(), 4)) for subject in rng.sample(subjects, size)]
        for _ in range(cycles)
    ]
