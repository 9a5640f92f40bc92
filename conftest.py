"""Repo-level pytest configuration shared by tests/ and benchmarks/."""

#: The sequence count `--runs-seeded` selects with no value — the CI depth.
CI_SEEDED_RUNS = 200


def pytest_addoption(parser):
    parser.addoption(
        "--runs-seeded",
        nargs="?",
        const=CI_SEEDED_RUNS,
        default=25,
        type=int,
        help=(
            "seeded operation sequences per view-invariant property test; "
            f"the bare flag selects the CI depth of {CI_SEEDED_RUNS}"
        ),
    )


def capped_runs(runs: int, ci_cap: int) -> int:
    """Cap heavyweight seeded suites at *ci_cap* for the CI depth, scaling
    proportionally beyond it — the nightly soak's ``--runs-seeded 1000``
    runs them at 5x CI depth instead of being pinned to the cap."""
    return min(runs, max(ci_cap, runs * ci_cap // CI_SEEDED_RUNS))


#: Seed fixtures of the property suites, with the per-suite CI caps (None =
#: uncapped).  Centralized so every suite scales off the same CI depth:
#: op_seed/live_seed/fleet_seed drive tests/test_view_invariants.py,
#: qr_seed/ae_seed drive tests/test_query_router.py, construct_seed drives
#: tests/test_construction_batch.py, store_seed drives
#: tests/test_model_triples_columnar.py, kgq_seed drives
#: tests/test_live_executor_vectorized.py, fd_seed drives
#: tests/test_front_door.py, rpq_seed/rpq_fleet_seed drive
#: tests/test_live_rpq.py, index_seed drives tests/test_live_index_apply.py
#: and tests/test_live_member_forms.py,
#: ivm_seed/join_fleet_seed drive tests/test_join_ivm.py, jaro_seed drives
#: tests/test_similarity_oracle.py.
#: The heavyweight caps exist because
#: those sequences spin up serving-fleet worker threads (fleet_seed,
#: qr_seed, fd_seed, rpq_fleet_seed, join_fleet_seed), audit full checksum
#: maps per round (ae_seed), or run the full linking pipeline twice per
#: sequence, once delta by delta and once batch by batch (construct_seed).
SEED_FIXTURES = {
    "op_seed": None,
    "live_seed": 60,
    "fleet_seed": 60,
    "qr_seed": 40,
    "ae_seed": 30,
    "construct_seed": 40,
    "store_seed": None,
    "kgq_seed": None,
    "fd_seed": 40,
    "rpq_seed": None,
    "rpq_fleet_seed": 30,
    "index_seed": None,
    "ivm_seed": None,
    "join_fleet_seed": 30,
    "jaro_seed": None,
}


def pytest_generate_tests(metafunc):
    runs = int(metafunc.config.getoption("--runs-seeded"))
    for fixture, ci_cap in SEED_FIXTURES.items():
        if fixture in metafunc.fixturenames:
            count = runs if ci_cap is None else capped_runs(runs, ci_cap)
            metafunc.parametrize(fixture, range(count))
