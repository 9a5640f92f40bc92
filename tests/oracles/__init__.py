"""Reference implementations the equivalence suites and ratio benchmarks compare against.

``src/`` holds one triple store, one KGQ executor and one Jaro kernel; their
slower twins live here, as oracles:

* :class:`~oracles.legacy_store.LegacyTripleStore` — the pre-columnar store
  (``tests/test_model_triples_columnar.py``, ``benchmarks/bench_triplestore.py``);
* :class:`~oracles.per_document_executor.PerDocumentExecutor` — the
  per-document KGQ loop (``tests/test_live_executor_vectorized.py``,
  ``tests/test_live_rpq.py``, ``benchmarks/bench_kgq_executor.py``);
* :mod:`~oracles.jaro` — the window-scanning Jaro kernel and the per-pair
  name features linking used before it compared each string once
  (``tests/test_similarity_oracle.py``).

pytest puts ``tests/`` on ``sys.path`` for the test modules; the benchmarks
need it there explicitly (``PYTHONPATH=src:tests``, as CI sets it).
"""
