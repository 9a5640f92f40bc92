"""repro: an open-source reproduction of Saga (SIGMOD 2022).

Saga is a platform for continuous construction and serving of knowledge at
scale.  This package rebuilds every subsystem the paper describes as an
in-process Python library:

* :mod:`repro.model` — the extended-triples data model, ontology, provenance;
* :mod:`repro.ingestion` — ontology alignment (PGFs), eager delta
  computation, export;
* :mod:`repro.construction` — blocking, matching, correlation clustering,
  subject linking, object resolution, fusion, incremental construction;
* :mod:`repro.engine` — the Graph Engine: shared operation log, federated
  polystore (analytics warehouse, entity store, text index, vector DB), views,
  entity importance;
* :mod:`repro.live` — the live KG: streaming construction, KGQ query language,
  planner/executor, intents, multi-turn context, curation;
* :mod:`repro.ml` — learned string similarity, the NERD stack, KG embeddings;
* :mod:`repro.datagen` — the synthetic world, noisy sources, live streams, and
  annotated text corpora used to evaluate everything against known truth;
* :mod:`repro.baselines` — the legacy systems the paper compares against;
* :class:`repro.saga.SagaPlatform` — the end-to-end platform facade.
"""

from repro.saga import SagaMetrics, SagaPlatform

__version__ = "0.1.0"

__all__ = ["SagaMetrics", "SagaPlatform", "__version__"]
