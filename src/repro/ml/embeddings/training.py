"""Training harness for KG embedding models (Section 5.3).

Responsibilities:

* extract the relationship-only edge list from a KG triple store (the paper
  registers a specialized view filtering metadata facts; :func:`extract_edges`
  plays that role);
* map entities and relations to contiguous integer ids;
* run epoch-based training with uniform negative sampling, either fully
  in memory (:class:`InMemoryTrainer`) or through the Marius-style partition
  buffer (:class:`repro.ml.embeddings.partitioning.PartitionBufferTrainer`);
* evaluate link-prediction quality (mean reciprocal rank, hits@k) which backs
  fact ranking / verification / imputation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import EmbeddingError
from repro.ml.embeddings.models import EmbeddingConfig, KGEmbeddingModel, make_model
from repro.model.triples import TripleStore

#: Predicates that do not describe entity-to-entity relationships and are
#: filtered out of the training view.
METADATA_PREDICATES = {
    "name", "alias", "title", "full_title", "description", "type", "same_as",
    "popularity", "image_url", "locale",
}


@dataclass
class KGEdgeList:
    """Integer-encoded edge list plus the id vocabularies."""

    edges: np.ndarray                        # (num_edges, 3) int array
    entity_ids: list[str]
    relation_ids: list[str]
    entity_index: dict[str, int] = field(default_factory=dict)
    relation_index: dict[str, int] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        """Number of distinct entities."""
        return len(self.entity_ids)

    @property
    def num_relations(self) -> int:
        """Number of distinct relations."""
        return len(self.relation_ids)

    @property
    def num_edges(self) -> int:
        """Number of training edges."""
        return len(self.edges)

    def split(self, test_fraction: float = 0.1, seed: int = 9) -> tuple["KGEdgeList", "KGEdgeList"]:
        """Split into train / test edge lists sharing the vocabularies."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.num_edges)
        cut = max(1, int(self.num_edges * test_fraction))
        test_rows = self.edges[order[:cut]]
        train_rows = self.edges[order[cut:]]
        train = KGEdgeList(train_rows, self.entity_ids, self.relation_ids,
                           self.entity_index, self.relation_index)
        test = KGEdgeList(test_rows, self.entity_ids, self.relation_ids,
                          self.entity_index, self.relation_index)
        return train, test


def extract_edges(store: TripleStore) -> KGEdgeList:
    """Build the relationship-only edge list from a KG triple store."""
    subjects = store.subjects()
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    entity_ids: list[str] = []
    relation_ids: list[str] = []
    rows: list[tuple[int, int, int]] = []

    def entity_id_of(identifier: str) -> int:
        index = entity_index.get(identifier)
        if index is None:
            index = len(entity_ids)
            entity_index[identifier] = index
            entity_ids.append(identifier)
        return index

    def relation_id_of(name: str) -> int:
        index = relation_index.get(name)
        if index is None:
            index = len(relation_ids)
            relation_index[name] = index
            relation_ids.append(name)
        return index

    for subject, predicate, r_predicate, obj, _ in store.scan_tuples():
        predicate = r_predicate or predicate
        if predicate in METADATA_PREDICATES:
            continue
        if not isinstance(obj, str) or obj not in subjects:
            continue
        rows.append((entity_id_of(subject), relation_id_of(predicate), entity_id_of(obj)))
    if not rows:
        raise EmbeddingError("the KG contains no entity-to-entity relationship facts")
    return KGEdgeList(
        edges=np.array(rows, dtype=np.int64),
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        entity_index=entity_index,
        relation_index=relation_index,
    )


def sample_negatives(
    positives: np.ndarray, num_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt the object (or subject, 50/50) of every positive triple."""
    negatives = positives.copy()
    corrupt_object = rng.random(len(positives)) < 0.5
    random_entities = rng.integers(0, num_entities, size=len(positives))
    negatives[corrupt_object, 2] = random_entities[corrupt_object]
    negatives[~corrupt_object, 0] = random_entities[~corrupt_object]
    return negatives


@dataclass
class TrainingReport:
    """Outcome of one training run."""

    model_name: str
    epochs: int
    final_loss: float
    loss_history: list[float]
    seconds: float
    peak_memory_bytes: int
    partition_swaps: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class TrainerConfig:
    """Epochs, batching, and negative-sampling knobs shared by trainers."""

    epochs: int = 10
    batch_size: int = 256
    negatives_per_positive: int = 1
    seed: int = 17


class InMemoryTrainer:
    """Baseline trainer keeping every parameter in memory."""

    def __init__(
        self,
        model_name: str = "transe",
        model_config: EmbeddingConfig | None = None,
        trainer_config: TrainerConfig | None = None,
    ) -> None:
        self.model_name = model_name
        self.model_config = model_config or EmbeddingConfig()
        self.trainer_config = trainer_config or TrainerConfig()
        self.model: KGEmbeddingModel | None = None

    def train(self, edges: KGEdgeList) -> TrainingReport:
        """Train the configured model over the full edge list."""
        model = make_model(
            self.model_name, edges.num_entities, edges.num_relations, self.model_config
        )
        rng = np.random.default_rng(self.trainer_config.seed)
        losses = []
        started = time.perf_counter()
        for _ in range(self.trainer_config.epochs):
            order = rng.permutation(edges.num_edges)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, edges.num_edges, self.trainer_config.batch_size):
                batch = edges.edges[order[start:start + self.trainer_config.batch_size]]
                negatives = sample_negatives(batch, edges.num_entities, rng)
                epoch_loss += model.train_step(batch, negatives)
                batches += 1
            model.normalize()
            losses.append(epoch_loss / max(batches, 1))
        elapsed = time.perf_counter() - started
        self.model = model
        peak_memory = (
            model.entity_embeddings.nbytes + model.relation_embeddings.nbytes
        )
        return TrainingReport(
            model_name=self.model_name,
            epochs=self.trainer_config.epochs,
            final_loss=losses[-1] if losses else 0.0,
            loss_history=losses,
            seconds=elapsed,
            peak_memory_bytes=peak_memory,
        )


def evaluate_link_prediction(
    model: KGEmbeddingModel, test_edges: np.ndarray, hits_at: tuple[int, ...] = (1, 10)
) -> dict[str, float]:
    """Mean reciprocal rank and hits@k of object prediction on test edges."""
    if len(test_edges) == 0:
        return {"mrr": 0.0, **{f"hits@{k}": 0.0 for k in hits_at}}
    reciprocal_ranks = []
    hits = {k: 0 for k in hits_at}
    for subject, relation, obj in test_edges:
        scores = model.score_all_objects(int(subject), int(relation))
        rank = int(np.sum(scores > scores[int(obj)])) + 1
        reciprocal_ranks.append(1.0 / rank)
        for k in hits_at:
            if rank <= k:
                hits[k] += 1
    total = len(test_edges)
    metrics = {"mrr": float(np.mean(reciprocal_ranks))}
    for k in hits_at:
        metrics[f"hits@{k}"] = hits[k] / total
    return metrics
