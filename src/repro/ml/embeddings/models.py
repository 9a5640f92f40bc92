"""Knowledge-graph embedding models: TransE and DistMult (Section 5.3).

Both models assign each entity and predicate a continuous vector such that the
score of a triple ``<s, p, o>`` reflects its plausibility:

* **TransE** — ``score = -|| e_s + r_p - e_o ||``: a relation is a translation
  in embedding space;
* **DistMult** — ``score = <e_s, r_p, e_o>``: a relation is a diagonal bilinear
  form.

The models expose a shared interface (score triples, score against all
candidate objects, gradients for one positive/negative batch) so the trainer
and the downstream tasks (fact ranking, verification, imputation) do not care
which model is in use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import EmbeddingError


@dataclass
class EmbeddingConfig:
    """Shared hyper-parameters for KG embedding models."""

    dimension: int = 32
    learning_rate: float = 0.05
    margin: float = 1.0            # TransE margin
    regularization: float = 1e-4   # DistMult L2
    seed: int = 41


class KGEmbeddingModel(ABC):
    """Base class holding entity/relation parameter matrices."""

    name = "base"

    def __init__(self, num_entities: int, num_relations: int, config: EmbeddingConfig) -> None:
        if num_entities <= 0 or num_relations <= 0:
            raise EmbeddingError("embedding models need at least one entity and relation")
        self.config = config
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(config.dimension)
        self.entity_embeddings = rng.uniform(-scale, scale, (num_entities, config.dimension))
        self.relation_embeddings = rng.uniform(-scale, scale, (num_relations, config.dimension))

    # -- interface ---------------------------------------------------- #
    @abstractmethod
    def score(self, subjects: np.ndarray, relations: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Plausibility scores for aligned (subject, relation, object) id arrays."""

    @abstractmethod
    def score_all_objects(self, subject: int, relation: int) -> np.ndarray:
        """Scores of ``<subject, relation, ?>`` against every entity."""

    @abstractmethod
    def train_step(
        self,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> float:
        """One SGD step over aligned positive / negative triple id arrays.

        ``positives`` and ``negatives`` are ``(batch, 3)`` integer arrays of
        (subject, relation, object) ids; negatives are corruptions of the
        aligned positives.  Returns the mean batch loss.
        """

    def normalize(self) -> None:
        """Optional post-step parameter normalization."""

    @abstractmethod
    def predicted_object_vector(self, subject: int, relation: int) -> np.ndarray:
        """Vector ``f(theta_s, theta_p)`` used for nearest-neighbour object search."""


class TransE(KGEmbeddingModel):
    """Translation-based embeddings with a margin ranking loss."""

    name = "transe"

    def score(self, subjects: np.ndarray, relations: np.ndarray, objects: np.ndarray) -> np.ndarray:
        difference = (
            self.entity_embeddings[subjects]
            + self.relation_embeddings[relations]
            - self.entity_embeddings[objects]
        )
        return -np.linalg.norm(difference, axis=-1)

    def score_all_objects(self, subject: int, relation: int) -> np.ndarray:
        target = self.entity_embeddings[subject] + self.relation_embeddings[relation]
        return -np.linalg.norm(self.entity_embeddings - target, axis=1)

    def predicted_object_vector(self, subject: int, relation: int) -> np.ndarray:
        return self.entity_embeddings[subject] + self.relation_embeddings[relation]

    def train_step(self, positives: np.ndarray, negatives: np.ndarray) -> float:
        lr = self.config.learning_rate
        pos_scores = self.score(positives[:, 0], positives[:, 1], positives[:, 2])
        neg_scores = self.score(negatives[:, 0], negatives[:, 1], negatives[:, 2])
        # margin ranking loss: max(0, margin + d(pos) - d(neg)) with d = -score
        losses = np.maximum(0.0, self.config.margin - pos_scores + neg_scores)
        active = losses > 0
        if not np.any(active):
            return 0.0
        for index in np.nonzero(active)[0]:
            s, r, o = positives[index]
            s_n, r_n, o_n = negatives[index]
            pos_diff = (
                self.entity_embeddings[s] + self.relation_embeddings[r] - self.entity_embeddings[o]
            )
            neg_diff = (
                self.entity_embeddings[s_n]
                + self.relation_embeddings[r_n]
                - self.entity_embeddings[o_n]
            )
            pos_norm = np.linalg.norm(pos_diff) + 1e-9
            neg_norm = np.linalg.norm(neg_diff) + 1e-9
            pos_grad = pos_diff / pos_norm
            neg_grad = neg_diff / neg_norm
            self.entity_embeddings[s] -= lr * pos_grad
            self.relation_embeddings[r] -= lr * pos_grad
            self.entity_embeddings[o] += lr * pos_grad
            self.entity_embeddings[s_n] += lr * neg_grad
            self.relation_embeddings[r_n] += lr * neg_grad
            self.entity_embeddings[o_n] -= lr * neg_grad
        return float(losses.mean())

    def normalize(self) -> None:
        norms = np.linalg.norm(self.entity_embeddings, axis=1, keepdims=True)
        np.divide(self.entity_embeddings, np.maximum(norms, 1.0), out=self.entity_embeddings)


class DistMult(KGEmbeddingModel):
    """Diagonal bilinear embeddings with a logistic loss."""

    name = "distmult"

    def score(self, subjects: np.ndarray, relations: np.ndarray, objects: np.ndarray) -> np.ndarray:
        return np.sum(
            self.entity_embeddings[subjects]
            * self.relation_embeddings[relations]
            * self.entity_embeddings[objects],
            axis=-1,
        )

    def score_all_objects(self, subject: int, relation: int) -> np.ndarray:
        query = self.entity_embeddings[subject] * self.relation_embeddings[relation]
        return self.entity_embeddings @ query

    def predicted_object_vector(self, subject: int, relation: int) -> np.ndarray:
        return self.entity_embeddings[subject] * self.relation_embeddings[relation]

    def train_step(self, positives: np.ndarray, negatives: np.ndarray) -> float:
        lr = self.config.learning_rate
        reg = self.config.regularization
        triples = np.vstack([positives, negatives])
        labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
        scores = self.score(triples[:, 0], triples[:, 1], triples[:, 2])
        probabilities = 1.0 / (1.0 + np.exp(-scores))
        errors = probabilities - labels
        loss = float(
            np.mean(
                -labels * np.log(probabilities + 1e-9)
                - (1 - labels) * np.log(1 - probabilities + 1e-9)
            )
        )
        for index, (s, r, o) in enumerate(triples):
            error = errors[index]
            e_s = self.entity_embeddings[s]
            e_o = self.entity_embeddings[o]
            w_r = self.relation_embeddings[r]
            grad_s = error * w_r * e_o + reg * e_s
            grad_o = error * w_r * e_s + reg * e_o
            grad_r = error * e_s * e_o + reg * w_r
            self.entity_embeddings[s] -= lr * grad_s
            self.entity_embeddings[o] -= lr * grad_o
            self.relation_embeddings[r] -= lr * grad_r
        return loss


MODEL_REGISTRY = {
    "transe": TransE,
    "distmult": DistMult,
}
"""Embedding model constructors by name."""


def make_model(
    name: str, num_entities: int, num_relations: int, config: EmbeddingConfig | None = None
) -> KGEmbeddingModel:
    """Instantiate a registered embedding model by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise EmbeddingError(f"unknown embedding model {name!r} (known: {known})") from None
    return factory(num_entities, num_relations, config or EmbeddingConfig())
