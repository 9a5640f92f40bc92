"""Learned (neural) string similarity functions (Section 5.1).

The production system trains character-level neural encoders per string type
(person names, location names, album titles, ...) so that the induced cosine
similarity captures semantic equivalences such as ``"Robert" ~ "Bob"`` in
addition to surface typos.  We reproduce the approach with a compact numpy
model:

* a string is decomposed into hashed character n-grams and word unigrams;
* each hash bucket has a learnable embedding vector;
* the string embedding is the L2-normalized mean of its feature embeddings;
* a synonym lexicon contributes shared features, so strings connected through
  synonym pairs obtain overlapping feature sets that training can exploit;
* training minimizes a cosine triplet loss over (anchor, positive, negative)
  string triples generated by distant supervision (see
  :mod:`repro.ml.training`).

The resulting :class:`StringEncoder` exposes ``encode`` and ``similarity``
with exactly the interface matching models consume as a feature function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.ml.similarity import normalize_string, tokens


def _stable_hash(text: str) -> int:
    """Deterministic 64-bit FNV-1a hash (``hash()`` is salted per process)."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass
class EncoderConfig:
    """Hyper-parameters of the character n-gram string encoder."""

    dimension: int = 64
    num_buckets: int = 4096
    ngram_sizes: tuple[int, ...] = (3,)
    use_word_features: bool = True
    word_feature_weight: int = 3     # how many times each word feature is repeated
    margin: float = 0.4
    learning_rate: float = 0.1
    epochs: int = 6
    seed: int = 13
    string_type: str = "generic"


class StringEncoder:
    """Character n-gram encoder producing dense, comparable string vectors."""

    def __init__(
        self,
        config: EncoderConfig | None = None,
        synonyms: dict[str, str] | None = None,
    ) -> None:
        self.config = config or EncoderConfig()
        rng = np.random.default_rng(self.config.seed)
        scale = 1.0 / math.sqrt(self.config.dimension)
        self.embeddings = rng.normal(
            0.0, scale, size=(self.config.num_buckets, self.config.dimension)
        )
        # Canonical-form lookup for synonyms: "bob" -> "robert".  Both surface
        # forms contribute the canonical token's features, which is how the
        # learned similarity captures semantic matches beyond typos.
        self.synonyms = {
            normalize_string(k): normalize_string(v) for k, v in (synonyms or {}).items()
        }
        self.trained = False
        self._training_loss: list[float] = []

    # -------------------------------------------------------------- #
    # featurization
    # -------------------------------------------------------------- #
    def features(self, text: object) -> list[int]:
        """Return the hashed feature bucket ids for *text*."""
        normalized = normalize_string(text)
        if not normalized:
            return []
        buckets: list[int] = []
        padded = f"^{normalized}$"
        for size in self.config.ngram_sizes:
            for start in range(max(len(padded) - size + 1, 1)):
                gram = padded[start:start + size]
                buckets.append(_stable_hash(f"ng{size}:{gram}") % self.config.num_buckets)
        if self.config.use_word_features:
            # Word-level features are repeated so they carry more weight than
            # individual character n-grams in the mean-pooled embedding; the
            # synonym lexicon maps surface forms ("bob") onto their canonical
            # token ("robert") so nickname pairs share these features.
            for token in tokens(normalized):
                canonical = self.synonyms.get(token, token)
                bucket = _stable_hash(f"w:{canonical}") % self.config.num_buckets
                buckets.extend([bucket] * max(1, self.config.word_feature_weight))
        return buckets

    def encode(self, text: object) -> np.ndarray:
        """Return the L2-normalized embedding of *text*."""
        feats = self.features(text)
        if not feats:
            return np.zeros(self.config.dimension)
        vector = self.embeddings[feats].mean(axis=0)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return np.zeros(self.config.dimension)
        return vector / norm

    def encode_batch(self, texts: list[object]) -> np.ndarray:
        """Encode a batch of strings into a ``(len(texts), dim)`` matrix."""
        return np.vstack([self.encode(text) for text in texts]) if texts else np.zeros(
            (0, self.config.dimension)
        )

    def similarity(self, first: object, second: object) -> float:
        """Cosine similarity of the two string embeddings, clipped to [0, 1]."""
        a, b = self.encode(first), self.encode(second)
        if not a.any() or not b.any():
            return 0.0
        value = float(np.dot(a, b))
        return max(0.0, min(1.0, (value + 1.0) / 2.0)) if value < 0 else min(1.0, value)

    # -------------------------------------------------------------- #
    # training
    # -------------------------------------------------------------- #
    def train(self, triplets: list[tuple[str, str, str]]) -> list[float]:
        """Fit the encoder with a cosine triplet loss via SGD.

        ``triplets`` holds ``(anchor, positive, negative)`` strings: the
        anchor should end up closer to the positive than to the negative by at
        least the configured margin.  Returns the per-epoch mean loss.
        """
        if not triplets:
            raise TrainingError("cannot train a string encoder on zero triplets")
        rng = np.random.default_rng(self.config.seed)
        losses = []
        order = np.arange(len(triplets))
        for _ in range(self.config.epochs):
            rng.shuffle(order)
            epoch_loss = 0.0
            for index in order:
                anchor, positive, negative = triplets[index]
                epoch_loss += self._sgd_step(anchor, positive, negative)
            losses.append(epoch_loss / len(triplets))
        self.trained = True
        self._training_loss = losses
        return losses

    @property
    def training_loss(self) -> list[float]:
        """Per-epoch mean triplet loss recorded by the last training run."""
        return list(self._training_loss)

    def _sgd_step(self, anchor: str, positive: str, negative: str) -> float:
        feats_a = self.features(anchor)
        feats_p = self.features(positive)
        feats_n = self.features(negative)
        if not feats_a or not feats_p or not feats_n:
            return 0.0
        vec_a = self._raw_vector(feats_a)
        vec_p = self._raw_vector(feats_p)
        vec_n = self._raw_vector(feats_n)
        sim_pos = _cosine(vec_a, vec_p)
        sim_neg = _cosine(vec_a, vec_n)
        loss = self.config.margin - sim_pos + sim_neg
        if loss <= 0.0:
            return 0.0
        # Sub-gradients of the hinge w.r.t. the raw (un-normalized) vectors.
        grad_a = _cosine_grad(vec_a, vec_n) - _cosine_grad(vec_a, vec_p)
        grad_p = -_cosine_grad(vec_p, vec_a)
        grad_n = _cosine_grad(vec_n, vec_a)
        self._apply_gradient(feats_a, grad_a)
        self._apply_gradient(feats_p, grad_p)
        self._apply_gradient(feats_n, grad_n)
        return float(loss)

    def _raw_vector(self, feats: list[int]) -> np.ndarray:
        return self.embeddings[feats].mean(axis=0)

    def _apply_gradient(self, feats: list[int], grad: np.ndarray) -> None:
        step = self.config.learning_rate * grad / len(feats)
        np.subtract.at(self.embeddings, feats, step)

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #
    def state_dict(self) -> dict:
        """Return a serializable snapshot of the encoder."""
        return {
            "config": self.config.__dict__.copy(),
            "embeddings": self.embeddings.copy(),
            "synonyms": dict(self.synonyms),
            "trained": self.trained,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StringEncoder":
        """Rebuild an encoder from :meth:`state_dict` output."""
        config = EncoderConfig(**state["config"])
        encoder = cls(config, synonyms=state.get("synonyms"))
        encoder.embeddings = np.array(state["embeddings"], dtype=float)
        encoder.trained = bool(state.get("trained", False))
        return encoder


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


def _cosine_grad(x: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Gradient of ``cos(x, other)`` with respect to ``x``."""
    norm_x = np.linalg.norm(x)
    norm_o = np.linalg.norm(other)
    if norm_x == 0.0 or norm_o == 0.0:
        return np.zeros_like(x)
    cos = float(np.dot(x, other) / (norm_x * norm_o))
    return other / (norm_x * norm_o) - cos * x / (norm_x * norm_x)
