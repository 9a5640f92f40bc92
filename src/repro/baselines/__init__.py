"""Baseline implementations the paper compares Saga's components against."""

from repro.baselines.embedding_baselines import (
    ClusterProfile,
    DGLKEStyleTrainer,
    PBGStyleTrainer,
)
from repro.baselines.legacy_nerd import (
    LegacyEntityLinker,
    PopularityDisambiguator,
)
from repro.baselines.legacy_views import LegacyViewEngine

__all__ = [
    "ClusterProfile",
    "DGLKEStyleTrainer",
    "LegacyEntityLinker",
    "LegacyViewEngine",
    "PBGStyleTrainer",
    "PopularityDisambiguator",
]
