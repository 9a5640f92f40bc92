"""Knowledge construction: blocking, matching, clustering, linking, OBR, fusion."""

from repro.construction.blocking import Block, Blocker
from repro.construction.clustering import (
    CorrelationClustering,
    EntityCluster,
    LinkageGraph,
    build_linkage_graph,
    cluster_records,
    materialize_clusters,
)
from repro.construction.fusion import Fusion, FusionReport
from repro.construction.incremental import (
    ConstructionReport,
    EntityDelta,
    IncrementalConstructor,
)
from repro.construction.linking import (
    Linker,
    LinkingResult,
    evaluate_linking,
)
from repro.construction.matching import (
    FeatureSpec,
    LearnedMatcher,
    MatcherRegistry,
    RuleBasedMatcher,
    ScoredPair,
    default_features,
    feature_vector,
    score_pairs,
)
from repro.construction.object_resolution import (
    NameIndexResolver,
    ObjectResolutionStage,
    ObjectResolutionStats,
    Resolution,
    ResolutionContext,
)
from repro.construction.pairs import CandidatePair, PairGenerator
from repro.construction.pipeline import (
    GrowthHistory,
    GrowthPoint,
    KnowledgeConstructionPipeline,
)
from repro.construction.records import LinkableRecord, records_by_type
from repro.construction.truth_discovery import (
    Claim,
    TruthDiscovery,
    TruthDiscoveryResult,
)

__all__ = [
    "Block",
    "Blocker",
    "CandidatePair",
    "Claim",
    "ConstructionReport",
    "CorrelationClustering",
    "EntityCluster",
    "EntityDelta",
    "FeatureSpec",
    "Fusion",
    "FusionReport",
    "GrowthHistory",
    "GrowthPoint",
    "IncrementalConstructor",
    "KnowledgeConstructionPipeline",
    "LearnedMatcher",
    "LinkableRecord",
    "LinkageGraph",
    "Linker",
    "LinkingResult",
    "MatcherRegistry",
    "NameIndexResolver",
    "ObjectResolutionStage",
    "ObjectResolutionStats",
    "PairGenerator",
    "Resolution",
    "ResolutionContext",
    "RuleBasedMatcher",
    "ScoredPair",
    "TruthDiscovery",
    "TruthDiscoveryResult",
    "build_linkage_graph",
    "cluster_records",
    "default_features",
    "evaluate_linking",
    "feature_vector",
    "materialize_clusters",
    "records_by_type",
    "score_pairs",
]
