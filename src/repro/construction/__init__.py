"""Knowledge construction: blocking, matching, clustering, linking, OBR, fusion."""

from repro.construction.blocking import (
    BLOCKING_FUNCTIONS,
    Block,
    Blocker,
    BlockingConfig,
)
from repro.construction.clustering import (
    ClusteringConfig,
    CorrelationClustering,
    EntityCluster,
    LinkageGraph,
    build_linkage_graph,
    cluster_records,
    materialize_clusters,
)
from repro.construction.fusion import Fusion, FusionConfig, FusionReport
from repro.construction.incremental import (
    ConstructionReport,
    EntityDelta,
    IncrementalConstructor,
)
from repro.construction.linking import (
    Linker,
    LinkingConfig,
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
from repro.construction.pairs import (
    CandidatePair,
    PairGenerationConfig,
    PairGenerator,
)
from repro.construction.pipeline import (
    GrowthHistory,
    GrowthPoint,
    KnowledgeConstructionPipeline,
)
from repro.construction.records import LinkableRecord, records_by_type
from repro.construction.truth_discovery import (
    Claim,
    TruthDiscovery,
    TruthDiscoveryConfig,
    TruthDiscoveryResult,
)

__all__ = [
    "BLOCKING_FUNCTIONS",
    "Block",
    "Blocker",
    "BlockingConfig",
    "CandidatePair",
    "Claim",
    "ClusteringConfig",
    "ConstructionReport",
    "CorrelationClustering",
    "EntityCluster",
    "EntityDelta",
    "FeatureSpec",
    "Fusion",
    "FusionConfig",
    "FusionReport",
    "GrowthHistory",
    "GrowthPoint",
    "IncrementalConstructor",
    "KnowledgeConstructionPipeline",
    "LearnedMatcher",
    "LinkableRecord",
    "LinkageGraph",
    "Linker",
    "LinkingConfig",
    "LinkingResult",
    "MatcherRegistry",
    "NameIndexResolver",
    "ObjectResolutionStage",
    "ObjectResolutionStats",
    "PairGenerationConfig",
    "PairGenerator",
    "Resolution",
    "ResolutionContext",
    "RuleBasedMatcher",
    "ScoredPair",
    "TruthDiscovery",
    "TruthDiscoveryConfig",
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
