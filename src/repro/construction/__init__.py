"""Knowledge construction: blocking, matching, clustering, linking, OBR, fusion."""

from repro.construction.blocking import (
    BLOCKING_FUNCTIONS,
    Block,
    Blocker,
    BlockingConfig,
    BlockingStage,
)
from repro.construction.clustering import (
    ClusteringConfig,
    ClusteringStage,
    CorrelationClustering,
    EntityCluster,
    LinkageGraph,
    build_linkage_graph,
    materialize_clusters,
)
from repro.construction.fusion import Fusion, FusionConfig, FusionReport, FusionStage
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
    MatchingStage,
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
    ResolutionStage,
)
from repro.construction.pairs import (
    CandidatePair,
    PairGenerationConfig,
    PairGenerationStage,
    PairGenerator,
)
from repro.construction.pipeline import (
    GrowthHistory,
    GrowthPoint,
    KnowledgeConstructionPipeline,
)
from repro.construction.records import LinkableRecord, records_by_type
from repro.construction.stages import ConstructionStage, StageContext, StagePipeline
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
    "BlockingStage",
    "CandidatePair",
    "Claim",
    "ClusteringConfig",
    "ClusteringStage",
    "ConstructionReport",
    "ConstructionStage",
    "CorrelationClustering",
    "EntityCluster",
    "EntityDelta",
    "FeatureSpec",
    "Fusion",
    "FusionConfig",
    "FusionReport",
    "FusionStage",
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
    "MatchingStage",
    "NameIndexResolver",
    "ObjectResolutionStage",
    "ObjectResolutionStats",
    "PairGenerationConfig",
    "PairGenerationStage",
    "PairGenerator",
    "Resolution",
    "ResolutionContext",
    "ResolutionStage",
    "RuleBasedMatcher",
    "ScoredPair",
    "StageContext",
    "StagePipeline",
    "TruthDiscovery",
    "TruthDiscoveryConfig",
    "TruthDiscoveryResult",
    "build_linkage_graph",
    "default_features",
    "evaluate_linking",
    "feature_vector",
    "materialize_clusters",
    "records_by_type",
    "score_pairs",
]
