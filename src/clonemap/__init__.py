"""Map code-clone groups across software versions via topic distributions."""

__version__ = "0.1.0"

from .errors import (
    CloneMapError,
    CloneMapWarning,
    ConfigError,
    CoverageError,
    FragmentRangeError,
    ReportParseError,
    ValidationError,
)
from .ingest import (
    CloneFragment,
    CloneGroup,
    VersionSnapshot,
    parse_clone_report,
    resolve_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)
from .preprocess import (
    FilterConfig,
    TokenDocument,
    build_group_document,
    default_filter_config,
    strip_comments,
    tokenize,
)
from .topicmodel import (
    Corpus,
    LdaConfig,
    LdaResult,
    TopicBlock,
    build_corpus,
    fit_group_topic,
    fit_lda,
    frequency_blocks,
)
from .mapping import (
    GroupMapping,
    MappingConfig,
    Metric,
    Strategy,
    baseline_text_map,
    lcs_matrix,
    lcs_similarity,
    map_version_pair,
    score_matrix,
    topic_similarity,
    unmatched_old_groups,
)
from .pipeline import mappings_from_artifact, run_map

__all__ = [
    "__version__",
    "CloneMapError",
    "CloneMapWarning",
    "ConfigError",
    "CoverageError",
    "FragmentRangeError",
    "ReportParseError",
    "ValidationError",
    "CloneFragment",
    "CloneGroup",
    "VersionSnapshot",
    "parse_clone_report",
    "resolve_snapshot",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "FilterConfig",
    "TokenDocument",
    "build_group_document",
    "default_filter_config",
    "strip_comments",
    "tokenize",
    "Corpus",
    "LdaConfig",
    "LdaResult",
    "TopicBlock",
    "build_corpus",
    "fit_group_topic",
    "fit_lda",
    "frequency_blocks",
    "Metric",
    "lcs_matrix",
    "lcs_similarity",
    "score_matrix",
    "topic_similarity",
    "GroupMapping",
    "MappingConfig",
    "Strategy",
    "baseline_text_map",
    "map_version_pair",
    "unmatched_old_groups",
    "EvalReport",
    "GroundTruth",
    "SynthConfig",
    "generate_evolution",
    "load_ground_truth",
    "score",
    "mappings_from_artifact",
    "run_map",
]

# The ground-truth scorer and the fixture generator load on first access
# (PEP 562), so ``import clonemap`` and a ``map`` never compile or run
# ``clonemap.evaluation``.
_EVALUATION_NAMES = frozenset({
    "EvalReport", "GroundTruth", "SynthConfig", "generate_evolution",
    "load_ground_truth", "score",
})


def __getattr__(name):
    if name in _EVALUATION_NAMES:
        from . import evaluation
        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _EVALUATION_NAMES)
