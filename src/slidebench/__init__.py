"""Reproducible benchmarking pipeline for slide-level WSI classification."""

from .categories import (
    CLASSIFIED_CATEGORIES,
    Category,
    EffectiveSubset,
    Subset,
    effective_subset,
)
from .manifest import (
    Manifest,
    ManifestError,
    SlideMeta,
    effective_split,
    filter_categories,
    parse_manifest,
    serialize_manifest,
    write_manifest,
)
from .embeddings import (
    BackendSpec,
    CacheFormatError,
    EmbeddingMatrix,
    extract,
    missing_caches,
    read_cache,
    write_cache,
)
from .design import (
    DesignError,
    DesignMatrix,
    build_design,
    load_design,
    mean_aggregate,
    save_design,
    split_design,
)
from .metrics import (
    EvaluationReport,
    auroc,
    classification_report,
    confusion_matrix,
    macro_auroc,
    pr_curve,
    roc_curve,
)
from .rocstats import (
    DeLongResult,
    PairedScores,
    TTestResult,
    VenkatramanResult,
    delong_test,
    paired_ttest,
    venkatraman_test,
)
from .config import BackendConfig, ConfigError, RunConfig, load_config
from .runner import LearningCurve, compare_models, learning_curve, run_pipeline

__version__ = "0.1.0"
