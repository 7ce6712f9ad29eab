"""The seven slide-level classifiers, CV search, and model serialization."""

from .base import (
    KIND_LABELS,
    KINDS,
    TABLE_ORDER,
    BaseClassifier,
    ClassifierSpec,
    Standardizer,
)
from .bayes import NaiveBayes
from .crossval import CvResult, cross_validate, stratified_folds
from .ensembles import AdaBoost, GradientBoosting, RandomForest
from .factory import DEFAULT_GRIDS, build_classifier, default_grid
from .io import MODEL_SUFFIX, ModelFormatError, load_model, save_model
from .linear import LogisticRegression
from .neighbors import KNearestNeighbor
from .trees import DecisionTree, FittedTree, TreeParams, bin_features, grow_tree, shared_bins

__all__ = [
    "KINDS",
    "KIND_LABELS",
    "TABLE_ORDER",
    "BaseClassifier",
    "ClassifierSpec",
    "Standardizer",
    "NaiveBayes",
    "CvResult",
    "cross_validate",
    "stratified_folds",
    "AdaBoost",
    "GradientBoosting",
    "RandomForest",
    "DEFAULT_GRIDS",
    "build_classifier",
    "default_grid",
    "MODEL_SUFFIX",
    "ModelFormatError",
    "load_model",
    "save_model",
    "LogisticRegression",
    "KNearestNeighbor",
    "DecisionTree",
    "FittedTree",
    "TreeParams",
    "bin_features",
    "grow_tree",
    "shared_bins",
]
