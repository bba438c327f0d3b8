"""Movement-analysis toolkit: 55-feature descriptors from 3D joint
sequences, random-forest style classification and exact Shapley
attribution."""

__version__ = "0.1.0"

from .explain import tree_shap
from .features import (
    FEATURE_NAMES,
    FeatureTable,
    LmaConfig,
    SequencePrimitives,
    assemble_features,
    read_features_csv,
    write_features_csv,
)
from .floor import FloorPlane, fit_floor, flat_floor, height_above_floor
from .forest import (
    Dataset,
    ForestModel,
    ForestParams,
    cross_val_accuracy,
    grid_search,
    metrics,
    predict,
    predict_proba,
    stratified_group_kfold,
    train,
)
from .hull import hull_volume
from .kinematics import WindowConfig, derivative, windows
from .sequence import JointSequence, load_sequence, save_sequence, validate_and_repair
from .skeleton import SkeletonSpec, canonical_skeleton
from .synth import Oscillator, StyleSpec, default_styles, generate, generate_corpus

__all__ = [
    "tree_shap",
    "FEATURE_NAMES",
    "FeatureTable",
    "LmaConfig",
    "SequencePrimitives",
    "assemble_features",
    "read_features_csv",
    "write_features_csv",
    "FloorPlane",
    "fit_floor",
    "flat_floor",
    "height_above_floor",
    "Dataset",
    "ForestModel",
    "ForestParams",
    "cross_val_accuracy",
    "grid_search",
    "metrics",
    "predict",
    "predict_proba",
    "stratified_group_kfold",
    "train",
    "hull_volume",
    "WindowConfig",
    "derivative",
    "windows",
    "JointSequence",
    "load_sequence",
    "save_sequence",
    "validate_and_repair",
    "SkeletonSpec",
    "canonical_skeleton",
    "Oscillator",
    "StyleSpec",
    "default_styles",
    "generate",
    "generate_corpus",
]
