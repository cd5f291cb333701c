"""Deepfake speech detection from breathing patterns.

A two-stage pipeline: a framewise neural detector finds breath events
in speech audio, and simple classifiers over per-sample breath
statistics (rate, duration, spacing) decide whether the sample is real
or machine-generated.
"""

__version__ = "0.1.0"

from .annotations import (
    BreathIntervalSet,
    frames_from_intervals,
    load_annotations,
    save_annotations,
    steps_from_frames,
)
from .audio_io import CANONICAL_RATE, AudioBuffer, load_wav, resample, write_wav
from .breath_stats import BreathStats, compute_stats
from .classifiers import (
    LabeledSample,
    SvcModel,
    TreeModel,
    svc_classify,
    svc_score,
    svc_train,
    threshold_classify,
    tree_classify,
    tree_score,
    tree_train,
)
from .errors import (
    BreathlineError,
    ConfigError,
    FormatError,
    InputError,
    ShapeError,
    TrainingError,
    UndefinedMetricError,
    UnsupportedFormatError,
    ValidationError,
)
from .evaluation import (
    CorpusItem,
    ExperimentResult,
    SplitPlan,
    detect_manifest,
    outlet_disjoint_split,
    run_pipeline_eval,
    test1_contiguous_kfold,
    test2_leave_one_podcast,
    test3_leave_one_speaker,
)
from .features import FeatureConfig, FeatureMatrix, extract_features
from .manifest import ManifestEntry, load_manifest, save_manifest
from .metrics import (
    EvalReport,
    PointMetrics,
    ScoredPredictions,
    auprc,
    eer,
    point_metrics,
)
from .nn import BreathDetectorModel, ModelConfig, TrainConfig, load_model, save_model, train
from .postprocess import DetectionConfig, detect_breaths, slices_to_intervals
from .synth import SynthesisConfig, synthesize_corpus, synthesize_one
