"""Online sequential extreme learning machine for multi-label data streams.

Train a random-projection single-hidden-layer network with a batch
least-squares initialization, keep it up to date on streaming data with
recursive least-squares updates, and decode multi-label predictions with
a calibrated scalar threshold.
"""

from .data import (
    DataError,
    LabeledDataset,
    Normalizer,
    StreamPlan,
    fit_normalizer,
    kfold,
    load_csv,
    load_fold_file,
    load_sparse,
    save_sparse,
    stream_blocks,
)
from .labels import (
    ThresholdCalibration,
    calibrate_threshold,
    decode,
    to_bipolar,
)
from .metrics import (
    MetricsReport,
    compute_report,
    example_accuracy,
    example_prf,
    format_report,
    hamming_loss,
    label_cardinality,
    label_density,
    report_kv_lines,
)
from .model import (
    ACTIVATIONS,
    HiddenLayer,
    OselmModel,
    hidden_output,
    init_hidden,
    init_phase,
    load_model,
    predict_raw,
    save_model,
    update,
)
from .numerics import (
    NumericalError,
    ShapeError,
    SingularMatrixError,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "DataError",
    "HiddenLayer",
    "LabeledDataset",
    "MetricsReport",
    "Normalizer",
    "NumericalError",
    "OselmModel",
    "ShapeError",
    "SingularMatrixError",
    "StreamPlan",
    "ThresholdCalibration",
    "calibrate_threshold",
    "compute_report",
    "decode",
    "example_accuracy",
    "example_prf",
    "fit_normalizer",
    "format_report",
    "hamming_loss",
    "hidden_output",
    "init_hidden",
    "init_phase",
    "kfold",
    "label_cardinality",
    "label_density",
    "load_csv",
    "load_fold_file",
    "load_model",
    "load_sparse",
    "predict_raw",
    "report_kv_lines",
    "save_model",
    "save_sparse",
    "stream_blocks",
    "to_bipolar",
    "update",
]
