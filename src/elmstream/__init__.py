"""Online sequential extreme learning machine for multi-label data streams.

Train a random-projection single-hidden-layer network with a batch
least-squares initialization, keep it up to date on streaming data with
recursive least-squares updates, and decode multi-label predictions with
a calibrated scalar threshold.

The top level exports what the README quick start uses plus the error
classes; everything else lives in its submodule (``data``, ``labels``,
``metrics``, ``model``, ``numerics``, ``cli``).
"""

from .data import DataError, StreamPlan, fit_normalizer, load_csv, stream_blocks
from .labels import calibrate_threshold, decode, to_bipolar
from .metrics import hamming_loss
from .model import init_hidden, init_phase, predict_raw, update
from .numerics import NumericalError, ShapeError, SingularMatrixError

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "NumericalError",
    "ShapeError",
    "SingularMatrixError",
    "StreamPlan",
    "calibrate_threshold",
    "decode",
    "fit_normalizer",
    "hamming_loss",
    "init_hidden",
    "init_phase",
    "load_csv",
    "predict_raw",
    "stream_blocks",
    "to_bipolar",
    "update",
]
