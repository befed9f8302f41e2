"""Token-selective view-decoupled transformer for cross-view person
re-identification, with a self-contained float64 autodiff core and a
synthetic planted-signal benchmark."""

import os

# The step works on small arrays, where a second BLAS thread only spins: pin
# one, unless the caller has set a count. OpenBLAS reads the count once, when
# numpy loads, so this holds only if `dtst` is imported before numpy; a
# script that imports numpy first sets the variable in its environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .tensor import Tape, Tensor, backward
from .model import ModelConfig, TokenSequence, model_forward, init_params
from .selector import SelectorConfig
from .losses import LossWeights
from .data import GenConfig, Sample, generate_dataset, pk_batch
from .optim import ScheduleConfig, SgdState, cosine_lr, sgd_step
from .train import train_run
from .evaluate import RetrievalReport, evaluate_protocol

__all__ = [
    "Tape", "Tensor", "backward",
    "ModelConfig", "TokenSequence", "model_forward", "init_params",
    "SelectorConfig",
    "LossWeights",
    "GenConfig", "Sample", "generate_dataset", "pk_batch",
    "ScheduleConfig", "SgdState", "cosine_lr", "sgd_step",
    "train_run",
    "RetrievalReport", "evaluate_protocol",
]

__version__ = "0.1.0"
