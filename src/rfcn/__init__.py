"""Recurrent fully-convolutional networks for online video segmentation."""

__version__ = "0.1.0"

from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     NumericsError, RfcnError, ShapeError)
from .model import (ArchitectureConfig, LayerSpec, ModelInstance, PRESET_NAMES,
                    RecurrentSpec, SkipLink, backward_window, forward_stream,
                    forward_window, forward_windows, init_model, load_checkpoint,
                    preset, save_checkpoint, shape_check)
from .tensor import Rng
from .training import TrainConfig, evaluate, predict, train
