"""KV-cache retention policies for long interleaved text/image generation.

The package compares four retention strategies (dense, window, sink, and
the image-anchored mmsink) on a small deterministic transformer, trains the
dual next-token/feature-regression objective at desk scale, and reproduces
the attention-map key-statistics methodology the mmsink anchors come from.
"""

from .cachepolicy import CachePolicy, KvCache, bytes_estimate, retain_set
from .engine import Model, ModelConfig, forward_step, generate, predict_image_features
from .losses import LossReport, combined_loss, image_regression_loss, text_ce_loss, train_toy
from .seqmodel import (
    MultimodalSequence,
    Story,
    Token,
    TokenKind,
    TrainingSample,
    assemble_training_sequence,
    read_stories,
    synth_stories,
    tokenize_text,
    write_stories,
)

__version__ = "0.1.0"

__all__ = [
    "CachePolicy",
    "KvCache",
    "LossReport",
    "Model",
    "ModelConfig",
    "MultimodalSequence",
    "Story",
    "Token",
    "TokenKind",
    "TrainingSample",
    "assemble_training_sequence",
    "bytes_estimate",
    "combined_loss",
    "forward_step",
    "generate",
    "image_regression_loss",
    "predict_image_features",
    "read_stories",
    "retain_set",
    "synth_stories",
    "text_ce_loss",
    "tokenize_text",
    "train_toy",
    "write_stories",
    "__version__",
]
