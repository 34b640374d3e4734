"""Quantum natural gradient over the Petz family of quantum Fisher metrics."""

import importlib

from . import classical, divergence, linalg, optimizer, petz, qfim, states
from .errors import (
    ConfigError,
    DegenerateSupportError,
    DomainError,
    MetricUndefinedError,
    NotHermitianError,
    NumericalError,
    ParseError,
    QngmError,
    RankDeficientError,
    ShapeMismatchError,
    SingularError,
    ValidationError,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use, so that `python -m qngm.cli` runs a fresh module
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "classical",
    "cli",
    "divergence",
    "linalg",
    "optimizer",
    "petz",
    "qfim",
    "states",
    "QngmError",
    "NotHermitianError",
    "DomainError",
    "SingularError",
    "DegenerateSupportError",
    "ShapeMismatchError",
    "RankDeficientError",
    "NumericalError",
    "MetricUndefinedError",
    "ConfigError",
    "ParseError",
    "ValidationError",
]
