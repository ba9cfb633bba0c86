"""Utilities: test-matrix generators, validation helpers, the retry
schedule (:mod:`repro.utils.retry`) and the worker pool
(:mod:`repro.utils.workers`)."""

from repro.utils.generators import latms, random_matrix, graded_singular_values
from repro.utils.validation import (
    relative_error,
    max_relative_error,
    orthogonality_error,
    reconstruction_error,
)

__all__ = [
    "latms",
    "random_matrix",
    "graded_singular_values",
    "relative_error",
    "max_relative_error",
    "orthogonality_error",
    "reconstruction_error",
]
