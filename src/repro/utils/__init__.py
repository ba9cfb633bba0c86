"""Utilities: test-matrix generators, validation helpers, the retry
schedule and the worker pool (:mod:`repro.utils.workers`)."""

from repro.utils.generators import latms, random_matrix, graded_singular_values
from repro.utils.retry import RetryPolicy, backoff_delay
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
    "RetryPolicy",
    "backoff_delay",
]
