"""Shared utilities: error hierarchy, deterministic ordering helpers."""

from repro.util.errors import (
    SoapError,
    NotSoapError,
    FrontendError,
    SolverError,
    PebblingError,
)
from repro.util.orderedsets import unique_in_order

__all__ = [
    "SoapError",
    "NotSoapError",
    "FrontendError",
    "SolverError",
    "PebblingError",
    "unique_in_order",
]
