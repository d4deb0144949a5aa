"""Shared error types and the global memory cap.

Exceeding a cap is always an explicit error carrying partial progress
information; it is never a silently truncated answer.
"""

import os
from typing import Optional

# Rough per-vertex bookkeeping cost used to translate the megabyte cap into a
# vertex budget for ball construction (walks and cogrowth run on balls too).
_BYTES_PER_VERTEX = 200


class ValidationError(ValueError):
    """Bad user input: unknown generator, malformed spec, wrong family..."""


class CapExceeded(RuntimeError):
    """A configured resource cap was hit.

    Attributes:
        partial: optional progress indicator (e.g. vertex count reached).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def cap_megabytes() -> int:
    """Global memory cap in MB, from AMENLAB_CAP_MB (default 512)."""
    raw = os.environ.get("AMENLAB_CAP_MB", "512")
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"AMENLAB_CAP_MB must be an integer, got {raw!r}")
    if value <= 0:
        raise ValidationError("AMENLAB_CAP_MB must be positive")
    return value


def vertex_budget() -> int:
    """Vertex budget implied by the global memory cap."""
    return cap_megabytes() * 1_000_000 // _BYTES_PER_VERTEX


def check_vertex_count(count: int, context: str = "ball construction",
                       budget: Optional[int] = None):
    """Raise CapExceeded if ``count`` passes ``budget`` (by default
    ``vertex_budget()``)."""
    if budget is None:
        budget = vertex_budget()
    if count > budget:
        raise CapExceeded(
            f"{context} exceeded the memory cap ({count} > {budget} vertices); "
            "raise AMENLAB_CAP_MB to allow more",
            partial=count,
        )
