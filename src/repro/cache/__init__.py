"""Specialization code cache: content-addressed, in-memory, per-stage.

See :mod:`repro.cache.cache` for the stage model and
:mod:`repro.cache.keys` for what goes into a key.
"""

from repro.cache.cache import CacheStats, MachineEntry, SpecializationCache
from repro.cache.negative import NegativeCache, NegativeEntry
from repro.cache.store import LRUStore

__all__ = [
    "CacheStats", "LRUStore", "MachineEntry", "NegativeCache",
    "NegativeEntry", "SpecializationCache",
]
