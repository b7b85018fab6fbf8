"""Specialization code cache: content-addressed, two-level, per-stage.

See :mod:`repro.cache.cache` for the stage model and
:mod:`repro.cache.keys` for what goes into a key.
"""

from repro.cache.cache import CacheStats, MachineEntry, SpecializationCache
from repro.cache.flight import FlightTable
from repro.cache.negative import NegativeCache, NegativeEntry
from repro.cache.store import DiskStore, LRUStore

__all__ = [
    "CacheStats", "DiskStore", "FlightTable", "LRUStore", "MachineEntry",
    "NegativeCache", "NegativeEntry", "SpecializationCache",
]
