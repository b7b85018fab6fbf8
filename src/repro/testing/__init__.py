"""Test-support utilities: in-process fault injection for the rewrite
pipeline (:mod:`repro.testing.faults`) and the differential corpus that
runs seeded functions through every engine (:mod:`repro.testing.diffcorpus`)."""

from repro.testing.faults import FaultInjector, FaultSpec, inject_faults

__all__ = ["FaultInjector", "FaultSpec", "inject_faults"]
