"""Admission control (Sec. 3.5, last paragraph).

The holistic analysis "forms an admission controller": a new flow is
accepted exactly when the holistic fixed point converges for the
*combined* flow set and every frame of every flow (existing and new)
still meets its end-to-end deadline.  Resource reservation needs no
billing and topology knowledge is complete (paper introduction), so the
controller decides from the analysis alone.

This module is the public import path of the one controller,
:class:`AdmissionController`.  It is implemented in
:mod:`repro.core.hierarchy`: each request re-solves only the flows the
candidate can change, with decisions, bounds and jitter tables
bit-identical to a from-scratch analysis of the admitted set.
"""

from __future__ import annotations

from repro.core.hierarchy import AdmissionController
from repro.core.results import AdmissionDecision

# Nothing in src/ calls this; perfbench's spans.ADMISSION wraps it.
from repro.core.holistic import holistic_analysis  # noqa: F401

__all__ = ["AdmissionController", "AdmissionDecision"]
