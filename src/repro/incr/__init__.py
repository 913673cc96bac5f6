"""Summary-based incremental cross-module recompilation.

The paper's +O4 pipeline re-optimizes the whole program on every
link; this package adds the WHOPR-style incremental layer on top:

* :mod:`summary` -- content fingerprints (per-module source-level
  summaries, and exact per-routine post-inline reuse keys);
* :mod:`state` -- persistence of summaries, keys, and cached
  per-module codegen blobs in a NAIM repository, plus the per-link
  session the drivers thread through HLO and codegen.

Division of labor: the cheap whole-program analyses (scan, IPCP,
cloning, inlining) decide only when their inputs changed, else apply
the stored outcome; the expensive per-routine phases (scalar pipeline +
LLO codegen) are skipped for every routine whose reuse key is unchanged.
Because the key covers everything those phases can observe, the
incremental output is byte-identical to a clean build
(:func:`repro.linker.objects.encode_executable` is the witness).
"""

from .state import IncrementalState, IncrLinkReport, IncrLinkSession
from .summary import (
    ModuleSummary,
    compute_routine_keys,
    options_fingerprint,
    routine_body_hash,
    view_fingerprint,
)

__all__ = [
    "IncrementalState",
    "IncrLinkReport",
    "IncrLinkSession",
    "ModuleSummary",
    "compute_routine_keys",
    "options_fingerprint",
    "routine_body_hash",
    "view_fingerprint",
]
