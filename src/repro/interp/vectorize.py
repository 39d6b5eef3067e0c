"""Re-export of the vectorization switch, whose home is
:mod:`repro.codegen.vectorize` (the generated engine is the only one
that runs blocks).  The end-to-end benchmark harness imports
``enabled`` from here."""

from ..codegen.vectorize import enabled

__all__ = ["enabled"]
