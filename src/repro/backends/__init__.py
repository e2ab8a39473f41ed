"""Pluggable propagation backends.

Every placement algorithm and objective evaluation reduces to
topological-order sweeps; a *backend* is one implementation of those
sweeps behind the :class:`~repro.backends.base.PropagationBackend`
protocol:

* ``python`` — the exact arbitrary-precision reference engine
  (:class:`~repro.backends.python_backend.PythonBackend`).
* ``numpy`` — the levelized, batched int64 engine with automatic
  fallback to the exact path on overflow risk
  (:class:`~repro.backends.numpy_backend.NumpyBackend`).
* ``auto`` — ``numpy`` when available, else ``python``.

The registry (:mod:`repro.backends.registry`) owns instances and the
process default; :mod:`repro.propagation.engine`, :mod:`repro.core` and
the CLI all route through it.
"""

from repro.backends.base import PropagationBackend
from repro.backends.numpy_backend import NumpyBackend, numpy_available
from repro.backends.python_backend import PythonBackend
from repro.backends.registry import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)

__all__ = [
    "PropagationBackend",
    "PythonBackend",
    "NumpyBackend",
    "numpy_available",
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
