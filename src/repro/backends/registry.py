"""Backend registry: name-based lookup and the process-wide default.

Selection surface, smallest to largest scope:

* explicit argument — ``phi(graph, A, backend="numpy")`` or a backend
  instance (the Figure 11 runtime table passes a counting wrapper this
  way);
* :func:`use_backend` — a context manager scoping a default to one block;
* :func:`set_default_backend` — the process default, which the CLI's
  ``--backend`` flag sets before dispatching a command.

``"auto"`` (the initial default) resolves to the NumPy backend when
:mod:`numpy` is importable and to the exact Python backend otherwise, so
library users get the fast path for free while environments without NumPy
keep working unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.backends.base import PropagationBackend
from repro.backends.numpy_backend import NumpyBackend, numpy_available
from repro.backends.python_backend import PythonBackend
from repro.exceptions import ParameterError
from repro.scoping import ScopedDefault

#: Every name accepted by ``get_backend`` / the CLI ``--backend`` flag.
BACKEND_NAMES: tuple[str, ...] = ("python", "numpy", "auto")

_instances: dict[str, PropagationBackend] = {}

# ``use_backend`` scopes are per-thread: the service runs concurrent jobs
# with different backends on one worker pool, and a process-wide scope
# would let one request's backend leak into another's timed region.
_default: ScopedDefault[str | PropagationBackend] = ScopedDefault("auto")


def available_backends() -> tuple[str, ...]:
    """Concrete backend names usable in this environment."""
    return ("python", "numpy") if numpy_available() else ("python",)


def get_backend(name: str) -> PropagationBackend:
    """The singleton backend registered under ``name``.

    ``"auto"`` picks the fastest available backend.  Raises
    :class:`~repro.exceptions.ParameterError` for unknown names or for
    ``"numpy"`` when NumPy is not installed.
    """
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name not in ("python", "numpy"):
        known = ", ".join(BACKEND_NAMES)
        raise ParameterError(
            f"unknown backend {name!r}; known backends: {known}"
        )
    instance = _instances.get(name)
    if instance is None:
        if name == "numpy":
            if not numpy_available():
                raise ParameterError(
                    "backend 'numpy' requested but numpy is not installed; "
                    "use --backend python (or auto)"
                )
            instance = NumpyBackend()
        else:
            instance = PythonBackend()
        _instances[name] = instance
    return instance


def build_backend(name: str) -> PropagationBackend:
    """A fresh, private backend instance.

    Unlike :func:`get_backend` this never touches the singleton table, so
    per-backend caches (the NumPy level plans) start empty — how a cold
    measurement charges the one-time warm to itself.
    """
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name == "numpy":
        if not numpy_available():
            raise ParameterError(
                "backend 'numpy' requested but numpy is not installed; "
                "use backend 'python' (or 'auto')"
            )
        return NumpyBackend()
    if name == "python":
        return PythonBackend()
    known = ", ".join(BACKEND_NAMES)
    raise ParameterError(f"unknown backend {name!r}; known backends: {known}")


def resolve_backend(
    spec: str | PropagationBackend | None,
) -> PropagationBackend:
    """Turn a backend spec (name, instance, or None=default) into an instance.

    The default is the innermost :func:`use_backend` scope on the calling
    thread, falling back to the process-wide default.
    """
    if spec is None:
        spec = _default.get()
    if isinstance(spec, str):
        return get_backend(spec)
    return spec


def get_default_backend() -> PropagationBackend:
    """The backend used when no explicit one is supplied."""
    return resolve_backend(None)


def set_default_backend(spec: str | PropagationBackend) -> None:
    """Set the process-wide default backend (a name or an instance)."""
    if isinstance(spec, str) and spec not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ParameterError(
            f"unknown backend {spec!r}; known backends: {known}"
        )
    _default.set_global(spec)


@contextmanager
def use_backend(spec: str | PropagationBackend) -> Iterator[PropagationBackend]:
    """Scope the default backend to a ``with`` block, on this thread only.

    Yields the resolved instance so callers can also query it directly
    (a caller that scopes a counting wrapper reads its counters this way).
    Scopes nest, and being thread-local they cannot bleed between the
    service's concurrent placement jobs.
    """
    if isinstance(spec, str) and spec not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ParameterError(
            f"unknown backend {spec!r}; known backends: {known}"
        )
    with _default.scoped(spec):
        yield resolve_backend(spec)
