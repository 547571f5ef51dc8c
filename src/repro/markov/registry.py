"""Decorator-registered solver and TPM-backend registries.

This replaces the hard-coded ``SOLVER_NAMES`` tuple and the if/elif
dispatch that used to live in :mod:`repro.markov.stationary`: each solver
module registers itself with :func:`register_solver` at import time, and
:func:`repro.markov.stationary.stationary_distribution` looks the method
up here.  The same pattern serves the transition-matrix *backends*
(``assembled`` / ``matrix-free``) that
:mod:`repro.core.analyzer` selects from a spec's ``backend`` field; the
builders live in :mod:`repro.cdr.backends`.

Entries carry a uniform dispatch contract::

    entry.fn(operator, *, tol, max_iter, x0, monitor, **solver_kwargs)

where ``operator`` is anything :func:`repro.markov.linop.as_operator`
accepts.  ``matrix_free`` records whether the solver can run without an
assembled CSR matrix -- the capability matrix the CLI's ``repro solvers``
command prints.  ``fallback_priority`` orders solvers in the default
escalation chain of :class:`repro.resilience.fallback.FallbackPolicy`
(lower tries first; ``None`` keeps a solver out of default chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "SolverEntry",
    "register_solver",
    "get_solver",
    "solver_names",
    "solver_table",
    "BackendEntry",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_table",
]


# ---------------------------------------------------------------------- #
# stationary solvers
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class SolverEntry:
    """One registered stationary solver.

    ``fn`` follows the uniform dispatch contract
    ``fn(operator, *, tol, max_iter, x0, monitor, **kwargs)`` and returns a
    :class:`~repro.markov.solvers.result.StationaryResult`.
    """

    name: str
    fn: Callable[..., Any]
    matrix_free: bool
    description: str = ""
    default_max_iter: Optional[int] = None
    fallback_priority: Optional[int] = None


_SOLVERS: Dict[str, SolverEntry] = {}


def register_solver(
    name: str,
    *,
    matrix_free: bool,
    description: str = "",
    default_max_iter: Optional[int] = None,
    fallback_priority: Optional[int] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated dispatch function as the solver ``name``."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _SOLVERS:
            raise ValueError(f"solver {name!r} is already registered")
        _SOLVERS[name] = SolverEntry(
            name=name,
            fn=fn,
            matrix_free=matrix_free,
            description=description,
            default_max_iter=default_max_iter,
            fallback_priority=fallback_priority,
        )
        return fn

    return decorate


def get_solver(name: str) -> SolverEntry:
    """Look a solver up by registry key.

    Raises ``ValueError`` (message starts with ``unknown method``, matching
    the historical dispatch error) listing the registered names.
    """
    try:
        return _SOLVERS[name]
    except KeyError:
        choices = ("auto",) + solver_names()
        raise ValueError(
            f"unknown method {name!r}; choose from {choices}"
        ) from None


def solver_names() -> Tuple[str, ...]:
    """Registered solver keys, sorted (excludes the ``auto`` pseudo-method)."""
    return tuple(sorted(_SOLVERS))


def solver_table() -> Tuple[SolverEntry, ...]:
    """All registered solver entries, sorted by name."""
    return tuple(_SOLVERS[name] for name in solver_names())


# ---------------------------------------------------------------------- #
# transition-matrix backends
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class BackendEntry:
    """One registered TPM backend.

    ``build(spec)`` turns a :class:`~repro.core.spec.CDRSpec` into a model
    object the analyzer understands (a
    :class:`~repro.cdr.model.CDRChainModel` or an
    :class:`~repro.cdr.backends.OperatorCDRModel` facade).
    """

    name: str
    build: Callable[..., Any]
    description: str = ""


_BACKENDS: Dict[str, BackendEntry] = {}


def register_backend(
    name: str, *, description: str = ""
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated spec->model builder as the backend ``name``."""

    def decorate(build: Callable[..., Any]) -> Callable[..., Any]:
        if name in _BACKENDS:
            raise ValueError(f"backend {name!r} is already registered")
        _BACKENDS[name] = BackendEntry(
            name=name, build=build, description=description
        )
        return build

    return decorate


def get_backend(name: str) -> BackendEntry:
    """Look a backend up by name, with a choose-from error on misses."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {backend_names()}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def backend_table() -> Tuple[BackendEntry, ...]:
    """All registered backend entries, sorted by name."""
    return tuple(_BACKENDS[name] for name in backend_names())
