"""Shape contracts for ``repro.nn`` forward passes.

A contract is a declarative spec string attached to a ``forward`` method::

    @shape_contract("C,H,W,N -> K,H',W',N")
    def forward(self, x): ...

The grammar is deliberately tiny — comma-separated dimension tokens on
each side of one ``->``:

- ``N``, ``C``, ``H'`` … — named symbolic dims (primes mark "same axis,
  possibly different extent", e.g. a strided convolution's ``H'``);
- ``*`` — any shape, preserved exactly (elementwise ops, containers);
- ``...`` — zero or more dims (at most once per side).

Contracts are *static* metadata: the decorator validates the spec once at
import time, registers it by qualname in :data:`CONTRACTS`, and attaches
it as ``__shape_contract__`` — it adds zero per-call overhead.  The
NES005 checker in :mod:`repro.analysis` verifies every public forward
carries one and that declared pipelines compose (:func:`check_chain`).

This module is stdlib-only so the lint engine can import it without
pulling in numpy.
"""

from __future__ import annotations

import re

__all__ = [
    "ContractError",
    "parse_spec",
    "compose",
    "check_chain",
    "shape_contract",
    "CONTRACTS",
]

#: Registry of declared contracts, keyed by function qualname
#: (e.g. ``"Conv2d.forward"``).
CONTRACTS: dict[str, str] = {}

_DIM = re.compile(r"^(?:\*|\.\.\.|[A-Za-z][A-Za-z0-9_]*'*)$")


class ContractError(ValueError):
    """A malformed contract spec or a non-composing contract chain."""


def _parse_side(side: str, spec: str) -> tuple[str, ...]:
    dims = tuple(token.strip() for token in side.strip().split(","))
    if any(not token for token in dims):
        raise ContractError(f"empty dimension token in contract {spec!r}")
    for token in dims:
        if not _DIM.match(token):
            raise ContractError(f"bad dimension token {token!r} in contract {spec!r}")
    if "*" in dims and len(dims) != 1:
        raise ContractError(f"'*' must stand alone in contract {spec!r}")
    if dims.count("...") > 1:
        raise ContractError(f"at most one '...' per side in contract {spec!r}")
    named = [token for token in dims if token not in ("*", "...")]
    seen: set[str] = set()
    for token in named:
        if token in seen:
            raise ContractError(
                f"duplicate dimension {token!r} on one side of contract "
                f"{spec!r}: name each axis once (use primes, e.g. "
                f"{token}', for a distinct extent)"
            )
        seen.add(token)
    return dims


def parse_spec(spec: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Parse ``"N,C,H,W -> N,K,H',W'"`` into (input dims, output dims)."""
    if not isinstance(spec, str):
        raise ContractError(f"contract spec must be a string, got {type(spec).__name__}")
    if spec.count("->") != 1:
        raise ContractError(f"contract needs exactly one '->': {spec!r}")
    left, right = spec.split("->")
    dims_in, dims_out = _parse_side(left, spec), _parse_side(right, spec)
    if ("*" in dims_in) != ("*" in dims_out):
        raise ContractError(f"'*' contracts must be '* -> *' (passthrough): {spec!r}")
    return dims_in, dims_out


def _accepts(current: tuple[str, ...] | None, dims_in: tuple[str, ...]) -> bool:
    """Does a shape of ``current``'s arity satisfy ``dims_in``?"""
    if current is None or current == ("*",) or dims_in == ("*",):
        return True
    if "..." in dims_in:
        return len(current) >= len(dims_in) - 1
    if "..." in current:
        return len(dims_in) >= len(current) - 1
    return len(current) == len(dims_in)


def compose(current: tuple[str, ...] | None, spec: str) -> tuple[str, ...] | None:
    """Feed a shape (the previous stage's output dims) through ``spec``.

    Returns the new output dims, or the unchanged input for ``* -> *``
    passthrough stages.  Raises :class:`ContractError` when the arities
    cannot line up.
    """
    dims_in, dims_out = parse_spec(spec)
    if not _accepts(current, dims_in):
        raise ContractError(
            f"contract {spec!r} expects {len(dims_in)} dims, got "
            f"{len(current)} ({','.join(current)})"
        )
    if dims_in == ("*",):  # passthrough: shape flows through unchanged
        return current
    return dims_out


def check_chain(specs: list[str]) -> tuple[str, ...] | None:
    """Verify a pipeline of contracts composes; return the final out dims.

    ``specs`` are contract strings in application order.  The first
    stage's input is unconstrained; every later stage must accept the
    arity its predecessor produces.
    """
    current: tuple[str, ...] | None = None
    for spec in specs:
        current = compose(current, spec)
    return current


def shape_contract(spec: str):
    """Attach a validated shape contract to a forward method."""
    parse_spec(spec)  # fail at import time, not lint time

    def wrap(fn):
        fn.__shape_contract__ = spec
        CONTRACTS[fn.__qualname__] = spec
        return fn

    return wrap
