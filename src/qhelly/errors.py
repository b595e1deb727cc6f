"""Shared exception types, and the base of the immutable records."""

from __future__ import annotations


class QhellyError(Exception):
    """Base class for all package errors."""


class UnsupportedDimensionError(QhellyError):
    """Exact hull support stops at ambient dimension 5."""


class DegenerateInputError(QhellyError):
    """Operation needs a full-dimensional (or otherwise non-degenerate) input."""


class BudgetExceededError(QhellyError):
    """Enumeration would exceed the configured state budget."""


class GuardRadiusError(QhellyError):
    """Outward search exceeded its radius cap; diagnostics in the message."""


class OutputError(QhellyError):
    """An output file (`--out`, `--emit-svg`) cannot be written."""


class CacheError(QhellyError):
    """Base class for census cache problems."""


class CacheMissingError(CacheError):
    """Required cache file absent."""


class CacheIncompleteError(CacheError):
    """Cache file present but not marked complete for the requested use."""


class CacheCorruptError(CacheError):
    """Cache file failed validation (header, body, trailer or content)."""


class FrozenRecord:
    """Base of the immutable __slots__ records that check their values or
    hold a cache: lattice.FiniteSite, witnesses.ConstructionRecipe and
    constants.Enclosure.  A subclass sets its fields once, through
    object.__setattr__, and refuses every later assignment.

    copy and pickle rebuild a record from the (None, {slot: value}) state
    of the default reduce, which __setstate__ restores the same way.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
