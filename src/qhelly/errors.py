"""Shared exception types."""

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

