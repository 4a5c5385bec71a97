"""The one CSV writer behind every exported analysis product.

A leaf module: ``physio`` sits below ``channel`` and ``capture_io`` in the
import graph, so the writer cannot live in either.
"""
from __future__ import annotations


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then one ``row_format.format(*row)`` line per row of
    the equal-length ``columns``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format.format(*row) + "\n" for row in zip(*columns))
