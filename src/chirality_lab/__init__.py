"""Numerical laboratory for chirality systems div(S grad u) = 0 on the torus."""

__version__ = "0.1.0"

from chirality_lab.field_core import Grid2  # noqa: F401
