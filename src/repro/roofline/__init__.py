"""Roofline model plus the paper's MSHR-ceiling extension (Figure 2)."""

from .model import Roofline, RooflinePoint, log_intensity_grid
from .mshr_ceiling import (
    ExtendedRoofline,
    MshrCeiling,
    mshr_ceiling,
)

__all__ = [
    "ExtendedRoofline",
    "MshrCeiling",
    "Roofline",
    "RooflinePoint",
    "log_intensity_grid",
    "mshr_ceiling",
]
