"""Exact perimeter-and-area series, symmetry classes and area limit laws for
square-lattice staircase polygons."""

from .radicals import RadicalConstant, gamma_half_integer
from .series import (
    DeltaJet,
    LaurentQPoly,
    XSeries,
    exact_ring,
    jet_q_power,
    jet_ring,
)
from .polygons import (
    CountTable,
    Polygon,
    enumerate_counts,
    enumerate_polygons,
    is_fixed,
    symmetry_signature,
)
from .feq import (
    CLASS_IDS,
    catalan,
    closed_form_coefficient,
    solve_series,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_IDS",
    "CountTable",
    "DeltaJet",
    "LaurentQPoly",
    "Polygon",
    "RadicalConstant",
    "XSeries",
    "catalan",
    "closed_form_coefficient",
    "enumerate_counts",
    "enumerate_polygons",
    "exact_ring",
    "gamma_half_integer",
    "is_fixed",
    "jet_q_power",
    "jet_ring",
    "solve_series",
    "symmetry_signature",
]
