"""Zero-range contact models for low-energy s-wave two-body scattering.

Core objects:

- :class:`~resokit.contact.PhaseShiftModel`: polynomial phase function
  g(E) = k cot(delta) of a one-channel contact model, with the two-term
  effective-range case as a constructor.
- :mod:`~resokit.scattering`, :mod:`~resokit.bound`: observables and bound
  states of such models, including the modified-product normalization.
- :mod:`~resokit.product`: the modified scalar product in its
  difference-quotient and double-series forms.
- :mod:`~resokit.twochannel`: the Gaussian-regularized two-channel
  resonance model and its zero-range mapping onto the effective-range
  description.
- :mod:`~resokit.units`, :mod:`~resokit.species`: unit systems and magnetic
  resonance data ingestion.

All analysis code works in natural units (hbar = 1, atom mass = 1, so
E = k^2), and its formulas carry no hbar or mass constants; only the
two-channel model keeps its atom mass as a parameter. Conversions happen
at the boundary.

The package needs numpy only. The two-channel names below are served
lazily, so that the one-channel layers load without the two-channel model.
"""

__version__ = "0.1.0"

from .bound import BoundState, find_bound_states, modified_norm_check, wavefunction
from .contact import PhaseShiftModel, parse_model_literal
from .product import (
    ContactEigenstate,
    construct_two_pole_model,
    modified_product,
    modified_product_series,
    plain_overlap_bound,
    reg_matrix_element,
)
from .units import (
    NATURAL,
    ResonanceData,
    UnitSystem,
    classify_resonance,
    convert_resonance,
    scattering_length_of_field,
    vdw_length,
    width_radius,
)

__all__ = [
    "__version__",
    "BoundState",
    "ContactEigenstate",
    "NATURAL",
    "PhaseShiftModel",
    "ResonanceData",
    "TwoChannelBoundState",
    "TwoChannelParams",
    "UnitSystem",
    "classify_resonance",
    "construct_two_pole_model",
    "convert_resonance",
    "find_bound_states",
    "modified_norm_check",
    "modified_product",
    "modified_product_series",
    "parse_model_literal",
    "plain_overlap_bound",
    "reg_matrix_element",
    "scattering_length_of_field",
    "vdw_length",
    "wavefunction",
    "width_radius",
]


def __getattr__(name):
    if name in ("TwoChannelBoundState", "TwoChannelParams"):
        from . import twochannel

        return getattr(twochannel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
