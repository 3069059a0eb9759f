"""Zero-range contact models for low-energy s-wave two-body scattering.

Core objects:

- :class:`~resokit.contact.PhaseShiftModel`: polynomial phase function
  g(E) = k cot(delta) of a one-channel contact model, with the two-term
  effective-range case as a constructor.
- :mod:`~resokit.scattering`, :mod:`~resokit.bound`: observables and bound
  states of such models, including the modified-product normalization.
- :mod:`~resokit.product`: the modified scalar product by the difference
  quotient of g.
- :mod:`~resokit.twochannel`: the Gaussian-regularized two-channel
  resonance model and its zero-range mapping onto the effective-range
  description.
- :mod:`~resokit.units`, :mod:`~resokit.species`: unit systems and magnetic
  resonance data ingestion.

All analysis code works in natural units (hbar = 1, atom mass = 1, so
E = k^2), and its formulas carry no hbar or mass constants; only the
two-channel model keeps its atom mass as a parameter. Conversions happen
at the boundary.

The package needs numpy only, and loads it only with a layer that does
array work. Every name below is served lazily: ``import resokit`` loads no
submodule, and a name loads its defining module on first use.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "BoundState": "bound",
    "ContactEigenstate": "product",
    "NATURAL": "units",
    "PhaseShiftModel": "contact",
    "ResonanceData": "units",
    "TwoChannelBoundState": "twochannel",
    "TwoChannelParams": "twochannel",
    "UnitSystem": "units",
    "classify_resonance": "units",
    "construct_two_pole_model": "product",
    "find_bound_states": "bound",
    "modified_norm_check": "bound",
    "modified_product": "product",
    "plain_overlap_bound": "product",
    "scattering_length_of_field": "units",
    "vdw_length": "units",
    "wavefunction": "bound",
    "width_radius": "units",
    "width_ratio": "units",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
