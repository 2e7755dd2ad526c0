"""Virasoro coadjoint-orbit classification of periodic (cnoidal) KdV waves.

The package is organised in layers:

* :mod:`kdvorbits.elliptic` -- Jacobi elliptic functions and complete
  integrals (AGM based).
* :mod:`kdvorbits.weierstrass` -- Weierstrass p, zeta, sigma on the
  rectangular lattice attached to a cnoidal wave (p, p', zeta and sigma
  from one theta_1 series), plus the inverse of p (Legendre's F).
* :mod:`kdvorbits.orbits` -- closed-form Hill monodromy of a cnoidal
  wave, the orbit label it lands on, and level curves in the (m, V) plane.
* :mod:`kdvorbits.hill` -- independent numerical Floquet machinery (a
  direct ODE oracle) and a KdV time stepper.
* :mod:`kdvorbits.bands` -- the band-structure dictionary: crystal
  momentum, the Lame band edges for every N, numerically detected gaps.
* :mod:`kdvorbits.virasoro` -- circle diffeomorphisms, Schwarzian
  derivative, coadjoint action on Hill potentials.
* :mod:`kdvorbits.asymptotics` -- limiting formulas with validity
  estimates and convergence-order checks.
* :mod:`kdvorbits.shoaling` -- the shallow-water application: energy
  flux, depth from wave shape, the critical depth.

The ``kdvorbits`` console script (:mod:`kdvorbits.cli`) exposes the
classification, diagram, band, and shoaling machinery as deterministic
CSV/JSON commands.
"""

from .errors import (
    DomainError,
    InsideWedgeError,
    NumericalError,
    PoleError,
    ResolutionError,
    StabilityError,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "InsideWedgeError",
    "NumericalError",
    "ResolutionError",
    "StabilityError",
    "__version__",
]
