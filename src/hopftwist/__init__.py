"""hopftwist: exact computations with Hopf-algebra cochains, cocycle twists,
quasi-Hopf associators, graded-algebra diagnostics, and the deformed torus
function algebras they act on.

Everything is exact: rationals, cyclotomics, Laurent polynomials in the
formal 2*pi*i symbol, and truncated power series in hbar.  Floating point
appears only in optional report rendering.
"""

from .errors import HopftwistError

__version__ = "0.1.0"

__all__ = ["HopftwistError", "__version__"]
