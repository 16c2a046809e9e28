"""k-deformed special functions and the half-line integral identities built on them.

The package has three layers:

* gamma machinery: the one-parameter deformation Gamma_k with
  Gamma_k(z + k) = z Gamma_k(z) and Gamma_k(k) = 1, its logarithm, the
  step-k Pochhammer product, and a slow quadrature oracle for cross-checks.
* series evaluators: the generalized modified k-Bessel function (a
  two-parameter-weighted power series with sign/scale parameter c that
  reduces to Bessel J and modified Bessel I at unit parameters), the
  k-deformed Fox-Wright function with its entirety guard, and plain pFq.
* identity verification: adaptive quadrature of the two kernel integrals
  against two independent closed-form series routes (the term-wise
  canonical series, trusted, and the packaged k-Wright form, audited), with
  a report/record layer the CLI exposes as eval/verify/sweep.

Each submodule's ``__all__`` lists its public names; the package re-exports
them all, so that list is the only one.
"""

from .errors import *
from .identities import *
from .kbessel import *
from .kgamma import *
from .quadrature import *
from .summation import *
from .wright import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + identities.__all__ + kbessel.__all__ + kgamma.__all__
           + quadrature.__all__ + summation.__all__ + wright.__all__ + ["__version__"])
