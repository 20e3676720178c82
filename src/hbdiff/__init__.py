"""Series and quadrature machinery for diffusion problems driven by a
regularized fractional power of the Euler-type operator t^theta d/dt.

The package solves the one-dimensional initial-boundary-value problem with
homogeneous Dirichlet walls, and recovers a space-dependent source from the
final-time profile, both through sine-mode expansions whose time factors are
Mittag-Leffler functions of a stretched clock s = t^(1-theta).

Each module's ``__all__`` is the one list of its public names; this package
republishes them.
"""

from . import inverse, operators, quadrature, scalar, special, spectral, verify
from .errors import IllPosedError, ValidationError
from .inverse import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .scalar import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__all__ = ["IllPosedError", "ValidationError"]
__all__ += inverse.__all__
__all__ += operators.__all__
__all__ += quadrature.__all__
__all__ += scalar.__all__
__all__ += special.__all__
__all__ += spectral.__all__
__all__ += verify.__all__

__version__ = "0.1.0"
