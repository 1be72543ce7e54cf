"""Numerical toolkit for multi-peak alternate-sign spike solutions of
eps^2 lap(v) - v + f(v) = 0 with zero Dirichlet data on strictly convex
planar domains.

The pipeline: compute the radial ground-state profile (ground_state),
pack spikes on an inner parallel curve of the domain (geometry, packing),
minimize the reduced interaction energy of the configuration
(reduced_energy), and verify the result against a full nonlinear
finite-difference solve (pde). The verify module holds the ten-point
acceptance checklist, and the cli module batches everything behind the
`spike-crown` command.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from . import geometry  # noqa: F401
from . import ground_state  # noqa: F401
from . import nonlinearity  # noqa: F401
from . import packing  # noqa: F401
from . import pde  # noqa: F401
from . import reduced_energy  # noqa: F401
