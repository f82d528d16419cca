"""Annealed Ising model on d-regular configuration-model graphs.

Exact finite-size computations via pairing-count weight tables, the
thermodynamic limit via a scalar variational problem, and the critical
behavior at beta_c = atanh(1/(d-1)): exponents, amplitudes, the
specific-heat jump, and the quartic n^{3/4} scaling limit.

The package exports every module's public names; each module's __all__ is
the one list of them.
"""

from . import criticality, finiten, kernels, matching, thermo
from .criticality import *  # noqa: F403
from .finiten import *  # noqa: F403
from .kernels import *  # noqa: F403
from .matching import *  # noqa: F403
from .thermo import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *kernels.__all__,
    *matching.__all__,
    *thermo.__all__,
    *finiten.__all__,
    *criticality.__all__,
]
