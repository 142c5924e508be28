"""phaselab: spectral propagators, multiplier envelopes, convergence experiments.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports every one of them, and nothing else.
"""

from . import convergence, errors, multipliers, phase_laws, propagation, spectral
from .convergence import *
from .errors import *
from .multipliers import *
from .phase_laws import *
from .propagation import *
from .spectral import *

__all__ = [*convergence.__all__, *errors.__all__, *multipliers.__all__, *phase_laws.__all__,
           *propagation.__all__, *spectral.__all__]
__version__ = "0.1.0"
