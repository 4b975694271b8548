"""Marginal-adjusted estimation for discrete contingency tables.

Estimate a joint distribution from categorical counts, reweight it so one
marginal matches an externally known distribution, and quantify exactly how
much estimator variance the extra information removes, both in closed form
and by reproducible Monte Carlo.

The package exports every name in the ``__all__`` of ``asymptotics``,
``estimators``, ``simulation`` and ``tables``, in that order; each module's
list is the one place a public name is declared.
"""

from . import asymptotics, estimators, simulation, tables
from .asymptotics import *  # noqa: F403
from .estimators import *  # noqa: F403
from .simulation import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*asymptotics.__all__, *estimators.__all__, *simulation.__all__, *tables.__all__]
