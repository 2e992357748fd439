"""Numerical laboratory for conditional quasi-greedy bases of sequence spaces.

Build truncated basis systems (unit vectors, Lindenstrauss, summing,
difference, and their interleavings and block sums), measure their
greedy-approximation and conditionality constants from below, on every sign
vector at small scale and by seeded randomized search beyond, and check
growth claims (logarithmic versus linear) on lower-bound ladders.

The package exports the ``__all__`` of each module below, in this order,
plus ``__version__``, ``DEFAULT_BUDGET`` and ``DEFAULT_SEED``.
"""

from . import bases, conditionality, greedy, reportio, scenarios, spaces
from ._search import DEFAULT_BUDGET, DEFAULT_SEED
from .spaces import *  # noqa: F401,F403
from .bases import *  # noqa: F401,F403
from .greedy import *  # noqa: F401,F403
from .conditionality import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .reportio import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", "DEFAULT_BUDGET", "DEFAULT_SEED"] + [
    name for mod in (spaces, bases, greedy, conditionality, scenarios, reportio) for name in mod.__all__
]
