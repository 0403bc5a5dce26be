"""Equilibria of anonymous games over a continuum of agents.

The library computes, verifies, and analyzes stationary crowd distributions
that arise when a continuum of agents choose actions on an interval, paying a
transport cost from their type plus congestion, interaction, and location
costs.  The core reduction is one-dimensional: densities become quantile
functions, the equilibrium becomes the minimizer of a convex functional over
monotone vectors, and a projected Newton method solves it.  The functional is
infinite at a zero gap, so only the interval's box can bind, and the method
projects onto the box alone.  Companion modules provide best-response iteration,
minimizing-movement (JKO) dynamics, welfare and tax analysis, and independent
verification checks.

Each submodule declares its public names in its own ``__all__``; the package
re-exports exactly those.
"""
__version__ = "0.1.0"

from .measures import *  # noqa: F403
from .transport import *  # noqa: F403
from .energy import *  # noqa: F403
from .solver import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .welfare import *  # noqa: F403
from .verify import *  # noqa: F403

from . import dynamics, energy, measures, solver, transport, verify, welfare

__all__ = ["__version__", *measures.__all__, *transport.__all__, *energy.__all__,
           *solver.__all__, *dynamics.__all__, *welfare.__all__, *verify.__all__]
