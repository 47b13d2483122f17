"""Exit-probability controller synthesis for controlled diffusions.

Pointwise control synthesis via small linear programs over barrier
certificates, analytic exit-probability bounds, a reproducible stopped
Euler-Maruyama simulator and a Monte Carlo validation harness.

Each module's ``__all__`` lists its public names; the package re-exports them all.
"""

from . import bounds, cli, errors, generator, lp, mc, model, sim, synthesis
from .bounds import *
from .cli import *
from .errors import *
from .generator import *
from .lp import *
from .mc import *
from .model import *
from .sim import *
from .synthesis import *

__version__ = "0.1.0"

_MODULES = (bounds, cli, errors, generator, lp, mc, model, sim, synthesis)
__all__ = [name for module in _MODULES for name in module.__all__]
