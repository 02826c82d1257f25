"""Spectra of heterogeneous random multigraphs and their limit laws.

Sampling (configuration-model and poissonized multigraphs over prescribed
degree profiles), empirical spectra, the fixed-point Stieltjes solver for
the limiting density, and closed-form support analysis including the
two-atom hole phase diagram.

The package exports exactly the union of its seven library modules'
`__all__` lists; each module's list is the one place a public name is
declared.
"""

from . import degrees, families, graphs, limit_law, measures, spectrum, support
from .degrees import *
from .families import *
from .graphs import *
from .limit_law import *
from .measures import *
from .spectrum import *
from .support import *

__version__ = "0.1.0"

__all__ = []
__all__ += degrees.__all__
__all__ += families.__all__
__all__ += graphs.__all__
__all__ += limit_law.__all__
__all__ += measures.__all__
__all__ += spectrum.__all__
__all__ += support.__all__
