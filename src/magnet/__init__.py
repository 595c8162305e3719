"""MAG model degree laws: sampling, exact analytics, limits, bounds."""

from ._version import __version__
from . import bounds, degree_dist, errors, experiments, limits, model, sampler
from .errors import *
from .model import *
from .degree_dist import *
from .sampler import *
from .limits import *
from .bounds import *
from .experiments import *

__all__ = ["__version__"] + [
    name
    for module in (errors, model, degree_dist, sampler, limits, bounds, experiments)
    for name in module.__all__
]
