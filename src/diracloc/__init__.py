"""Numerics for arbitrarily sharp localization of positive-energy Dirac states.

The package builds momentum-space sequences of normalized positive-energy
spinor states labelled by a point, a velocity, a spin and a sharpness
index, transforms them to position space, and evaluates the observable
density/current pair together with its moments, convergence diagnostics,
causality bounds and space-time transformation rules.  Everything works
in natural units hbar = c = m = 1.  The library is imported from its
modules (``diracloc.states``, ``diracloc.observables``, ...); the package
root binds only ``__version__``.
"""

__version__ = "0.1.0"
