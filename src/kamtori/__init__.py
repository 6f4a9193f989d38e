"""kamtori: small divisors, jet norms, and normal forms near an elliptic point.

Submodules:
  arithmetic   small-divisor sequences, decay classes, lattice geometry,
               strip coverings and density experiments
  jets         truncated power series with exact/float coefficients
  poisson      Poisson brackets, Hamiltonian derivations, Lie-series flows
  scalednorms  empirical fits of scaled operator norms and growth diagnostics
  birkhoff     Birkhoff normal form at an elliptic equilibrium
  kamengine    quasi-inverse of the homological operator and the iterative
               normal-form scheme on the (q, p) fiber
  torusverify  numeric orbit integration and invariant-torus classification
  cli          command-line entry points
"""

__version__ = "0.1.0"

from .jets import ComplexRational, Jet

__all__ = ["ComplexRational", "Jet", "__version__"]
