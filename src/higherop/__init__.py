"""Workbench for n-ordinals, higher operads and their symmetrisation.

The package is organised bottom-up:

- ordinals: canonical n-ordinals, morphisms, fibers, suspensions
- operads: truncated Set-valued operad tables over Ord(n) / FinSet,
  axiom checking, (de)symmetrisation restrictions, endomorphism operads
- associativity: the array kernel of the associativity check
- freeop: finitary polynomials, the tree term model, insertion monads,
  free operads
- symmetrize: labeled-ordinal classifier posets and the symmetrisation
  quotient, adjunction and algebra-equivalence checks
- topology: cellular complexes of the classifier posets, exact homology
- cli: command line front end with a disk cache
"""

from .ordinals import (
    InfOrdinal,
    NOrdinal,
    OrdinalMorphism,
    cardinality,
    compose,
    empty_ordinal,
    enumerate_morphisms,
    enumerate_ordinals,
    fiber,
    is_morphism,
    level,
    ordinal,
    relations,
    render,
    suspend_inf,
    suspend_p,
    terminal_ordinal,
)

__version__ = "0.1.0"

__all__ = [
    "InfOrdinal",
    "NOrdinal",
    "OrdinalMorphism",
    "cardinality",
    "compose",
    "empty_ordinal",
    "enumerate_morphisms",
    "enumerate_ordinals",
    "fiber",
    "is_morphism",
    "level",
    "ordinal",
    "relations",
    "render",
    "suspend_inf",
    "suspend_p",
    "terminal_ordinal",
    "__version__",
]
