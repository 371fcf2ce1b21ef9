"""Exact first local cohomology of finite matrix groups over Z/p^n.

Every name exported here has a caller among the commands, criteria,
scripts or benchmark; helpers only the tests call live in the test
suite's oracles."""

from .cohomology import (CohomGroup, Cocycle, class_order, coboundaries,
                         eigenvalue_ratio_condition,
                         cocycle_from_generator_values, cocycle_space,
                         eigenvalue_ratio_vanishing, h1, h1_loc, inflate,
                         is_coboundary, mod_p_projection, restrict,
                         satisfies_local_conditions, sizes,
                         torsion_isomorphism_check)
from .counterexample import build, scan_orders, verify
from .criteria import (CriterionReport, fixed_point_free_criterion,
                       lift_qualifying_element, similitude_criterion,
                       sylow_normalizer_criterion)
from .errors import (CapExceededError, InputError, InternalError,
                     PreconditionError)
from .groups import (Decomposition, MatGroup, decompose_generators,
                     element_order, frattini, lift_normalizer, normalizer,
                     p_sylow, sylow_normalizer_element)
from .ringmat import (AbelianStructure, Mat, ModuleSpec, char_poly, kernel,
                      quotient_structure, solve)
from .symplectic import (SymplecticSpace, eigenvalue_pairing_check,
                         eigenvalue_pairing_sweep, gsp4_generators,
                         gsp4_order, invariant_subspaces, perp,
                         similitude_multiplier, transvection)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
