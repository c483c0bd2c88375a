"""Indecomposable solutions of linear congruences: enumeration,
reduction, extremal classification, counting bounds, and subset-sum
diversity, all in exact arithmetic."""

from types import ModuleType as _ModuleType

from .core import (
    BudgetExceeded,
    CongruenceInstance,
    DomainError,
    NormalForm,
    SolutionMetrics,
    bound_violations,
    euler_phi,
    metrics,
)
from .enumeration import (
    EnumerationResult,
    count_letters,
    enumerate_naive,
    enumerate_normal_form,
    enumerate_standard,
    is_indecomposable,
    naive_minimal_solutions,
    solve_n1,
)
from .reduction import (
    ReductionPlan,
    build_plan,
    count_general,
    general_support_bounds_check,
    lift_solutions,
)
from .extremal import (
    ExtremalSolution,
    extremal_all,
    extremal_filter,
    verify_extremal,
)
from .bounds import (
    BoundsRow,
    bound_q,
    bound_r,
    bound_simplex,
    log2_rounded,
    partition_count,
    support_capacity,
    table2,
)
from .subset_sums import (
    DiversityReport,
    IndexSet,
    diversity,
    diversity_closure,
    family_Tma,
    lemma_expls_checks,
    scan_admissible,
    verify_general,
    verify_r3,
    verify_r4,
)

# the public API, without the submodules that the imports above bind
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
