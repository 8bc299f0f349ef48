"""Exception types shared across the library.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError.  Each class carries the exit
code a job that raises it ends with (README lists them): 3 unsupported,
4 budget, and 5 verification failure for every class that sets none.
"""


class MustabError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 5


class FieldMismatch(MustabError):
    """Operands live in different coefficient fields or exponent groups."""


class DivisionByZero(MustabError):
    """Inversion of the zero scalar."""


class CoefficientFieldTooSmall(MustabError):
    """A required root does not exist in the configured exact field."""

    exit_code = 3


class BudgetExceeded(MustabError):
    """A configured work cap (S-pairs, stab_reparam's ansatz order) was hit."""

    exit_code = 4


class EmptyVariety(MustabError):
    """The ideal is the unit ideal; its vanishing locus is empty."""


class ZeroLeadingTerm(MustabError):
    """Series inversion with no known nonzero leading term."""


class PrecisionInsufficient(MustabError):
    """The tracked precision cannot support the requested answer."""

    exit_code = 4


class NegativeValuation(MustabError):
    """Residue requested for a series of negative valuation."""


class IrrationalExponentInSubstitution(MustabError):
    """Substitution into a series with non-rational exponents."""

    exit_code = 3


class WildRamification(MustabError):
    """Characteristic-p obstruction: p divides a ramification or binomial
    denominator, or a stabilizer needs exponents with p in the denominator."""

    exit_code = 3


class SingularAtPrecision(MustabError):
    """Matrix not invertible (or no pivot found) at the tracked precision."""


class LeadingTermUnknown(ZeroLeadingTerm, PrecisionInsufficient):
    """Series inversion where no term is known below a finite precision:
    more input precision could decide it."""


class PivotUnknown(SingularAtPrecision, PrecisionInsufficient):
    """No pivot is certain at the tracked precision: an entry known only
    below its precision may have the least valuation of its column."""


class NotIntegral(MustabError):
    """Residue of a point with entries of negative valuation."""


class NotOnGroup(MustabError):
    """Entries fail the group scheme's defining equations."""


class NotCenteredAtInfinity(MustabError):
    """Branch is bounded where an unbounded one is required."""


class OrderBudgetTooSmall(BudgetExceeded):
    """The reparameterization's stabilizer has lower dimension than a
    certified type dimension, and order_budget cut its ansatz below the
    order the branch reads: a larger order_budget may reach it."""


class FiberNotSplit(MustabError):
    """The degeneration's identity component fails `verify_subgroup`: the
    supported factorization fragment did not split the special fiber into
    its reduced components (a non-radical fiber, say), so the component is
    not the stabilizer."""

    exit_code = 3


class SelfCheckFailed(MustabError):
    """A computed result failed the consistency check run on it before it
    is returned, such as a stabilizer generator that does not vanish on
    its own family."""
