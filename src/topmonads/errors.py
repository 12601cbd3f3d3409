"""Exception hierarchy shared by all modules."""


class TopmonadsError(Exception):
    """Base class for all library errors."""


class NotAPreorder(TopmonadsError):
    """Relation fails reflexivity or transitivity; carries a witness pair."""

    def __init__(self, reason, witness):
        super().__init__(f"{reason}: witness {witness}")
        self.reason = reason
        self.witness = witness


class NotATopology(TopmonadsError):
    """Open family violates a topology axiom."""


class NotOpen(TopmonadsError):
    """A set claimed to be open is not a member of the open family."""


class ShapeMismatch(TopmonadsError):
    """Operands live on different spaces (or maps are not composable)."""


class NotAValidFunctional(TopmonadsError):
    """Boolean table on opens fails strictness or join-preservation."""

    def __init__(self, reason, witness=None):
        super().__init__(f"{reason}" + (f": witness {witness}" if witness else ""))
        self.reason = reason
        self.witness = witness


class NotClosedFamily(TopmonadsError):
    """A family of closed sets is not down-closed under inclusion."""


class NotStrict(TopmonadsError):
    """Valuation table has nonzero mass on the empty set."""


class NotMonotone(TopmonadsError):
    """Valuation table decreases along an inclusion of opens."""

    def __init__(self, witness):
        super().__init__(f"monotonicity fails on open pair {witness}")
        self.witness = witness


class NotModular(TopmonadsError):
    """Valuation table violates the modular law on a pair of opens."""

    def __init__(self, witness):
        super().__init__(f"modularity fails on open pair {witness}")
        self.witness = witness


class NotLowerSemicontinuous(TopmonadsError):
    """Point function has a non-open strict upper level set."""


class NotAKernel(TopmonadsError):
    """Point-to-valuation table is not continuous into the valuation space."""


class MalformedValue(TopmonadsError):
    """A weight or value is not an element of [0, oo].  Each subclass is
    also the builtin exception that Python raises for such input, so code
    that catches the builtin still catches it."""


class InvalidValue(MalformedValue, ValueError):
    """A negative number or difference, a string outside the grammar 'inf',
    'p', 'p/q', or a law-run setting out of range: a GenConfig.seed that is
    not an int, a max_points that is not an int >= 0, an instance_count or
    weight_denominator_bound that is not an int >= 1, or an allow_infinity
    that is not a bool."""


class InvalidValueType(MalformedValue, TypeError):
    """A float, None, or another object that is not a rational."""


class ZeroDenominator(MalformedValue, ZeroDivisionError):
    """A string 'p/q' with q = 0, a ratio p/0, or a division by 0 or oo."""


class InfinityIndeterminate(TopmonadsError):
    """Signed extended-rational arithmetic hit an indeterminate infinity."""


class InfiniteMass(TopmonadsError):
    """Operation requires finite total mass."""


class NotNormalized(TopmonadsError):
    """Probability-level input does not have total mass one."""


class OrderNotClosed(TopmonadsError):
    """Auxiliary preorder's graph is not closed in the product topology."""


class PreconditionFailed(TopmonadsError):
    """Stated precondition of an operation does not hold."""


class UnknownSuite(TopmonadsError):
    """Law-suite name is not registered."""


class NotAFailure(TopmonadsError):
    """Shrinking was asked to minimize an input that does not fail."""


class LawViolation(TopmonadsError):
    """A checked invariant failed: weights read off a valid table do not
    reproduce it."""
