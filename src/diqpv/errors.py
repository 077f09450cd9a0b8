"""Exception types shared across the package."""


class DiqpvError(Exception):
    """Base class for all package errors."""


class DegenerateDataError(DiqpvError):
    """Input data cannot support the requested estimate (e.g. a settings
    pair with no matched counts)."""


class LpStructureError(DiqpvError):
    """A linear program that should be feasible and bounded is not."""


class CertificationError(DiqpvError):
    """A candidate test factor fails the adversarial expectation bound."""


class UselessFactorError(DiqpvError):
    """A test factor transformation was asked for in a regime where the
    factor carries no information (e.g. min expected value >= 1)."""


class InfeasiblePlanError(DiqpvError):
    """No finite trial count achieves the requested operating point."""


class AnalysisAbort(DiqpvError):
    """Analysis stopped on a condition that invalidates its statistics
    (e.g. a zero factor value on an observed cell)."""


class EmptyRegionError(AnalysisAbort):
    """Too many Monte Carlo parameter draws produced an empty region."""
