"""Exception types shared across the library.

Everything raised on purpose derives from RigidCalcError, so callers (and the
command line front end) can separate "bad input" from genuine bugs.  A
message shows an input value only through _shown, so it stays one short line.
"""

#: longest repr of an input value that an error message shows
_SHOWN_LENGTH = 80


def _shown(value) -> str:
    """repr(value), cut to _SHOWN_LENGTH characters and its length named."""
    try:
        text = repr(value)
    except ValueError:  # an int past the digit limit of int-to-str conversion
        return f"<integer of {value.bit_length()} bits>"
    if len(text) <= _SHOWN_LENGTH:
        return text
    return f"{text[:_SHOWN_LENGTH]}... ({len(text)} characters)"


class RigidCalcError(Exception):
    """Base class for all errors raised by rigidcalc."""


# -- cyclotomic arithmetic ---------------------------------------------------

class InvalidOrder(RigidCalcError):
    """A cyclotomic order N < 1 was requested."""


class AboveMaximum(RigidCalcError, ValueError):
    """Rational text from the input is past MAX_EXPONENT, in its exponent or
    in the digits of its value; a ValueError, like every other refusal of
    malformed rational text."""


class NotAnEmbedding(RigidCalcError):
    """zeta -> exp(2*pi*i*a/N) requires gcd(a, N) = 1."""


# -- linear algebra ----------------------------------------------------------

class SingularMatrix(RigidCalcError):
    """A matrix that must be invertible is not."""


class DimensionMismatch(RigidCalcError):
    """Matrix shapes are incompatible with the requested operation."""


# -- monodromy tuples --------------------------------------------------------

class DuplicatePuncture(RigidCalcError):
    """Finite punctures of a tuple must be pairwise distinct."""


class UnknownPuncture(RigidCalcError):
    """The requested point is not a puncture of the tuple."""


class NotQuasiUnipotent(RigidCalcError):
    """Some eigenvalue is not a root of unity of Q(zeta_N), that is, not in
    mu_lcm(2, N)."""


# -- twists and middle convolution -------------------------------------------

class ZeroScalar(RigidCalcError):
    """Rank-one local data must consist of nonzero scalars."""


class PunctureMismatch(RigidCalcError):
    """Rank-one twist data does not match the tuple's punctures."""


class ZeroLambda(RigidCalcError):
    """Middle convolution is undefined for lambda = 0."""


class ZeroRank(RigidCalcError, ValueError):
    """MC_lambda of a well-formed tuple has rank 0: no tuple to return."""


class NegativeIndex(RigidCalcError):
    """The recursive family is indexed by i >= 0."""


class NotRigid(RigidCalcError):
    """Rank reduction requires rigidity index 2."""


class NotIrreducible(RigidCalcError):
    """Rank reduction requires an absolutely irreducible tuple."""


class AlreadyRankOne(RigidCalcError):
    """A reduction step was requested on a rank-one tuple."""


class NoProgress(RigidCalcError):
    """A Katz reduction step failed to decrease the rank: its twist and
    lambda range over mu_lcm(2,N), the roots of unity of Q(zeta_N), and
    missed a largest eigenspace at an eigenvalue outside them."""


# -- hypergeometric construction ---------------------------------------------

class EmptyParameters(RigidCalcError):
    """Hypergeometric parameter lists must be nonempty."""


class NotRootOfUnity(RigidCalcError):
    """A hypergeometric parameter or multiplicity key is not a root of unity,
    or a rank-one scalar is not a root of unity of Q(zeta_N), that is, not
    in mu_lcm(2, N)."""


class EmptySupport(RigidCalcError):
    """A multiplicity function needs nonempty support."""


# -- Weil polynomial checks --------------------------------------------------

class ZeroConstantTerm(RigidCalcError):
    """Q(0) = 0 makes the functional equation undefined."""


class RootFindingFailure(RigidCalcError):
    """Root refinement did not certify within the precision cap."""


# -- serialization -----------------------------------------------------------

class SchemaError(RigidCalcError):
    """A JSON document does not match the expected schema."""
