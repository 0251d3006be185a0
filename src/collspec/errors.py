"""Exception types shared across the verification modules."""


class VerificationError(Exception):
    """Base class for every domain error raised by this package."""


class NotOddPrime(VerificationError):
    """The base must be an odd prime; b = 2 degenerates the diagonal set."""


class LimitTooLarge(VerificationError):
    """Sieve limit or series truncation above its memory bound."""


class WrongModulus(VerificationError):
    """Operation called with a character or group of the wrong modulus."""


class PrincipalCharacter(VerificationError):
    """The series for L(1, chi_0) diverges; need a non-principal character."""


class BadDiscriminant(VerificationError):
    """Class-number checks need a prime b = 3 (mod 4), b > 3, so that -b is
    a fundamental discriminant."""


class CutoffBelowModulus(VerificationError):
    """Truncated prime sums run over m < p <= N; the cutoff must exceed m."""


class BaseOutOfRange(VerificationError, ValueError):
    """The base is a prime outside the range the requested check supports."""


class CutoffTooShort(VerificationError, ValueError):
    """The series oracle needs a truncation of at least q**2 terms."""


class ExponentOutOfRange(VerificationError, ValueError):
    """The prime-sum exponent s lies outside the check's range."""
