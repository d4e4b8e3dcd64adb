"""Exception types shared across the library."""


class InputError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class DimensionMismatch(InputError):
    pass


class HostMismatch(InputError):
    pass


class UnknownCatalogName(InputError):
    pass


class MathCheckError(RuntimeError):
    """A mathematical precondition or verification failed (CLI exit code 1)."""


class NotConvolutionInvertible(MathCheckError):
    pass


class NotErgodic(MathCheckError):
    pass


class DecompositionError(MathCheckError):
    pass


class NotFaithful(MathCheckError):
    pass


class InvalidInverse(MathCheckError):
    pass


class InvalidBicharacter(InputError):
    pass


class InvalidMorphism(InputError):
    pass


class NotEquivariant(MathCheckError):
    pass


class TheoremViolation(MathCheckError):
    """Numerical outcome contradicts a statement that holds by proof; indicates a bug."""


class BlockMismatch(MathCheckError):
    pass


class NotInCategory(MathCheckError):
    pass


class NonFiniteValue(MathCheckError):
    """A document holds NaN or an infinity, which canonical JSON cannot write."""

    def __init__(self, value, path: list[str]):
        super().__init__(value)
        self.value = value
        self.path = path  # keys and indices down from the document's root
        self.label = None  # the first string of the innermost list holding it

    def __str__(self) -> str:
        where = "".join(self.path).lstrip(".") or "the top level"
        named = f" ({self.label})" if self.label else ""
        return f"cannot write non-finite {self.value} at {where}{named}"
