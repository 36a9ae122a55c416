"""Exception types shared across the package."""


class KnotError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(KnotError):
    """Winding numbers violate 2 <= p < q with gcd(p, q) = 1."""


class InvalidGeometry(KnotError):
    """Torus radii violate 0 < r < R."""


class SimplifyRequiresEvenP(KnotError):
    """The short z-phase form is only valid for even p."""


class SingularCrossing(KnotError):
    """A projection double point degenerates (equal heights or tangency)."""


class WrongKnotShape(KnotError):
    """Operation needs another knot shape: the theorem's x and y."""


class IncompleteCrossingSet(KnotError):
    """Crossing passages are duplicated or missing; no diagram can be built."""


class NotAKnot(KnotError):
    """A diagram code describes more than one closed component."""


class SingularDiagram(KnotError):
    """Diagram data is degenerate (a determinant with Delta(1) != +-1, bad code)."""


class IdentificationFailure(KnotError):
    """Knot identification failed; ``condition`` names the first violated check."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class CertificationFailure(KnotError):
    """An emitted singular line does not zero its crossing's height difference."""


class SingularPoint(KnotError):
    """A phase point sits on at least one singular line.

    ``indices`` lists the degenerate crossing indices.
    """

    def __init__(self, indices):
        self.indices = tuple(indices)
        names = ", ".join(ix.key() for ix in self.indices)
        super().__init__(f"phase point is singular for crossings [{names}]")
