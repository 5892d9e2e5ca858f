"""Exception types shared across the package."""


def _rebuild(cls, args):
    # Exception.__new__ sets args without running the subclass __init__.
    return Exception.__new__(cls, *args)


class BoxgapError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # Subclasses build their message in __init__ from other arguments, so
        # pickle's default cls(*args) would call them with the message alone.
        return _rebuild, (type(self), self.args), self.__dict__


class VertexOutOfRange(BoxgapError):
    def __init__(self, vertex, n):
        super().__init__(f"vertex {vertex} out of range [0, {n})")
        self.vertex = vertex
        self.n = n


class DegreeExceeded(BoxgapError):
    def __init__(self, vertex, degree, bound):
        super().__init__(f"vertex {vertex} has degree {degree} > bound {bound}")
        self.vertex = vertex
        self.degree = degree
        self.bound = bound


class DuplicateEdge(BoxgapError):
    def __init__(self, edge):
        super().__init__(f"duplicate edge {edge}")
        self.edge = edge


class DegreeBoundTooSmall(BoxgapError):
    def __init__(self, d, max_degree):
        super().__init__(f"degree bound {d} < max degree {max_degree}")
        self.d = d
        self.max_degree = max_degree


class NoConvergence(BoxgapError):
    def __init__(self, iterations, detail=""):
        msg = f"eigensolver did not converge after {iterations} iterations"
        if detail:
            msg += f": {detail}"
        msg += " (raise the tolerance to accept a coarser answer)"
        super().__init__(msg)
        self.iterations = iterations


class TooLargeForExact(BoxgapError):
    def __init__(self, n, cap):
        super().__init__(f"exhaustive search refused: {n} vertices > cap {cap}")
        self.n = n
        self.cap = cap


class InsufficientSeparatedEdges(BoxgapError):
    def __init__(self, found, wanted):
        super().__init__(
            f"only {found} of {wanted} separated interior edges available"
        )
        self.found = found
        self.wanted = wanted


class HypothesisFailed(BoxgapError):
    """Inner-expansion pre-verification found a violating subset."""

    def __init__(self, witness, ratio, required):
        super().__init__(
            f"subset {witness} has boundary ratio {ratio:.6g} < required {required:.6g}"
        )
        self.witness = witness
        self.ratio = ratio
        self.required = required


class IterationCap(BoxgapError):
    def __init__(self, limit):
        super().__init__(f"partition loop exceeded {limit} iterations")
        self.limit = limit


class NotSymmetric(BoxgapError):
    def __init__(self, gen):
        super().__init__(f"generating set not closed under inverse: {gen}")
        self.gen = gen


class IdentityGenerator(BoxgapError):
    def __init__(self):
        super().__init__("generating set contains the identity")


class NotEnoughRoom(BoxgapError):
    def __init__(self, needed, available):
        super().__init__(f"need {needed} target vertices, only {available} available")
        self.needed = needed
        self.available = available


class UnknownLabel(BoxgapError):
    def __init__(self, label):
        super().__init__(f"unknown generator label {label!r}")
        self.label = label


class NotAnIsomorphism(BoxgapError):
    def __init__(self, index, edge, reason=""):
        msg = f"witness at index {index} is not an isomorphism (edge {edge})"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.index = index
        self.edge = edge


class DisconnectedLink(BoxgapError):
    def __init__(self, vertex):
        super().__init__(f"link graph of vertex {vertex} is not connected")
        self.vertex = vertex


class EdgeWithoutTriangle(BoxgapError):
    def __init__(self, edge):
        super().__init__(f"edge {edge} lies in no triangle")
        self.edge = edge
