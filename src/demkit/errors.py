"""Exception types shared across the package."""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed graph input or invalid construction."""


class DisconnectedGraphError(GraphError):
    """The graph is not connected; carries one witness vertex per side."""

    def __init__(self, u: int, v: int):
        super().__init__(
            f"graph is disconnected: no path between vertices {u} and {v}"
        )
        self.witnesses = (u, v)


class GenerationError(ValueError):
    """A family generator got bad parameters or exhausted its retry budget."""


class ExpressionError(ValueError):
    """Unparsable graph, family, or product expression."""


class CapExceededError(RuntimeError):
    """The instance is larger than the configured exact-solver cap."""

    def __init__(self, what: str, size: int, cap: int):
        # a size computed from an expression such as hypercube:5000 has more
        # digits than a message should hold (or than str() converts)
        shown = size
        if size.bit_length() > 64:
            shown = f"2^{size.bit_length() - 1} or more"
        super().__init__(f"{what}: instance size {shown} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class EnumerationCapExceededError(RuntimeError):
    """More minimum sets exist than the enumeration cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"number of minimum sets exceeds enumeration cap {cap}")
        self.cap = cap
