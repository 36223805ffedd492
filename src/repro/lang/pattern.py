"""Pattern ASTs: variables composed with operators (Section 2.2).

Nodes:

* :class:`VarRef` — a point or segment variable;
* :class:`Concat` — n-ary concatenation (Definition 2.1);
* :class:`And` — n-ary conjunction (Definition 2.4, new in T-ReX);
* :class:`Or` — n-ary alternation (Definition 2.2);
* :class:`Kleene` — quantifiers ``* ? + {n} {m,n}`` (Definition 2.3);
* :class:`Not` — negation (Definition 2.5, new in T-ReX).

``Concat``/``And``/``Or`` are kept n-ary so the optimizer can reorder and
re-bracket chains; the parser flattens nested same-operator nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import BindError

#: Sentinel for an unbounded Kleene upper bound.
UNBOUNDED: Optional[int] = None


class Pattern:
    """Base class for pattern nodes (immutable)."""

    __slots__ = ()

    def children(self) -> Tuple["Pattern", ...]:
        return ()

    def variables(self) -> List[str]:
        """Variable names in document order (with repetitions collapsed)."""
        seen: List[str] = []
        for node in walk(self):
            if isinstance(node, VarRef) and node.name not in seen:
                seen.append(node.name)
        return seen

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class VarRef(Pattern):
    """A reference to a (point or segment) variable."""

    name: str

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class Concat(Pattern):
    """Concatenation of two or more sub-patterns."""

    parts: Tuple[Pattern, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise BindError("Concat needs at least two sub-patterns")

    def children(self):
        return self.parts

    def describe(self) -> str:
        return "(" + " ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class And(Pattern):
    """Conjunction: every sub-pattern must match the same segment."""

    parts: Tuple[Pattern, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise BindError("And needs at least two sub-patterns")

    def children(self):
        return self.parts

    def describe(self) -> str:
        return "(" + " & ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Pattern):
    """Alternation: at least one sub-pattern matches the segment."""

    parts: Tuple[Pattern, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise BindError("Or needs at least two sub-patterns")

    def children(self):
        return self.parts

    def describe(self) -> str:
        return "(" + " | ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Kleene(Pattern):
    """Repetition of a sub-pattern between ``min_reps`` and ``max_reps``.

    ``max_reps is None`` means unbounded (``*`` / ``+``).
    """

    child: Pattern
    min_reps: int
    max_reps: Optional[int]

    def __post_init__(self):
        if self.min_reps < 0:
            raise BindError(
                f"Kleene minimum must be >= 0, got {self.min_reps}")
        if self.max_reps is not None and self.max_reps < max(self.min_reps, 1):
            raise BindError(f"Kleene maximum {self.max_reps} below minimum "
                            f"{self.min_reps}")

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        inner = self.child.describe()
        if self.min_reps == 0 and self.max_reps is None:
            suffix = "*"
        elif self.min_reps == 1 and self.max_reps is None:
            suffix = "+"
        elif self.min_reps == 0 and self.max_reps == 1:
            suffix = "?"
        elif self.max_reps == self.min_reps:
            suffix = f"{{{self.min_reps}}}"
        else:
            hi = "" if self.max_reps is None else self.max_reps
            suffix = f"{{{self.min_reps},{hi}}}"
        return f"{inner}{suffix}"


@dataclass(frozen=True)
class Not(Pattern):
    """Negation: matches segments the sub-pattern does not match."""

    child: Pattern

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"~{self.child.describe()}"


def walk(pattern: Pattern) -> Iterator[Pattern]:
    """Pre-order traversal."""
    yield pattern
    for child in pattern.children():
        yield from walk(child)


def concat(*parts: Pattern) -> Pattern:
    """Build a flattened Concat (single part passes through)."""
    flat: List[Pattern] = []
    for part in parts:
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def conj(*parts: Pattern) -> Pattern:
    """Build a flattened And."""
    flat: List[Pattern] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Pattern) -> Pattern:
    """Build a flattened Or."""
    flat: List[Pattern] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))
