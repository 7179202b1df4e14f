"""Coordinate charts: affine parameter, coordinates, jet symbol naming."""

from __future__ import annotations

from .errors import ChartError


class CoordChart:
    """Affine parameter plus ordered coordinates, some flagged as angles.

    Jet symbols are derived by suffix: first derivatives as `<name>dot`,
    second as `<name>ddot`.
    """

    def __init__(self, param: str, coords, angles=()):
        self.param = param
        self.coords = tuple(coords)
        self.angles = tuple(angles)
        names = [param, *self.coords]
        if len(set(names)) != len(names):
            raise ChartError("parameter and coordinate names must be distinct")
        if len(self.coords) < 1:
            raise ChartError("need at least one coordinate")
        for a in self.angles:
            if a not in self.coords:
                raise ChartError(f"angle {a!r} is not a coordinate")
        jets = set(self.jets1 + self.jets2)
        if jets & set(names):
            raise ChartError("coordinate names collide with jet symbol names")

    def __eq__(self, other):
        if not isinstance(other, CoordChart):
            return NotImplemented
        return (self.param, self.coords, self.angles) == (other.param, other.coords, other.angles)

    def __hash__(self):
        return hash((self.param, self.coords, self.angles))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def jet1(self, name: str) -> str:
        return f"{name}dot"

    def jet2(self, name: str) -> str:
        return f"{name}ddot"

    @property
    def jets1(self) -> tuple:
        return tuple(self.jet1(c) for c in self.coords)

    @property
    def jets2(self) -> tuple:
        return tuple(self.jet2(c) for c in self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)
