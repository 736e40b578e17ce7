"""Axis-aligned rectangles: cell footprints, bounding boxes, feasible regions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``.

    Degenerate rectangles (zero width and/or height) are allowed: a point is
    the degenerate rectangle of a fully constrained placement, which Section 2
    of the paper uses for negative-slack registers that cannot move.
    """

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xhi < self.xlo or self.yhi < self.ylo:
            raise ValueError(
                f"malformed Rect: ({self.xlo}, {self.ylo}, {self.xhi}, {self.yhi})"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_center(center: Point, width: float, height: float) -> "Rect":
        """Rectangle of the given dimensions centered on ``center``."""
        return Rect(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    @staticmethod
    def from_points(points: list[Point]) -> "Rect":
        """The bounding box of a non-empty list of points."""
        if not points:
            raise ValueError("bounding box of an empty point set is undefined")
        return Rect(
            min(p.x for p in points),
            min(p.y for p in points),
            max(p.x for p in points),
            max(p.y for p in points),
        )

    @staticmethod
    def point(p: Point) -> "Rect":
        """The degenerate rectangle containing exactly ``p``."""
        return Rect(p.x, p.y, p.x, p.y)

    # -- basic properties --------------------------------------------------

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def half_perimeter(self) -> float:
        """HPWL contribution of this box: width + height."""
        return self.width + self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    def corners(self) -> list[Point]:
        """The four corner points (degenerate corners may coincide)."""
        return [
            Point(self.xlo, self.ylo),
            Point(self.xhi, self.ylo),
            Point(self.xhi, self.yhi),
            Point(self.xlo, self.yhi),
        ]

    # -- predicates --------------------------------------------------------

    def contains_point(self, p: Point, tol: float = 0.0) -> bool:
        """Whether ``p`` lies inside the closed rectangle (± ``tol``)."""
        return (
            self.xlo - tol <= p.x <= self.xhi + tol
            and self.ylo - tol <= p.y <= self.yhi + tol
        )

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and self.xhi >= other.xhi
            and self.yhi >= other.yhi
        )

    def overlaps(self, other: "Rect") -> bool:
        """Whether the closed rectangles share at least a point."""
        return not (
            self.xhi < other.xlo
            or other.xhi < self.xlo
            or self.yhi < other.ylo
            or other.yhi < self.ylo
        )

    # -- combinators -------------------------------------------------------

    def intersect(self, other: "Rect") -> "Rect | None":
        """The intersection rectangle, or ``None`` when disjoint."""
        xlo = max(self.xlo, other.xlo)
        ylo = max(self.ylo, other.ylo)
        xhi = min(self.xhi, other.xhi)
        yhi = min(self.yhi, other.yhi)
        if xhi < xlo or yhi < ylo:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of both rectangles."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side (clamped to a point)."""
        xlo = self.xlo - margin
        ylo = self.ylo - margin
        xhi = self.xhi + margin
        yhi = self.yhi + margin
        if xhi < xlo:
            xlo = xhi = (xlo + xhi) / 2.0
        if yhi < ylo:
            ylo = yhi = (ylo + yhi) / 2.0
        return Rect(xlo, ylo, xhi, yhi)

    def clamp_point(self, p: Point) -> Point:
        """The point of this rectangle nearest to ``p`` (Manhattan = Euclidean
        for axis-aligned clamping)."""
        return Point(
            min(max(p.x, self.xlo), self.xhi),
            min(max(p.y, self.ylo), self.yhi),
        )

    def manhattan_to_point(self, p: Point) -> float:
        """Manhattan distance from ``p`` to the rectangle (0 when inside)."""
        return p.manhattan_to(self.clamp_point(p))


def bounding_box(rects: list[Rect]) -> Rect:
    """Bounding box of a non-empty list of rectangles."""
    if not rects:
        raise ValueError("bounding box of an empty rectangle set is undefined")
    return Rect(
        min(r.xlo for r in rects),
        min(r.ylo for r in rects),
        max(r.xhi for r in rects),
        max(r.yhi for r in rects),
    )


def intersect_all(rects: list[Rect]) -> Rect | None:
    """Intersection of a non-empty list of rectangles (``None`` when empty).

    Single pass over the bounds: the running intersection is empty at some
    step iff the final running bounds are empty, so no intermediate ``Rect``
    objects are materialized (this sits on the candidate-validation hot path).
    """
    if not rects:
        raise ValueError("intersection of an empty rectangle set is undefined")
    first = rects[0]
    xlo, ylo, xhi, yhi = first.xlo, first.ylo, first.xhi, first.yhi
    for r in rects[1:]:
        if r.xlo > xlo:
            xlo = r.xlo
        if r.ylo > ylo:
            ylo = r.ylo
        if r.xhi < xhi:
            xhi = r.xhi
        if r.yhi < yhi:
            yhi = r.yhi
    if xhi < xlo or yhi < ylo:
        return None
    return Rect(xlo, ylo, xhi, yhi)


def last_origin(hi: float, size: float) -> float:
    """The largest origin whose extent ``origin + size`` stays ``<= hi``.

    ``hi - size`` can round up (79.7 - 6.68 == 73.02000000000001, which
    ends the footprint at 79.70000000000002), so step it down one float at
    a time until the sum holds; it is returned unchanged when it already
    does.  Clamping a cell origin to it keeps the footprint on the die.
    """
    origin = hi - size
    while origin + size > hi:
        origin = math.nextafter(origin, -math.inf)
    return origin


def clamp_to_die(
    die: Rect, width: float, height: float, x: float, y: float
) -> tuple[float, float]:
    """Clamp a requested origin so a ``width`` x ``height`` footprint stays
    on ``die``; the upper bounds come from :func:`last_origin`."""
    x = min(max(die.xlo, x), last_origin(die.xhi, width))
    y = min(max(die.ylo, y), last_origin(die.yhi, height))
    return x, y
