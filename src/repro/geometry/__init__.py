"""Geometry kernel used throughout the MBR composition flow.

The composition algorithms of the paper manipulate simple planar geometry:

* rectangles, for cell footprints, net bounding boxes, and the
  timing-feasible placement regions of Section 2;
* convex polygons, for the "test polygon" of Section 3.2 that determines
  the placement-aware candidate weights;
* point-in-polygon tests, to count blocking registers.

Everything here is pure Python over floats, with Manhattan (half-perimeter)
distances, since placement and wire-length estimation in the paper are
Manhattan-metric throughout.
"""

from repro.geometry.point import Point, manhattan
from repro.geometry.rect import Rect, clamp_to_die, last_origin
from repro.geometry.hull import convex_hull, polygon_area, point_in_convex_polygon
from repro.geometry.region import FeasibleRegion

__all__ = [
    "Point",
    "manhattan",
    "Rect",
    "clamp_to_die",
    "last_origin",
    "convex_hull",
    "polygon_area",
    "point_in_convex_polygon",
    "FeasibleRegion",
]
