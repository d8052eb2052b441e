"""Property suite: the float Lemma 3.8 kernel equals the object-based test.

:func:`repro.geometry.coverage.disk_covered_by_disks` spells the
``Circle`` predicates out on plain floats.  It claims the same verdict
as :func:`repro.testing.scalar_reference.scalar_disk_covered_by_disks`,
the composition of ``Circle`` methods it replaced, on *every* input:
the same ``True`` / ``False``, or the same exception.  Hypothesis drives
that claim where rounding decides the verdict:

- dyadic coordinates and radii, so separations and radius sums tie
  exactly;
- covering circles internally or externally tangent to the target, and
  concentric with it;
- near-coincident circle pairs (a center moved by one ulp or by a
  subnormal step, a radius scaled by ``1 + 2**-52``), the case whose
  difference of squares once cancelled to noise;
- zero-radius and sub-tolerance targets;
- covers of up to 40 circles.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.coverage import disk_covered_by_disks
from repro.geometry.point import Point
from repro.testing.scalar_reference import scalar_disk_covered_by_disks

dyadic = st.integers(-24, 24).map(lambda v: v / 8.0)
dyadic_radius = st.integers(0, 32).map(lambda v: v / 8.0)
wide = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
wide_radius = st.floats(min_value=0.0, max_value=6.0, allow_nan=False)
#: Target radii at and around the zero / tolerance thresholds.
small_radius = st.sampled_from([0.0, 5e-324, 1e-12, 1e-9, 2e-9, 1e-6])
#: Center offsets from one subnormal step up to a few ulps of 1.0.
tiny_offset = st.sampled_from(
    [0.0, 5e-324, 1e-310, 2.0**-1060, 2.0**-52, 2.0**-50, -5e-324, -(2.0**-52)]
)


@st.composite
def targets(draw) -> Circle:
    x = draw(st.one_of(dyadic, wide))
    y = draw(st.one_of(dyadic, wide))
    radius = draw(st.one_of(dyadic_radius, wide_radius, small_radius))
    return Circle(Point(x, y), radius)


@st.composite
def related_circle(draw, target: Circle, cover: List[Circle]) -> Circle:
    """A covering circle placed where the kernel's predicates tie."""
    kind = draw(
        st.sampled_from(
            ["free", "tangent-in", "tangent-out", "concentric", "twin", "near-target"]
        )
    )
    tx, ty, tr = target.center.x, target.center.y, target.radius
    if kind == "free":
        x = draw(st.one_of(dyadic, wide))
        y = draw(st.one_of(dyadic, wide))
        return Circle(Point(x, y), draw(st.one_of(dyadic_radius, wide_radius)))
    angle = draw(st.sampled_from([0.0, math.pi / 2, math.pi, 0.7, -2.1]))
    if kind in ("tangent-in", "tangent-out"):
        separation = draw(st.integers(1, 24).map(lambda v: v / 8.0))
        x = tx + separation * math.cos(angle)
        y = ty + separation * math.sin(angle)
        if kind == "tangent-in":
            return Circle(Point(x, y), separation + tr)
        return Circle(Point(x, y), abs(separation - tr))
    if kind == "concentric":
        return Circle(Point(tx, ty), draw(st.one_of(dyadic_radius, small_radius)))
    if kind == "twin" and cover:
        base = draw(st.sampled_from(cover))
        dx = draw(tiny_offset)
        dy = draw(tiny_offset)
        scale = draw(st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53]))
        return Circle(Point(base.center.x + dx, base.center.y + dy), base.radius * scale)
    # A center a subnormal or one-ulp step from the target's.
    dx = draw(tiny_offset)
    dy = draw(tiny_offset)
    return Circle(Point(tx + dx, ty + dy), draw(st.one_of(dyadic_radius, wide_radius)))


@st.composite
def scenes(draw, max_circles: int = 40):
    target = draw(targets())
    size = draw(st.integers(0, max_circles))
    cover: List[Circle] = []
    for _ in range(size):
        cover.append(draw(related_circle(target, cover)))
    return target, cover


def outcome(test, target, cover, tolerance=1e-9):
    """The verdict, or the exception type when the test raises."""
    try:
        return test(target, cover, tolerance)
    except (ArithmeticError, ValueError) as error:
        return type(error)


class TestKernelEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(scene=scenes(max_circles=8))
    def test_small_covers(self, scene):
        target, cover = scene
        assert outcome(disk_covered_by_disks, target, cover) == outcome(
            scalar_disk_covered_by_disks, target, cover
        )

    @settings(max_examples=60, deadline=None)
    @given(scene=scenes(max_circles=40))
    def test_covers_of_up_to_forty_circles(self, scene):
        target, cover = scene
        assert outcome(disk_covered_by_disks, target, cover) == outcome(
            scalar_disk_covered_by_disks, target, cover
        )

    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes(max_circles=6),
        tolerance=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.25]),
    )
    def test_every_tolerance(self, scene, tolerance):
        target, cover = scene
        assert outcome(disk_covered_by_disks, target, cover, tolerance) == outcome(
            scalar_disk_covered_by_disks, target, cover, tolerance
        )

    @pytest.mark.parametrize(
        "separation", [5e-324, 1e-310, 2.0**-1060, 2.0**-1022, 1e-300]
    )
    @pytest.mark.parametrize("target_radius", [0.0, 1e-9, 2e-9, 0.5, 1.0])
    def test_subnormal_separations(self, separation, target_radius):
        """Centers a subnormal step apart: concentric at float precision."""
        target = Circle(Point(0.0, 0.0), target_radius)
        for radius in (target_radius, target_radius * (1.0 + 2.0**-52), 1.0, 2.0):
            cover = [
                Circle(Point(separation, 0.0), radius),
                Circle(Point(0.0, -separation), radius),
                Circle(Point(separation, separation), radius * 0.5),
            ]
            for tolerance in (1e-9, 0.0):
                assert outcome(
                    disk_covered_by_disks, target, cover, tolerance
                ) == outcome(scalar_disk_covered_by_disks, target, cover, tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, 2.0**-30, 1e-9, 0.25])
    @pytest.mark.parametrize(
        "target, cover",
        [
            # Four circles through the exactly representable point (3, 4):
            # the 3-4-5 pair (i, j) puts a vertex there, every other
            # boundary passes through it, and only strict containment
            # keeps the union from certifying a disk around it.
            (
                Circle(Point(3.0, 4.0), 1.0),
                [
                    Circle(Point(0.0, 0.0), 5.0),
                    Circle(Point(6.0, 0.0), 5.0),
                    Circle(Point(3.0, 0.0), 4.0),
                    Circle(Point(3.0, 8.0), 4.0),
                ],
            ),
            # Three radius-5 circles through the origin, ordered so that
            # the origin is only ever the first (then only the second)
            # vertex a pair yields: each vertex branch meets the exact
            # tie on its own.
            (
                Circle(Point(0.0, 0.0), 1.0),
                [
                    Circle(Point(3.0, 4.0), 5.0),
                    Circle(Point(-5.0, 0.0), 5.0),
                    Circle(Point(4.0, -3.0), 5.0),
                ],
            ),
            (
                Circle(Point(0.0, 0.0), 1.0),
                [
                    Circle(Point(3.0, 4.0), 5.0),
                    Circle(Point(5.0, 0.0), 5.0),
                    Circle(Point(-4.0, -3.0), 5.0),
                ],
            ),
            # The origin is a vertex on the target's boundary: only the
            # strict "inside the target" test skips it.
            (
                Circle(Point(1.5, 0.0), 1.5),
                [
                    Circle(Point(0.0, 5.0), 5.0),
                    Circle(Point(-4.0, -3.0), 5.0),
                    Circle(Point(-3.0, 4.0), 5.0),
                    Circle(Point(4.0, -3.0), 5.0),
                    Circle(Point(3.0, 4.0), 5.0),
                ],
            ),
            # Arcs that close the boundary only without the angular
            # tolerance shrink (at tolerance 0.25).
            (
                Circle(Point(-0.5, -2.0), 2.0),
                [
                    Circle(Point(3.0, 4.0), 5.0),
                    Circle(Point(0.0, -5.0), 5.0),
                    Circle(Point(-3.0, 4.0), 5.0),
                    Circle(Point(-5.0, 0.0), 5.0),
                    Circle(Point(4.0, 3.0), 5.0),
                    Circle(Point(-3.0, -4.0), 5.0),
                ],
            ),
            # A sub-tolerance target whose center sits exactly one
            # tolerance (2**-30) inside a covering boundary.
            (
                Circle(Point(1.0 - 2.0**-30, 0.0), 2.0**-30),
                [Circle(Point(0.0, 0.0), 1.0)],
            ),
            # Internally tangent circles 1.7e-18 apart, where the
            # difference of squares once cancelled to noise.
            (
                Circle(Point(0.0, 0.004), 0.005),
                [
                    Circle(Point(0.0, 0.010000000000000002), 0.010000000000000002),
                    Circle(Point(0.0, 0.01), 0.01),
                    Circle(Point(0.0, -0.004), 0.006),
                ],
            ),
            # A concentric ring: the covering disk equals the target.
            (Circle(Point(1.0, 1.0), 2.0), [Circle(Point(1.0, 1.0), 2.0)]),
        ],
        ids=[
            "triple-point",
            "origin-first-vertex",
            "origin-second-vertex",
            "vertex-on-target-boundary",
            "arcs-close-without-shrink",
            "sub-tolerance-target",
            "near-coincident",
            "concentric-ring",
        ],
    )
    def test_degenerate_configurations(self, target, cover, tolerance):
        assert outcome(disk_covered_by_disks, target, cover, tolerance) == outcome(
            scalar_disk_covered_by_disks, target, cover, tolerance
        )

    def test_negative_target_radius_raises_in_both(self):
        # Circle itself rejects a negative radius, so a duck-typed target
        # is the only way one reaches the kernel.
        target = SimpleNamespace(center=Point(0.0, 0.0), radius=-1.0)
        cover = [Circle(Point(0.0, 0.0), 5.0)]
        with pytest.raises(ValueError, match="non-negative"):
            disk_covered_by_disks(target, cover)
        with pytest.raises(ValueError, match="non-negative"):
            scalar_disk_covered_by_disks(target, cover)
