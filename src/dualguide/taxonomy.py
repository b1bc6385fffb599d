"""The 10-class detection taxonomy and the pair-evaluation class groupings."""

from __future__ import annotations

CLASS_NAMES: tuple[str, ...] = (
    "car",
    "truck",
    "construction_vehicle",
    "bus",
    "trailer",
    "barrier",
    "motorcycle",
    "bicycle",
    "pedestrian",
    "traffic_cone",
)

NUM_CLASSES = len(CLASS_NAMES)

CAR, TRUCK, CONSTRUCTION_VEHICLE, BUS, TRAILER, BARRIER, MOTORCYCLE, BICYCLE, \
    PEDESTRIAN, TRAFFIC_CONE = range(NUM_CLASSES)

# Per grouping strategy, the class groups a pair's two classes must share;
# None keeps every pair. "collision_cost" splits by how costly a collision
# with the object is: boundary markers and people vs. everything
# vehicle-like. "cbgs_groups" pairs classes of comparable shape and frequency.
CLASS_GROUPS: dict[str, tuple[frozenset[int], ...] | None] = {
    "collision_cost": (
        frozenset({BARRIER, PEDESTRIAN, TRAFFIC_CONE}),
        frozenset({CAR, TRUCK, CONSTRUCTION_VEHICLE, BUS, TRAILER, MOTORCYCLE, BICYCLE}),
    ),
    "cbgs_groups": (
        frozenset({CAR}),
        frozenset({TRUCK, CONSTRUCTION_VEHICLE}),
        frozenset({BUS, TRAILER}),
        frozenset({BARRIER}),
        frozenset({MOTORCYCLE, BICYCLE}),
        frozenset({PEDESTRIAN, TRAFFIC_CONE}),
    ),
    "none": None,
}

GROUPING_STRATEGIES = tuple(CLASS_GROUPS)


def same_group(class_a: int, class_b: int, strategy: str) -> bool:
    """Whether two class ids fall in the same group under a strategy."""
    groups = CLASS_GROUPS[strategy]
    if groups is None:
        return True
    for group in groups:
        if class_a in group:
            return class_b in group
    return False
