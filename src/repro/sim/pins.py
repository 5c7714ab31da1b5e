"""Pins and partition set identifiers.

In the reconfigurable circuit extension every edge ``{u, v}`` of
:math:`G_X` is replaced by ``c`` external links; the endpoint of link
``i`` at amoebot ``u`` is the *pin* ``(u, d, i)`` where ``d`` is the
direction from ``u`` to ``v``.  Neighboring amoebots share a common
labeling of their incident links (assumed in Section 1.2), which we model
by matching channel indices: pin ``(u, d, i)`` is wired to pin
``(v, opposite(d), i)``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.grid.coords import Node
from repro.grid.directions import Direction, opposite


class Pin(NamedTuple):
    """One pin: an endpoint of an external link at a specific amoebot.

    A :class:`typing.NamedTuple`, like :class:`~repro.grid.coords.Node`:
    hash, equality and order are those of ``(node, direction, channel)``
    and run in C.  Invariant: the hash is the field-tuple hash, which
    keeps the iteration order of pin-keyed tables (and so every round
    count) stable.  A pin compares equal to the plain tuple of its
    fields.
    """

    node: Node
    direction: Direction
    channel: int

    def mate(self) -> "Pin":
        """The pin at the other endpoint of this pin's external link."""
        return Pin(
            self.node.neighbor(self.direction),
            opposite(self.direction),
            self.channel,
        )


#: A partition set is identified by its owning amoebot plus a local label.
#: Labels are algorithm-chosen strings such as ``"primary"``; amoebots can
#: distinguish beeps arriving at different partition sets by label.
PartitionSetId = Tuple[Node, str]
