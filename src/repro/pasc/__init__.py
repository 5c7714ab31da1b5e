"""The PASC (primary and secondary circuit) algorithm.

PASC is the distance-computation workhorse of the reconfigurable circuit
extension (Feldmann et al. [17], Padalkin et al. [26]; Lemmas 3-4 and
Corollaries 5-6 of the paper).  Executed on a chain, it lets every
amoebot learn, bit by bit (least significant first), the number of
*participating* amoebots strictly before it on the chain:

* with every amoebot participating this is the distance to the chain's
  first amoebot (Lemma 3);
* with 0/1 weights choosing the participants it is the (exclusive)
  weighted prefix sum (Corollary 6) — inclusive sums follow by locally
  adding the amoebot's own weight;
* run simultaneously on every root-to-leaf path of a rooted tree it is
  the depth of each node (Corollary 5).

Mechanics (faithful to the published construction): every unit keeps two
partition sets, *primary* and *secondary*, wired straight through passive
units and crossed at active ones.  One class,
:class:`~repro.pasc.chain.PascRun`, runs the construction on a rooted tree
of units in grid-index ids; a chain is the tree in which every unit's
parent is the unit before it.  The root unit beeps on its primary
set each iteration; a unit whose signal arrives on the secondary set
reads bit 1.  Initially all participants are active; after iteration
``t`` exactly the participants whose bits ``0..t`` are all 1 remain
active, so the signal parity at any unit equals the ``t``-th bit of its
prefix count.  Each iteration costs two rounds: the PASC beep and a
global termination-check beep by the remaining active participants
(Lemma 4).

The runner executes any number of PASC instances *in parallel* on one
:class:`~repro.sim.CircuitEngine`, sharing the two rounds per iteration —
this is what makes the paper's "apply the PASC algorithm simultaneously
on each path/portal" steps cost the maximum instead of the sum.
"""

from repro.pasc.chain import PascRun
from repro.pasc.runner import run_pasc, PascResult

__all__ = [
    "PascRun",
    "run_pasc",
    "PascResult",
]
