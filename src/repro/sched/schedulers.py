"""Activation schedulers: who wakes up when.

A :class:`Scheduler` owns the *timing* of amoebot activations and
nothing else.  The :class:`~repro.sched.engine.ActivationEngine` asks it
for one number per activation event — the delay until the amoebot's next
wake-up — and orders events through a priority queue.  The protocol is
deliberately tiny so adversaries, randomized schedulers and rate models
are all the same kind of object:

* :meth:`Scheduler.start` — (re)initialize for a set of amoebot ids;
* :meth:`Scheduler.next_delay` — delay until the given amoebot's next
  activation, in abstract time units;
* ``observe_layout(compiled)`` — *optional*: an adversary may inspect
  the current compiled circuit wiring before a round to pick its
  victims, reading each set's owner as a grid-index id
  (``compiled.index.node_id``); the worst-case heuristic targets
  partition sets with many external links — the cut vertices of the
  circuits, where a delayed amoebot stalls the most communication.

All schedulers respect a *fairness bound*: every amoebot's delay is at
least 1 (nobody activates infinitely often) and the adversary's delays
are capped at its bound ``delta`` (nobody starves forever) — the
standard asynchronous-adversary contract.  Randomness is owned by the
scheduler (seeded), so a schedule is reproducible bit for bit.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.sim.compiled import CompiledLayout

#: Base names accepted by :func:`make_scheduler` (the CLI / campaign
#: surface).  Mirrored as a literal in :mod:`repro.experiments.spec` so
#: spec validation never imports the simulator.
SCHEDULER_NAMES = ("sync", "random", "adversarial", "weighted")


class Scheduler(Protocol):
    """Decides per-amoebot activation delays for the event queue."""

    name: str

    def start(self, ids: Sequence[int]) -> None:
        """(Re)initialize for the given amoebot ids."""
        ...

    def next_delay(self, node_id: int) -> float:
        """Delay until ``node_id``'s next activation (>= some bound > 0)."""
        ...


class SynchronousScheduler:
    """Lock-step rounds: every amoebot activates once per time unit.

    Under this scheduler the event-driven engine reproduces the plain
    synchronous :class:`~repro.sim.engine.CircuitEngine` bit for bit:
    every epoch contains exactly one activation per amoebot and
    completes in exactly one time unit.
    """

    name = "sync"

    def start(self, ids: Sequence[int]) -> None:
        """Stateless: lock-step needs no per-run initialization."""

    def next_delay(self, node_id: int) -> float:
        """Everyone re-activates exactly one time unit later."""
        return 1.0


class RandomSequentialScheduler:
    """Poisson clocks: i.i.d. exponential delays, rate 1 per amoebot.

    The classic random-sequential (asynchronous) activation model.  The
    single seeded generator is consumed in event-queue pop order, which
    is deterministic, so the full activation sequence is reproducible
    per seed.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def start(self, ids: Sequence[int]) -> None:
        """Reset the generator so every run replays the same schedule."""
        self._rng = random.Random(self.seed)

    def next_delay(self, node_id: int) -> float:
        """Exponential delay, rate 1 (memoryless Poisson clock)."""
        return self._rng.expovariate(1.0)


class AdversarialDelayScheduler:
    """Delays chosen victims to the fairness bound ``delta``.

    Victims activate every ``delta`` time units, everyone else every 1 —
    the strongest delay pattern an adversary with fairness bound
    ``delta`` can impose.  Victims are either given explicitly or picked
    by the worst-case heuristic: before each round the adversary scores
    every amoebot by the external-link degree of its partition sets in
    the current compiled wiring (sets bridging many circuit segments are
    the circuits' cut vertices) and delays the top ``fraction``.
    """

    name = "adversarial"

    def __init__(
        self,
        delta: int = 4,
        fraction: float = 0.1,
        victims: Optional[Iterable[int]] = None,
    ):
        if delta < 1:
            raise ValueError(f"fairness bound delta must be >= 1, got {delta}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"victim fraction must be in [0, 1], got {fraction}")
        self.delta = delta
        self.fraction = fraction
        self._pinned = frozenset(victims) if victims is not None else None
        self.victims: frozenset = self._pinned or frozenset()
        self._ids: List[int] = []
        #: ``_ids`` ascending, and as a set.
        self._order: List[int] = []
        self._members: frozenset = frozenset()
        #: The last two compiled layouts scored, with their victims: a
        #: PASC iteration alternates its runs' layout with the global
        #: termination layout.
        self._scored: List[Tuple[CompiledLayout, frozenset]] = []

    def start(self, ids: Sequence[int]) -> None:
        """Remember the population and pick the initial victim set."""
        self._ids = list(ids)
        self._order = sorted(self._ids)
        self._members = frozenset(self._ids)
        self._scored = []
        if self._pinned is not None:
            self.victims = self._pinned
        elif not self._ids:
            self.victims = frozenset()
        else:
            # Until the adversary sees a wiring, delay a deterministic
            # prefix so the schedule is adversarial from round one.
            count = max(1, int(len(self._ids) * self.fraction))
            self.victims = frozenset(self._order[:count])

    def observe_layout(self, compiled: CompiledLayout) -> None:
        """Re-target: delay the owners of the highest-degree sets.

        An amoebot's score is the number of external links at its
        partition sets, read off the compiled pin table
        (:meth:`~repro.sim.compiled.CompiledLayout.link_degrees`).  Only
        the scored amoebots are sorted, by score and then id; amoebots
        without a link follow in ascending id order.  The victims are a
        function of the wiring alone, so the two layouts scored last
        are not scored again.
        """
        if self._pinned is not None or not self._ids:
            return
        for scored, victims in self._scored:
            if scored is compiled:
                self.victims = victims
                return
        score = compiled.link_degrees()
        count = max(1, int(len(self._ids) * self.fraction))
        # Ties break toward smaller ids: deterministic victim choice.
        members = self._members
        ranked = sorted(
            (nid for nid in score if nid in members), key=lambda nid: (-score[nid], nid)
        )[:count]
        if len(ranked) < count:
            unscored = (nid for nid in self._order if nid not in score)
            ranked.extend(islice(unscored, count - len(ranked)))
        self.victims = frozenset(ranked)
        self._scored = self._scored[-1:] + [(compiled, self.victims)]

    def next_delay(self, node_id: int) -> float:
        """Victims wait the full fairness bound, everyone else 1."""
        return float(self.delta) if node_id in self.victims else 1.0


class WeightedScheduler:
    """Heterogeneous Poisson clocks: per-amoebot activation rates.

    ``rates`` maps amoebot id to its rate; unlisted amoebots draw a rate
    uniformly from ``rate_span`` (seeded), modeling a population of
    faster and slower amoebots.  Delays are exponential with the
    amoebot's rate, so expected activations per time unit equal the
    rate.
    """

    name = "weighted"

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[int, float]] = None,
        rate_span: tuple = (0.5, 2.0),
    ):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        lo, hi = rate_span
        if not 0 < lo <= hi:
            raise ValueError(f"rate span must satisfy 0 < lo <= hi, got {rate_span}")
        self.seed = seed
        self.rate_span = (float(lo), float(hi))
        self._given = dict(rates) if rates else {}
        self.rates: Dict[int, float] = {}
        self._rng = random.Random(seed)

    def start(self, ids: Sequence[int]) -> None:
        """Draw (or validate) every amoebot's activation rate, seeded."""
        self._rng = random.Random(self.seed)
        lo, hi = self.rate_span
        self.rates = {}
        for nid in sorted(ids):
            rate = self._given.get(nid, self._rng.uniform(lo, hi))
            if rate <= 0:
                raise ValueError(f"activation rate must be positive, got {rate}")
            self.rates[nid] = rate

    def next_delay(self, node_id: int) -> float:
        """Exponential delay at the amoebot's own rate."""
        return self._rng.expovariate(self.rates.get(node_id, 1.0))


def make_scheduler(spec) -> Scheduler:
    """Build a scheduler from a CLI-style spec string.

    Accepted forms: ``sync``, ``random[:SEED]``,
    ``adversarial[:DELTA[:FRACTION]]``, ``weighted[:SEED]``.  A
    :class:`Scheduler` instance passes through unchanged.
    """
    if not isinstance(spec, str):
        return spec
    base, _, rest = spec.partition(":")
    params = rest.split(":") if rest else []
    try:
        if base == "sync":
            if params:
                raise ValueError("sync takes no parameters")
            return SynchronousScheduler()
        if base == "random":
            return RandomSequentialScheduler(seed=int(params[0]) if params else 0)
        if base == "adversarial":
            delta = int(params[0]) if params else 4
            fraction = float(params[1]) if len(params) > 1 else 0.1
            return AdversarialDelayScheduler(delta=delta, fraction=fraction)
        if base == "weighted":
            return WeightedScheduler(seed=int(params[0]) if params else 0)
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"bad scheduler spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown scheduler {base!r}; expected one of {SCHEDULER_NAMES} "
        "(optionally with ':'-separated parameters)"
    )
