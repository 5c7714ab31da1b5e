"""Declarative experiment specifications.

A *campaign* is data, not code: a named list of scenarios, each of which
describes a grid of (shape, n, k, l, seed, algorithm) configurations.
Campaigns are plain dataclasses round-trippable through dicts/JSON, so a
new experiment is a JSON file (or a registry entry), never an edit to a
hardcoded loop.

The cross product of one scenario's axes expands into
:class:`TrialSpec` objects — one fully concrete configuration each.  A
trial's identity is its *content hash* (:meth:`TrialSpec.key`): the
same configuration always maps to the same key, which is what gives the
result store caching and resume across runs, machines, and campaigns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

if TYPE_CHECKING:
    from repro.api import SolveRequest

ALGORITHMS = ("auto", "spt", "forest", "sequential", "wave")
PLACEMENTS = ("random", "spread", "extremes")

#: Scheduler base names a trial may request (mirrors
#: :data:`repro.sched.schedulers.SCHEDULER_NAMES`; duplicated as a
#: literal so spec validation never imports the simulator).  A spec is
#: ``""`` (plain synchronous engine) or ``NAME[:param[:param]]``.
SCHEDULERS = ("sync", "random", "adversarial", "weighted")

#: ``l`` value meaning "every node is a destination" (the paper's SSSP
#: setting, and the forest algorithm's default of no final pruning).
ALL_NODES = 0


class SpecError(ValueError):
    """A scenario or campaign description is malformed."""


def content_key(config: Mapping[str, object]) -> str:
    """Stable content hash of a JSON-ready configuration mapping.

    The identity used throughout the repository for jobs-as-data:
    :meth:`TrialSpec.key`, :meth:`repro.api.SolveRequest.key`, and the
    service layer's :meth:`repro.service.JobSpec.key` all hash their
    configuration through this one function, so any layer can cache,
    queue, or resume any other layer's work by key.
    """
    blob = json.dumps(dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _check_scheduler(spec: str) -> None:
    """Validate a scheduler spec string (``""`` or ``NAME[:params]``)."""
    if not spec:
        return
    base = spec.split(":", 1)[0]
    if base not in SCHEDULERS:
        raise SpecError(
            f"unknown scheduler {spec!r}; expected '' or one of "
            f"{SCHEDULERS} (optionally with ':'-separated parameters)"
        )


@dataclass(frozen=True)
class TrialSpec:
    """One fully concrete experiment configuration.

    ``shape`` is a CLI-style shape spec (``random:200:1``,
    ``hexagon:4``, ...) as understood by
    :func:`repro.workloads.build_structure`.  ``l == ALL_NODES`` selects
    every node as a destination.
    """

    scenario: str
    shape: str
    k: int
    l: int
    seed: int
    algorithm: str = "auto"
    placement: str = "random"
    measure_diameter: bool = False
    churn: str = ""
    churn_steps: int = 0
    churn_batch: int = 1
    scheduler: str = ""

    def __post_init__(self) -> None:
        # One set of rules for trials and requests: a trial is valid
        # exactly when the request it executes as is.
        from repro.api import RequestError

        try:
            # The seed plays no part in validation: skip the hashing.
            self._request(self.seed)
        except RequestError as exc:
            raise SpecError(str(exc)) from exc

    def request(self) -> "SolveRequest":
        """The :class:`~repro.api.SolveRequest` this trial executes as.

        Endpoints and churn are sampled from :meth:`sampling_seed`, so
        the request is as reproducible as the trial's content hash.
        """
        return self._request(self.sampling_seed())

    def _request(self, seed: int) -> "SolveRequest":
        from repro.api import SolveRequest

        return SolveRequest(
            kind="churn" if self.churn else "solve",
            shape=self.shape,
            k=self.k,
            l=self.l,
            seed=seed,
            placement=self.placement,
            algorithm=self.algorithm,
            scheduler=self.scheduler,
            churn=self.churn,
            churn_steps=self.churn_steps,
            churn_batch=self.churn_batch,
        )

    def config(self) -> Dict[str, object]:
        """The identity-bearing configuration (scenario name excluded).

        Two trials with equal configs are the same experiment even if
        they appear under different scenario or campaign names — this is
        what lets the store share cached results across campaigns.
        Churn parameters enter the config only when churn is enabled,
        and the scheduler only when one is named, so every pre-existing
        trial keeps its historical content hash (and its cached store
        records).
        """
        out: Dict[str, object] = {
            "shape": self.shape,
            "k": self.k,
            "l": self.l,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "placement": self.placement,
            "measure_diameter": self.measure_diameter,
        }
        if self.churn:
            out["churn"] = self.churn
            out["churn_steps"] = self.churn_steps
            out["churn_batch"] = self.churn_batch
        if self.scheduler:
            out["scheduler"] = self.scheduler
        return out

    def key(self) -> str:
        """Stable content hash of the configuration."""
        return content_key(self.config())

    def sampling_seed(self) -> int:
        """Deterministic per-trial seed for source/destination sampling.

        Derived from the content hash so that every distinct
        configuration samples independently, yet identically on every
        run, process, and worker count.
        """
        digest = hashlib.blake2b(
            self.key().encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") ^ self.seed

    def to_dict(self) -> Dict[str, object]:
        """Config plus scenario name, JSON-ready."""
        out = dict(self.config())
        out["scenario"] = self.scenario
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrialSpec":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown trial fields: {sorted(unknown)}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise SpecError(f"bad trial spec: {exc}") from exc


def _str_tuple(name: str, values: object) -> Tuple[str, ...]:
    if isinstance(values, str):
        values = [values]
    if not isinstance(values, (list, tuple)):
        raise SpecError(f"{name} must be a string or a list of strings")
    out = []
    for v in values:
        if not isinstance(v, str):
            raise SpecError(f"{name} entries must be strings, got {v!r}")
        out.append(v)
    if not out:
        raise SpecError(f"{name} must be non-empty")
    return tuple(out)


def _int_tuple(name: str, values: object) -> Tuple[int, ...]:
    if isinstance(values, (int, float)) and not isinstance(values, bool):
        values = [values]
    if not isinstance(values, (list, tuple)):
        raise SpecError(f"{name} must be an int or a list of ints")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SpecError(f"{name} entries must be ints, got {v!r}")
        out.append(v)
    if not out:
        raise SpecError(f"{name} must be non-empty")
    return tuple(out)


@dataclass(frozen=True)
class ScenarioSpec:
    """A grid of configurations sharing one shape template.

    ``shape`` may contain a ``{n}`` placeholder; ``sizes`` supplies the
    values substituted for it (and doubles as the sweep axis).  Without
    a placeholder the scenario is a single-shape grid and ``sizes`` must
    be empty.
    """

    name: str
    shape: str
    sizes: Tuple[int, ...] = ()
    ks: Tuple[int, ...] = (1,)
    ls: Tuple[int, ...] = (1,)
    seeds: Tuple[int, ...] = (0,)
    algorithm: str = "auto"
    placement: str = "random"
    measure_diameter: bool = False
    churn: str = ""
    churn_steps: int = 0
    churn_batch: int = 1
    #: Scheduler axis: one trial per entry (``""`` = plain synchronous
    #: engine, otherwise a spec like ``random:1`` or ``adversarial:4``).
    schedulers: Tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("scenario name must be non-empty")
        for attr in ("sizes", "ks", "ls", "seeds", "schedulers"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        if not self.schedulers:
            raise SpecError(f"scenario {self.name!r}: empty scheduler axis")
        for sched in self.schedulers:
            if not isinstance(sched, str):
                raise SpecError(
                    f"scenario {self.name!r}: scheduler entries must be "
                    f"strings, got {sched!r}"
                )
        has_placeholder = "{n}" in self.shape
        if has_placeholder and not self.sizes:
            raise SpecError(
                f"scenario {self.name!r}: shape template {self.shape!r} "
                "has a {n} placeholder but no sizes"
            )
        if self.sizes and not has_placeholder:
            raise SpecError(
                f"scenario {self.name!r}: sizes given but shape "
                f"{self.shape!r} has no {{n}} placeholder"
            )
        if not self.ks or not self.ls or not self.seeds:
            raise SpecError(f"scenario {self.name!r}: empty axis")
        # Every other rule is a trial's: a scenario is valid exactly
        # when each trial it expands to is.
        try:
            self.trials()
        except SpecError as exc:
            raise SpecError(f"scenario {self.name!r}: {exc}") from exc

    def trials(self) -> List[TrialSpec]:
        """Expand the grid into concrete trials (deduplicated, ordered)."""
        shapes = (
            [self.shape.replace("{n}", str(n)) for n in self.sizes]
            if self.sizes
            else [self.shape]
        )
        out: List[TrialSpec] = []
        seen = set()
        for shape in shapes:
            for k in self.ks:
                for l in self.ls:
                    for seed in self.seeds:
                        for scheduler in self.schedulers:
                            trial = TrialSpec(
                                scenario=self.name,
                                shape=shape,
                                k=k,
                                l=l,
                                seed=seed,
                                algorithm=self.algorithm,
                                placement=self.placement,
                                measure_diameter=self.measure_diameter,
                                churn=self.churn,
                                churn_steps=self.churn_steps,
                                churn_batch=self.churn_batch,
                                scheduler=scheduler,
                            )
                            if trial.key() not in seen:
                                seen.add(trial.key())
                                out.append(trial)
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {
            "name": self.name,
            "shape": self.shape,
            "sizes": list(self.sizes),
            "ks": list(self.ks),
            "ls": list(self.ls),
            "seeds": list(self.seeds),
            "algorithm": self.algorithm,
            "placement": self.placement,
            "measure_diameter": self.measure_diameter,
        }
        if self.churn:
            out["churn"] = self.churn
            out["churn_steps"] = self.churn_steps
            out["churn_batch"] = self.churn_batch
        if self.schedulers != ("",):
            out["schedulers"] = list(self.schedulers)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Parse and validate a scenario mapping (JSON-shaped)."""
        if not isinstance(data, Mapping):
            raise SpecError(f"scenario must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in data or "shape" not in data:
            raise SpecError("scenario requires 'name' and 'shape'")
        kwargs: Dict[str, object] = {
            "name": data["name"],
            "shape": data["shape"],
        }
        for axis in ("sizes", "ks", "ls", "seeds"):
            if axis in data:
                values = data[axis]
                # An empty sizes list is valid (non-template shapes
                # serialize it; to_dict always emits the key).
                if axis == "sizes" and isinstance(values, (list, tuple)) and not values:
                    kwargs[axis] = ()
                    continue
                kwargs[axis] = _int_tuple(axis, values)
        if "schedulers" in data:
            kwargs["schedulers"] = _str_tuple("schedulers", data["schedulers"])
        for scalar in (
            "algorithm",
            "placement",
            "measure_diameter",
            "churn",
            "churn_steps",
            "churn_batch",
        ):
            if scalar in data:
                kwargs[scalar] = data[scalar]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CampaignSpec:
    """A named, ordered collection of scenarios."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...] = field(default_factory=tuple)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("campaign name must be non-empty")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise SpecError(f"campaign {self.name!r} has no scenarios")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise SpecError(f"campaign {self.name!r} has duplicate scenario names")

    def trials(self) -> List[TrialSpec]:
        """All trials of all scenarios, in scenario order."""
        out: List[TrialSpec] = []
        for scenario in self.scenarios:
            out.extend(scenario.trials())
        return out

    def trial_count(self) -> int:
        """Number of distinct trials (deduplicated by content key)."""
        return len(expand_trials(self.trials()))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to the JSON format ``repro campaign --spec`` reads."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Parse and validate a campaign mapping (JSON-shaped)."""
        if not isinstance(data, Mapping):
            raise SpecError(f"campaign must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"name", "description", "scenarios"}
        if unknown:
            raise SpecError(f"unknown campaign fields: {sorted(unknown)}")
        if "name" not in data:
            raise SpecError("campaign requires a 'name'")
        raw = data.get("scenarios", [])
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise SpecError("'scenarios' must be a list")
        scenarios = tuple(ScenarioSpec.from_dict(s) for s in raw)
        return cls(
            name=data["name"],  # type: ignore[arg-type]
            scenarios=scenarios,
            description=data.get("description", ""),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a campaign from its JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid campaign JSON: {exc}") from exc
        return cls.from_dict(data)


def expand_trials(specs: Iterable[TrialSpec]) -> List[TrialSpec]:
    """Deduplicate trials across scenarios by content key, keeping order."""
    seen = set()
    out: List[TrialSpec] = []
    for trial in specs:
        if trial.key() not in seen:
            seen.add(trial.key())
            out.append(trial)
    return out
