"""Named built-in campaigns mirroring the paper's experiment index.

The registry keeps scenario definitions *as data*, so the CLI, the
sweeps, the benchmark harness, and user scripts all name the same
experiments.  ``*-small`` variants are the quick versions used by
``repro sweep`` and CI smoke runs; the full versions reproduce the
benchmark sweeps (the T2/T3/T4 round tables of Theorems 39 and 56).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments.spec import CampaignSpec, ScenarioSpec

_REGISTRY: Dict[str, Callable[[], CampaignSpec]] = {}


def register_campaign(name: str, factory: Callable[[], CampaignSpec]) -> None:
    """Register a campaign factory under ``name`` (overwrites)."""
    _REGISTRY[name] = factory


def campaign_names() -> List[str]:
    """Sorted names of all registered campaigns."""
    return sorted(_REGISTRY)


def get_campaign(name: str) -> CampaignSpec:
    """Instantiate the named campaign.

    Raises :class:`KeyError` with the list of known names on a miss.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; known: {', '.join(campaign_names())}"
        ) from None
    return factory()


def _builtin(name: str) -> Callable[[Callable[[], CampaignSpec]], Callable[[], CampaignSpec]]:
    def deco(factory: Callable[[], CampaignSpec]) -> Callable[[], CampaignSpec]:
        register_campaign(name, factory)
        return factory

    return deco


@_builtin("spsp-small")
def _spsp_small() -> CampaignSpec:
    return CampaignSpec(
        name="spsp-small",
        description="SPSP rounds vs n at sweep sizes (Theorem 39, k = l = 1)",
        scenarios=(
            ScenarioSpec(
                name="spsp",
                shape="random:{n}:1",
                sizes=(50, 100, 200, 400),
                ks=(1,),
                ls=(1,),
                seeds=(1,),
                algorithm="spt",
                placement="extremes",
            ),
        ),
    )


@_builtin("spsp")
def _spsp() -> CampaignSpec:
    return CampaignSpec(
        name="spsp",
        description="T2: SPSP rounds flat in n (Theorem 39, k = l = 1)",
        scenarios=(
            ScenarioSpec(
                name="spsp",
                shape="random:{n}:1",
                sizes=(50, 100, 200, 400, 800),
                ks=(1,),
                ls=(1,),
                seeds=(1,),
                algorithm="spt",
                placement="extremes",
                measure_diameter=True,
            ),
        ),
    )


@_builtin("sssp-small")
def _sssp_small() -> CampaignSpec:
    return CampaignSpec(
        name="sssp-small",
        description="SSSP rounds vs n at sweep sizes (Theorem 39, l = n)",
        scenarios=(
            ScenarioSpec(
                name="sssp",
                shape="random:{n}:1",
                sizes=(50, 100, 200, 400),
                ks=(1,),
                ls=(0,),
                seeds=(1,),
                algorithm="spt",
                placement="extremes",
            ),
        ),
    )


@_builtin("sssp")
def _sssp() -> CampaignSpec:
    return CampaignSpec(
        name="sssp",
        description="T3: SSSP rounds logarithmic in n (Theorem 39, l = n)",
        scenarios=(
            ScenarioSpec(
                name="sssp",
                shape="random:{n}:4",
                sizes=(50, 100, 200, 400, 800),
                ks=(1,),
                ls=(0,),
                seeds=(1,),
                algorithm="spt",
                placement="extremes",
                measure_diameter=True,
            ),
        ),
    )


@_builtin("forest-small")
def _forest_small() -> CampaignSpec:
    return CampaignSpec(
        name="forest-small",
        description="forest rounds vs k at n = 200 (Theorem 56)",
        scenarios=(
            ScenarioSpec(
                name="forest",
                shape="random:200:1",
                sizes=(),
                ks=(2, 4, 8, 16),
                ls=(0,),
                seeds=(1,),
                algorithm="forest",
                placement="spread",
            ),
        ),
    )


@_builtin("forest")
def _forest() -> CampaignSpec:
    return CampaignSpec(
        name="forest",
        description=(
            "T4a: forest rounds polylog in k at n = 200, "
            "three random placements per k (Theorem 56)"
        ),
        scenarios=(
            ScenarioSpec(
                name="forest",
                shape="random:200:1",
                ks=(2, 4, 8, 16),
                ls=(0,),
                seeds=(1, 2, 3),
                algorithm="forest",
                placement="random",
            ),
        ),
    )


@_builtin("ablations")
def _ablations() -> CampaignSpec:
    return CampaignSpec(
        name="ablations",
        description=(
            "divide & conquer vs sequential merge on the same instances "
            "(Theorem 56 vs the O(k log n) baseline)"
        ),
        scenarios=(
            ScenarioSpec(
                name="divide-and-conquer",
                shape="random:150:1",
                ks=(2, 4, 8),
                ls=(0,),
                seeds=(1, 2),
                algorithm="forest",
                placement="random",
            ),
            ScenarioSpec(
                name="sequential-merge",
                shape="random:150:1",
                ks=(2, 4, 8),
                ls=(0,),
                seeds=(1, 2),
                algorithm="sequential",
                placement="random",
            ),
        ),
    )


@_builtin("churn-small")
def _churn_small() -> CampaignSpec:
    return CampaignSpec(
        name="churn-small",
        description=(
            "dynamic SPF under light churn: incremental repair rounds "
            "vs structure size (growth / erosion)"
        ),
        scenarios=(
            ScenarioSpec(
                name="churn-growth",
                shape="random:{n}:1",
                sizes=(50, 100),
                ks=(1,),
                ls=(3,),
                seeds=(1,),
                churn="growth",
                churn_steps=4,
                churn_batch=2,
            ),
            ScenarioSpec(
                name="churn-erosion",
                shape="random:{n}:1",
                sizes=(50, 100),
                ks=(1,),
                ls=(3,),
                seeds=(1,),
                churn="erosion",
                churn_steps=4,
                churn_batch=2,
            ),
        ),
    )


@_builtin("churn")
def _churn() -> CampaignSpec:
    return CampaignSpec(
        name="churn",
        description=(
            "T5: self-healing SPF under churn — all four edit flavors, "
            "repair cost vs n and k"
        ),
        scenarios=(
            ScenarioSpec(
                name="churn-growth",
                shape="random:{n}:1",
                sizes=(100, 200, 400),
                ks=(1,),
                ls=(5,),
                seeds=(1, 2),
                churn="growth",
                churn_steps=8,
                churn_batch=4,
            ),
            ScenarioSpec(
                name="churn-erosion",
                shape="random:{n}:1",
                sizes=(100, 200, 400),
                ks=(1,),
                ls=(5,),
                seeds=(1, 2),
                churn="erosion",
                churn_steps=8,
                churn_batch=4,
            ),
            ScenarioSpec(
                name="churn-tunnel",
                shape="random:{n}:1",
                sizes=(100, 200),
                ks=(1,),
                ls=(5,),
                seeds=(1, 2),
                churn="tunnel",
                churn_steps=6,
                churn_batch=3,
            ),
            ScenarioSpec(
                name="churn-block-move",
                shape="random:{n}:1",
                sizes=(100, 200),
                ks=(2,),
                ls=(0,),
                seeds=(1, 2),
                placement="spread",
                churn="block_move",
                churn_steps=6,
                churn_batch=4,
            ),
        ),
    )


@_builtin("sched-small")
def _sched_small() -> CampaignSpec:
    return CampaignSpec(
        name="sched-small",
        description=(
            "activation cost per scheduler on one instance: same rounds, "
            "different wake-up counts (sync vs random vs adversarial)"
        ),
        scenarios=(
            ScenarioSpec(
                name="sched",
                shape="random:200:7",
                ks=(1, 4),
                ls=(0,),
                seeds=(1,),
                placement="spread",
                schedulers=("sync", "random:1", "adversarial:4", "weighted:1"),
            ),
        ),
    )


@_builtin("sched")
def _sched() -> CampaignSpec:
    return CampaignSpec(
        name="sched",
        description=(
            "T6: activation cost vs n per scheduler — rounds stay "
            "scheduler-invariant while activations scale with the "
            "scheduler's waste"
        ),
        scenarios=(
            ScenarioSpec(
                name="sched-scaling",
                shape="random:{n}:7",
                sizes=(100, 200, 400),
                ks=(1, 4),
                ls=(0,),
                seeds=(1, 2),
                placement="spread",
                schedulers=("sync", "random:1", "adversarial:4", "weighted:1"),
            ),
        ),
    )


@_builtin("shapes")
def _shapes() -> CampaignSpec:
    return CampaignSpec(
        name="shapes",
        description="(2, 3)-SPF across shape families, two samples each",
        scenarios=(
            ScenarioSpec(
                name="hexagon",
                shape="hexagon:{n}",
                sizes=(2, 3, 4),
                ks=(2,),
                ls=(3,),
                seeds=(0, 1),
            ),
            ScenarioSpec(
                name="lollipop",
                shape="lollipop:{n}:12",
                sizes=(2, 3, 4),
                ks=(2,),
                ls=(3,),
                seeds=(0, 1),
            ),
            ScenarioSpec(
                name="comb",
                shape="comb:{n}:4",
                sizes=(4, 6, 8),
                ks=(2,),
                ls=(3,),
                seeds=(0, 1),
            ),
        ),
    )
