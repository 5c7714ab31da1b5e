"""The example scripts run end to end.

``examples/figures.py`` draws the paper's figures from the portal
system, the tree primitives and the forest layers; it runs here in a
fresh interpreter, into a temporary directory, and must write every
figure it lists.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIGURES = (
    "fig1_structure.svg",
    "fig2_portals_x.svg",
    "fig2_portals_y.svg",
    "fig2_portals_z.svg",
    "fig3_root_prune.svg",
    "fig5_spt_raw.svg",
    "fig5_spt_pruned.svg",
    "fig6_line.svg",
    "fig15_regions.svg",
)


def test_figures_script_writes_every_svg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "figures"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", "figures.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(out)) == sorted(FIGURES)
    for name in FIGURES:
        svg = (out / name).read_text()
        assert svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>"), name
    assert "all figures regenerated" in done.stdout
