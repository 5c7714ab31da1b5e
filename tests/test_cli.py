"""Tests for the command line interface."""

import pytest

from repro.cli import main, make_structure
from repro.workloads import hexagon


class TestMakeStructure:
    def test_hexagon(self):
        assert make_structure("hexagon:2") == hexagon(2)

    def test_random_with_seed(self):
        a = make_structure("random:50:3")
        b = make_structure("random:50:3")
        assert a == b
        assert len(a) == 50

    def test_dendrite(self):
        assert len(make_structure("dendrite:30:1")) == 30

    def test_parallelogram(self):
        assert len(make_structure("parallelogram:4:3")) == 12

    def test_line_comb_staircase_triangle(self):
        assert len(make_structure("line:7")) == 7
        assert len(make_structure("triangle:4")) == 10
        make_structure("comb:3:2")
        make_structure("staircase:3:2")

    def test_lollipop(self):
        from repro.workloads import lollipop

        assert make_structure("lollipop:2:10") == lollipop(2, 10)
        assert len(make_structure("lollipop:2:10")) == 29

    def test_unknown_shape(self):
        with pytest.raises(SystemExit):
            make_structure("torus:3")

    def test_bad_arity(self):
        with pytest.raises(SystemExit):
            make_structure("hexagon:1:2:3")

    def test_non_integer_argument(self):
        with pytest.raises(SystemExit):
            make_structure("hexagon:big")


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve", "--shape", "hexagon:2", "-k", "2", "-l", "2"]) == 0
        out = capsys.readouterr().out
        assert "synchronous rounds" in out
        assert "algorithm: forest" in out

    def test_solve_single_source_ascii(self, capsys):
        assert main(
            ["solve", "--shape", "hexagon:2", "-k", "1", "-l", "2", "--ascii"]
        ) == 0
        out = capsys.readouterr().out
        assert "algorithm: spt" in out
        assert "S" in out

    def test_solve_spread(self, capsys):
        assert main(
            ["solve", "--shape", "random:60:2", "-k", "3", "-l", "2", "--spread"]
        ) == 0
        assert "hops" in capsys.readouterr().out

    def test_sweep_spsp(self, capsys):
        assert main(["sweep", "spsp"]) == 0
        out = capsys.readouterr().out
        assert "SPSP rounds vs n" in out

    def test_info(self, capsys):
        assert main(["info", "--shape", "hexagon:2"]) == 0
        out = capsys.readouterr().out
        assert "X-portals" in out
        assert "tree: True" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignCommand:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "spsp-small" in out
        assert "trials" in out

    def test_run_and_resume_cache_hits(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        spec = tmp_path / "campaign.json"
        spec.write_text(
            """
            {"name": "cli-tiny", "scenarios": [
                {"name": "hex", "shape": "hexagon:2",
                 "ks": [1, 2], "ls": [2], "seeds": [0]}
            ]}
            """
        )
        assert main(
            ["campaign", "run", "--spec", str(spec), "--store", store,
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "executed 2, cache hits 0" in out
        assert (tmp_path / "results.jsonl").exists()

        assert main(
            ["campaign", "resume", "--spec", str(spec), "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "executed 0, cache hits 2" in out
        assert "scenario 'hex'" in out

    def test_run_builtin_by_name(self, tmp_path, capsys):
        store = str(tmp_path / "spsp.jsonl")
        assert main(
            ["campaign", "run", "--name", "spsp-small", "--store", store,
             "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign 'spsp-small': 4 trials" in out
        assert "scenario 'spsp'" in out

    def test_summarize(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        spec = tmp_path / "campaign.json"
        spec.write_text(
            '{"name": "t", "scenarios": '
            '[{"name": "hex", "shape": "hexagon:2", "ls": [2]}]}'
        )
        assert main(
            ["campaign", "run", "--spec", str(spec), "--store", store,
             "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "summarize", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "scenario 'hex'" in out

    def test_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "run", "--name", "nope"])
        with pytest.raises(SystemExit, match="required"):
            main(["campaign", "run"])
        with pytest.raises(SystemExit, match="resume"):
            main(
                ["campaign", "resume", "--name", "spsp-small", "--store",
                 str(tmp_path / "absent.jsonl")]
            )
        with pytest.raises(SystemExit, match="no result store"):
            main(["campaign", "summarize", "--store", str(tmp_path / "no.jsonl")])
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["campaign", "run", "--spec", str(bad)])


class TestRouteCommand:
    def test_route_reports_stats(self, capsys):
        assert main(["route", "--shape", "hexagon:3", "-k", "1", "-l", "3"]) == 0
        out = capsys.readouterr().out
        assert "steps (makespan):" in out
        assert "congestion overhead:" in out
        assert "total moves:" in out

    def test_route_with_sampled_tokens(self, capsys):
        assert main(
            ["route", "--shape", "random:80:2", "-k", "2", "-l", "4",
             "--tokens", "5", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "tokens routed: 5" in out


class TestChurnCommand:
    def test_churn_reports_repairs(self, capsys):
        assert main(
            ["churn", "--shape", "random:80:1", "-k", "1", "-l", "3",
             "--kind", "growth", "--steps", "3", "--batch", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "initial solve:" in out
        assert "repair total:" in out
        assert out.count("patch") + out.count("full") >= 3

    def test_churn_with_faults_and_ascii(self, capsys):
        assert main(
            ["churn", "--shape", "random:60:1", "-k", "1", "-l", "2",
             "--kind", "mixed", "--steps", "2", "--batch", "2",
             "--drop", "0.3", "--ascii"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "S" in out  # the rendered frame marks the source

    @pytest.mark.parametrize("argv, fresh_rounds", [
        (["--shape", "random:80:1", "-k", "1", "-l", "3", "--seed", "0",
          "--kind", "growth", "--steps", "3", "--batch", "2"], 32),
        # The reference solve stays synchronous under a scheduler.
        (["--shape", "random:100:2", "--kind", "erosion", "--steps", "4",
          "--scheduler", "random:2"], 34),
    ])
    def test_churn_prints_fresh_reference_solve(self, capsys, argv, fresh_rounds):
        assert main(["churn", *argv]) == 0
        out = capsys.readouterr().out
        assert (
            f"(one fresh solve on the final structure: {fresh_rounds} rounds)"
            in out
        )

    @pytest.mark.parametrize("kind, shape, fresh_rounds", [
        # Erosion removes nodes that were destinations of the initial
        # solve; growth adds nodes that become destinations.
        ("erosion", "random:100:2", 127),
        ("growth", "random:80:1", 209),
    ])
    def test_fresh_reference_solve_with_all_nodes_as_destinations(
        self, kind, shape, fresh_rounds
    ):
        from repro.api import Session
        from repro.cli import _fresh_solve_rounds

        report = Session().churn(
            shape, k=2, l=0, seed=4, churn=kind, churn_steps=4, churn_batch=3
        )
        assert report.n != report.repair["initial_n"]
        assert _fresh_solve_rounds(report) == fresh_rounds

    def test_churn_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["churn", "--shape", "hexagon:2", "--kind", "melt"])


class TestStoreCompactionCLI:
    def test_resume_compacts_superseded_lines(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(
            ["campaign", "run", "--name", "spsp-small", "--store", str(store),
             "--quiet"]
        ) == 0
        # Force duplicate lines, then resume: the CLI compacts first.
        assert main(
            ["campaign", "run", "--name", "spsp-small", "--store", str(store),
             "--quiet", "--fresh"]
        ) == 0
        assert main(
            ["campaign", "resume", "--name", "spsp-small", "--store", str(store),
             "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "compacted store: dropped 4 superseded line(s)" in out
        lines = [l for l in store.read_text().splitlines() if l.strip()]
        assert len(lines) == 4
