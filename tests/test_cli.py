"""Command-line interface: outputs, file round trips, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nochka
from nochka.cli import main
from nochka.fixtures import pencil_lines_arrangement, three_point_arrangement
from nochka.geometry import format_arrangement, parse_arrangement
from nochka.rank_core import format_oracle, linear_matroid_oracle

FIXTURE_VECTORS = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1),
                   (1, 1, 1), (1, 2, 3)]


@pytest.fixture()
def oracle_file(tmp_path):
    path = tmp_path / "fixture7.oracle"
    path.write_text(format_oracle(linear_matroid_oracle(FIXTURE_VECTORS, 4)))
    return str(path)


@pytest.fixture()
def pencil_file(tmp_path):
    path = tmp_path / "pencil.arrangement"
    path.write_text(format_arrangement(pencil_lines_arrangement()))
    return str(path)


@pytest.fixture()
def parabola_file(tmp_path):
    path = tmp_path / "parabola.curve"
    path.write_text("[curve] M=2\n1\nz\nz^2\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRankCommands:
    def test_module_entry_point(self, oracle_file):
        src = str(Path(nochka.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "nochka.cli", "weights",
                               "--oracle", oracle_file],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert json.loads(done.stdout)["theta"] == "1/2"

    def test_weights(self, capsys, oracle_file):
        code, payload = run_json(capsys, ["weights", "--oracle", oracle_file])
        assert code == 0
        assert payload["omega"] == ["1/3", "1/3", "1/3", "1/2", "1/2", "1/2", "1/2"]
        assert payload["theta"] == "1/2"

    def test_validate_rank_pass(self, capsys, oracle_file):
        code, payload = run_json(capsys, ["validate-rank", "--oracle", oracle_file])
        assert code == 0 and payload["ok"]

    def test_validate_rank_fail_exit_4(self, capsys, tmp_path, oracle_file):
        text = open(oracle_file).read().replace("7 2 4", "7 2 3", 1)
        bad = tmp_path / "bad.oracle"
        bad.write_text(text)
        code, payload = run_json(capsys, ["validate-rank", "--oracle", str(bad)])
        assert code == 4
        assert not payload["ok"]

    def test_filtration(self, capsys, oracle_file):
        code, payload = run_json(capsys, ["filtration", "--oracle", oracle_file])
        assert code == 0
        assert payload["subsets"] == [[1, 2, 3]]
        assert payload["ratios"] == ["1/3"]

    def test_greedy(self, capsys, oracle_file):
        code, payload = run_json(capsys, [
            "greedy", "--oracle", oracle_file,
            "--subset", "1,2,3,4", "--costs", "4,3,2,1,0,0,0"])
        assert code == 0
        assert payload["selected"] == [1, 4]
        assert payload["weighted_sum"] == "7/2"

    def test_greedy_repeated_index_exit_2(self, capsys, oracle_file):
        code = main(["greedy", "--oracle", oracle_file,
                     "--subset", "1,1,1,2", "--costs", "4,3,2,1,0,0,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated index" in captured.err

    @pytest.mark.parametrize("subsets", [("1,1", "2,1"), ("1", "2,1"), ("1,1", "1,2")])
    def test_validate_rank_unsorted_subset_exit_2(self, capsys, tmp_path, subsets):
        # `1 : 1` and `1,2 : 2` are the sorted forms of the q = 2 file's lines
        path = tmp_path / "unsorted.oracle"
        path.write_text(f"2 1 1\n- : 0\n{subsets[0]} : 1\n2 : 1\n{subsets[1]} : 2\n")
        assert main(["validate-rank", "--oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "increasing order (line " in captured.err
        sorted_path = tmp_path / "sorted.oracle"
        sorted_path.write_text("2 1 1\n- : 0\n1 : 1\n2 : 1\n1,2 : 2\n")
        assert main(["validate-rank", "--oracle", str(sorted_path)]) == 0

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "broken.oracle"
        bad.write_text("not an oracle\n")
        assert main(["weights", "--oracle", str(bad)]) == 2

    def test_flag_of_another_subcommand_exit_2(self, capsys, oracle_file):
        assert main(["weights", "--oracle", oracle_file, "--seed", "3"]) == 2


class TestGeometryCommands:
    def test_position_check(self, capsys, pencil_file):
        code, payload = run_json(capsys, ["position-check", "--arr", pencil_file])
        assert code == 0 and payload["ok"]
        assert payload["condition_ii"]["mode"] == "proxy"

    def test_position_check_failure(self, capsys, tmp_path):
        text = ("[space] M=2 n=2 degV=1 N=3\n[vars] x0 x1 x2\n[variety]\n"
                "[hypersurfaces]\n"
                "H1 : x1\nH2 : x2\nH3 : x1 + x2\nH4 : x1 + 2*x2\n")
        path = tmp_path / "concurrent.arrangement"
        path.write_text(text)
        code, payload = run_json(capsys, ["position-check", "--arr", str(path)])
        assert code == 4
        assert not payload["condition_i"]["ok"]

    def test_oracle_dump_round_trip(self, capsys, pencil_file, tmp_path):
        out = tmp_path / "pencil.oracle"
        code, _ = run_json(capsys, ["oracle-dump", "--arr", pencil_file,
                                    "--out", str(out)])
        assert code == 0
        from nochka.rank_core import parse_oracle
        oracle = parse_oracle(out.read_text())
        assert oracle.q == 9 and oracle.c([1, 2, 3]) == 2

    def test_hilbert(self, capsys, tmp_path):
        path = tmp_path / "three.arrangement"
        path.write_text(format_arrangement(three_point_arrangement()))
        code, payload = run_json(capsys, ["hilbert", "--arr", str(path), "--m", "2"])
        assert code == 0
        assert payload["H"] == 3 and payload["q_m"] == 6

    def test_hilbert_budget_bounds_the_variety_basis(self, capsys, tmp_path):
        path = tmp_path / "twisted_cubic.arrangement"
        path.write_text("[space] M=3 n=1 degV=3 N=1\n[vars] x0 x1 x2 x3\n[variety]\n"
                        "x0*x2 - x1^2\nx1*x3 - x2^2\nx0*x3 - x1*x2\n[hypersurfaces]\n"
                        "H0 : x0\nH1 : x3\nH2 : x0 + x1 + x2 + x3\n")
        argv = ["hilbert", "--arr", str(path), "--m", "2"]
        assert main(argv + ["--budget-gb-steps", "0"]) == 3
        assert "Groebner step budget 0 exceeded" in capsys.readouterr().err
        assert main(argv) == 0

    def test_hilbert_weight(self, capsys, tmp_path):
        from nochka.fixtures import conic_presentation_arrangement
        path = tmp_path / "conic.arrangement"
        path.write_text(format_arrangement(conic_presentation_arrangement()))
        code, payload = run_json(capsys, ["hilbert-weight", "--arr", str(path),
                                          "--m", "2", "--c", "1,0,0"])
        assert code == 0
        assert payload["S"] == "4"


class TestBoundsCommand:
    def test_intro_parameters(self, capsys):
        code, payload = run_json(capsys, [
            "bounds", "--n", "2", "--degV", "1", "--N", "3", "--q", "12",
            "--degrees", "2,2,2,1,1,1,1,1,1,1,1,1", "--epsilon", "1"])
        assert code == 0
        assert payload["m0"] == "9601"

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["bounds", "--n", "2", "--degV", "1", "--N", "3", "--q", "4",
                     "--degrees", "1,1,1,1", "--epsilon", "1"]) == 2


class TestAnalyticCommands:
    def test_jensen(self, capsys):
        code, payload = run_json(capsys, ["jensen", "--phi", "z^2 - 4",
                                          "--radii", "4,8,16"])
        assert code == 0
        assert payload["max_deviation"] < 1e-6
        assert abs(payload["constant"] - math.log(4)) < 1e-6

    def test_jensen_many_zeros_near_the_edge(self, capsys):
        # the disk of radius 5 needs the log-derivative step test: without it a
        # full turn of arg exp(z^2) hides between two samples of a box edge
        code, payload = run_json(capsys, ["jensen", "--phi", "exp(z^2) + exp(z) + 2",
                                          "--radii", "1.5,2.5,5"])
        assert code == 0
        assert payload["max_deviation"] < 1e-9

    @pytest.mark.parametrize("extra", [["--radii", "nan"], ["--radii", "2,inf"],
                                       ["--radii", "2", "--quad-tol", "0"],
                                       ["--radii", "2", "--quad-tol", "nan"]])
    def test_jensen_bad_radius_or_tolerance_exit_2(self, capsys, extra):
        assert main(["jensen", "--phi", "z - 1/2", *extra]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_wronskian_check(self, capsys, parabola_file):
        code, payload = run_json(capsys, ["wronskian-check", "--curve", parabola_file])
        assert code == 0 and payload["ok"]

    def test_cartan_check(self, capsys, pencil_file, parabola_file):
        code, payload = run_json(capsys, [
            "cartan-check", "--arr", pencil_file, "--curve", parabola_file,
            "--epsilon", "1", "--radii", "100"])
        assert code == 0
        assert payload["rows"][0]["slack"] > 0

    def test_smt_report_json_and_tsv(self, capsys, pencil_file, parabola_file):
        code, payload = run_json(capsys, [
            "smt-report", "--arr", pencil_file, "--curve", parabola_file,
            "--epsilon", "1/2", "--radii", "10,100", "--truncation", "2"])
        assert code == 0
        assert payload["mode"] == "hyperplane"
        assert all(row["slack"] > 0 for row in payload["rows"])

        code = main(["smt-report", "--arr", pencil_file, "--curve", parabola_file,
                     "--epsilon", "1/2", "--radii", "10", "--truncation", "2",
                     "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "r\tT\tlhs\trhs\tslack"

    def test_smt_report_vanishing_target_exit_2(self, capsys, tmp_path):
        arr = tmp_path / "g.arrangement"
        arr.write_text("[space] M=2 n=2 degV=1 N=2\n[vars] x0 x1 x2\n[variety]\n"
                       "[hypersurfaces]\nH0 : x0\nH2 : x2\nH3 : x0 + x1 + x2\n"
                       "G : x0*x2 - x1^2\n")
        curve = tmp_path / "g.curve"
        curve.write_text("[curve] M=2\n1\nexp(z)\nexp(2*z)\n")
        code = main(["smt-report", "--arr", str(arr), "--curve", str(curve),
                     "--epsilon", "1/2", "--radii", "2"])
        assert code == 2
        assert "target G vanishes identically on the curve" in capsys.readouterr().err

    def test_smt_report_untruncated(self, capsys, pencil_file, parabola_file):
        code, payload = run_json(capsys, [
            "smt-report", "--arr", pencil_file, "--curve", parabola_file,
            "--epsilon", "1/2", "--radii", "10", "--truncation", "inf"])
        assert code == 0
        assert set(payload["truncations"]) == {"inf"}


class TestGenFixture:
    def test_deterministic_and_reparseable(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["gen-fixture", "--seed", "1",
                                          "--out", str(tmp_path / "a")])
        assert code == 0
        assert payload["coefficient"] == 7
        first = open(payload["arrangement"]).read()
        arr = parse_arrangement(first)
        assert arr.degrees == (2, 2, 2) + (1,) * 9

        code2, payload2 = run_json(capsys, ["gen-fixture", "--seed", "1",
                                            "--out", str(tmp_path / "b")])
        assert open(payload2["arrangement"]).read() == first

        manifest = json.load(open(payload["manifest"]))
        assert manifest["q"] == 12 and manifest["position"]["ok"]
