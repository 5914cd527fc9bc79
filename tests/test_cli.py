"""Command-line interface: outputs, file round trips, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nochka
from nochka.cli import build_parser, main
from nochka.curves import parse_coordinate
from nochka.fixtures import pencil_lines_arrangement, three_point_arrangement
from nochka.geometry import format_arrangement, parse_arrangement
from nochka.nevanlinna import zero_divisor
from nochka.rank_core import (_exact_header, _read_canonical, format_oracle,
                              linear_matroid_oracle, subset_labels)

FIXTURE_VECTORS = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1),
                   (1, 1, 1), (1, 2, 3)]


@pytest.fixture()
def oracle_file(tmp_path):
    path = tmp_path / "fixture7.oracle"
    path.write_text(format_oracle(linear_matroid_oracle(FIXTURE_VECTORS, 4)))
    return str(path)


@pytest.fixture(scope="module")
def intro_oracle_text():
    from nochka.fixtures import generate_intro_fixture
    from nochka.geometry import codim_oracle
    return format_oracle(codim_oracle(generate_intro_fixture(1).arrangement))


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

    def test_entry_past_int64_exit_2(self, capsys, tmp_path):
        # n + 1 = 2^63 admits the entry 2^63, which no int64 table holds
        path = tmp_path / "wide.oracle"
        path.write_text("1 9223372036854775807 9223372036854775807\n- : 0\n"
                        "1 : 9223372036854775808\n")
        assert main(["validate-rank", "--oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c{1} = 9223372036854775808 outside 0..9223372036854775807" in captured.err

    def test_n_plus_one_past_int64(self, capsys, tmp_path):
        # n + 1 = 2^63 is no int64, but the cap min(#S, n + 1) never passes q
        path = tmp_path / "wide.oracle"
        path.write_text("1 9223372036854775807 9223372036854775807\n- : 0\n1 : 1\n")
        code, payload = run_json(capsys, ["validate-rank", "--oracle", str(path)])
        assert code == 0 and payload["ok"]
        assert [check["ok"] for check in payload["checks"]] == [True] * 8
        assert main(["weights", "--oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid input: need q >= 2N-n+1 = 9223372036854775808,"
                                " got q = 1\n")

    def test_layouts_of_one_oracle_print_the_same(self, capsys, tmp_path, intro_oracle_text):
        # the canonical file and its CRLF copy (read_text turns CRLF into LF)
        # take the canonical read, the reversed copy the per-line reader
        header, *body = intro_oracle_text.splitlines()
        layouts = {"canonical": intro_oracle_text,
                   "reversed": "\n".join([header, *body[::-1]]) + "\n",
                   "crlf": intro_oracle_text.replace("\n", "\r\n")}
        paths = []
        for name, text in layouts.items():
            paths.append(tmp_path / f"{name}.oracle")
            paths[-1].write_bytes(text.encode("ascii"))
        exact = _exact_header(intro_oracle_text)
        labels = subset_labels(exact[0])
        assert [_read_canonical(path.read_text(), exact, labels) is not None
                for path in paths] == [True, False, True]
        for extra in (["validate-rank"], ["weights"],
                      ["greedy", "--subset", "1,2,3,4", "--costs", "4,3,2,1,0,0,0,0,0,0,0,0"]):
            outs = []
            for path in paths:
                code = main([extra[0], "--oracle", str(path), *extra[1:]])
                outs.append((code, capsys.readouterr().out))
            assert outs[0][0] == 0 and outs[1:] == [outs[0]] * 2, extra[0]

    def test_flag_of_another_subcommand_exit_2(self, capsys, oracle_file):
        assert main(["weights", "--oracle", oracle_file, "--seed", "3"]) == 2


class TestCachedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_interleaved_calls_print_as_when_first(self, capsys, oracle_file):
        calls = [["greedy", "--oracle", oracle_file, "--subset", "1,2,3,4",
                  "--costs", "4,3,2,1,0,0,0"],
                 ["weights", "--oracle", oracle_file, "--subset", "1"],
                 ["weights", "--oracle", oracle_file, "--format", "tsv"]]
        first = []
        for argv in calls:
            build_parser.cache_clear()
            code = main(argv)
            first.append((code, capsys.readouterr()))
        assert [code for code, _ in first] == [0, 2, 0]
        parser = build_parser()
        for argv, expected in zip(calls + calls, first + first):
            assert (main(argv), capsys.readouterr()) == expected
        assert build_parser() is parser


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

    def test_oracle_budget_bounds_the_restricted_runs(self, capsys, tmp_path):
        # on the twisted cubic the quadric H1 alone, with no hyperplane to
        # restrict to, is an emptiness question in 4 variables: it needs 3
        # S-pair steps, and the variety's own basis, built on parsing, 2
        text = ("[space] M=3 n=1 degV=3 N=2\n[vars] x0 x1 x2 x3\n[variety]\n"
                "-x1^2 + x0*x2\n-x2^2 + x1*x3\n-x1*x2 + x0*x3\n[hypersurfaces]\n"
                "H0 : 1/2*x0 - 3*x2\nH1 : -2/3*x1*x2 + x3^2\nH2 : x0 + x1 + x3\n")
        path = tmp_path / "twisted-cubic.arrangement"
        path.write_text(text)
        parse_arrangement(text, gb_steps=2)
        argv = ["oracle-dump", "--arr", str(path), "--out", str(tmp_path / "cubic.oracle")]
        for budget in ("0", "2"):
            assert main(argv + ["--budget-gb-steps", budget]) == 3
            assert f"Groebner step budget {budget} exceeded" in capsys.readouterr().err
        assert main(argv + ["--budget-gb-steps", "3"]) == 0

    def test_intro_oracle_needs_no_groebner_step(self, capsys, tmp_path, intro_oracle_text):
        from nochka.fixtures import generate_intro_fixture
        path = tmp_path / "intro-1.arrangement"
        path.write_text(format_arrangement(generate_intro_fixture(1).arrangement))
        argv = ["oracle-dump", "--arr", str(path), "--out"]
        assert main(argv + [str(tmp_path / "zero.oracle"), "--budget-gb-steps", "0"]) == 0
        assert main(argv + [str(tmp_path / "default.oracle")]) == 0
        zero = (tmp_path / "zero.oracle").read_text()
        assert zero == (tmp_path / "default.oracle").read_text() == intro_oracle_text

    @pytest.mark.parametrize("m", ["0", "-1"])
    @pytest.mark.parametrize("extra", [["hilbert"], ["hilbert-weight", "--c", "1,0,0,0,0,0,0,0,0"]],
                             ids=["hilbert", "hilbert-weight"])
    def test_hilbert_m_below_one_exit_2(self, capsys, pencil_file, extra, m):
        assert main([extra[0], "--arr", pencil_file, "--m", m, *extra[1:]]) == 2
        assert capsys.readouterr().err == "invalid input: m must be >= 1\n"

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

    @pytest.mark.parametrize("phi", [f"{10 ** 400}*z - 1", f"exp({10 ** 400}*z) + 1"])
    def test_jensen_coefficient_past_the_float_range_exit_2(self, capsys, phi):
        assert main(["jensen", "--phi", phi, "--radii", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: coefficient {10 ** 400} is past the float range\n"

    @pytest.mark.parametrize("command", ["cartan-check", "smt-report"])
    @pytest.mark.parametrize("h4, coordinate", [(f"x0 + x1 + {10 ** 400}*x2", "z"),
                                                ("x0 + x1 + x2", f"{10 ** 400}*z")],
                             ids=["hyperplane", "curve"])
    def test_coefficient_past_the_float_range_exit_2(self, capsys, tmp_path, command,
                                                     h4, coordinate):
        arr = tmp_path / "lines.arrangement"
        arr.write_text("[space] M=2 n=2 degV=1 N=2\n[vars] x0 x1 x2\n[variety]\n"
                       f"[hypersurfaces]\nH1 : x0\nH2 : x2\nH3 : x1 - 2*x0\nH4 : {h4}\n")
        curve = tmp_path / "parabola.curve"
        curve.write_text(f"[curve] M=2\n1\n{coordinate}\nz^2\n")
        assert main([command, "--arr", str(arr), "--curve", str(curve),
                     "--epsilon", "1", "--radii", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: coefficient {10 ** 400} is past the float range\n"

    def test_jensen_coefficient_below_the_float_range_exit_2(self, capsys):
        # a nonzero multiple of z + 1 whose coefficients would round to 0.0
        tiny = f"1/{10 ** 400}"
        assert main(["jensen", "--phi", f"{tiny}*z + {tiny}", "--radii", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: coefficient {tiny} is below the float range\n"

    def test_jensen_root_below_the_float_range_is_at_zero(self, capsys):
        # the coefficients as written are floats, but the monic factor
        # z - 1/10^400 is not: its root counts as log r, as a root at 0 does
        big = 10 ** 200
        phi = f"{big}*z - 1/{big}"
        code, payload = run_json(capsys, ["jensen", "--phi", phi, "--radii", "2"])
        assert code == 0
        assert payload["integrals"][0] == pytest.approx(math.log(2 * big), abs=1e-9)
        assert payload["integrals"][0] == pytest.approx(461.21, abs=5e-3)
        assert payload["countings"] == [pytest.approx(math.log(2))]
        assert zero_divisor(parse_coordinate(phi).poly).entries == ((0j, 1),)
        # a monic-factor coefficient past the float range still refuses
        assert main(["jensen", "--phi", f"1/{big}*z - {big}", "--radii", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: coefficient {-10 ** 400} is past the float range\n"

    @pytest.mark.parametrize("command", ["cartan-check", "smt-report"])
    def test_coefficient_below_the_float_range_exit_2(self, capsys, tmp_path, command):
        tiny = f"1/{10 ** 400}"
        arr = tmp_path / "lines.arrangement"
        arr.write_text("[space] M=2 n=2 degV=1 N=2\n[vars] x0 x1 x2\n[variety]\n"
                       f"[hypersurfaces]\nH1 : x0\nH2 : x2\nH3 : {tiny}*x1 - {tiny}*x0\n"
                       "H4 : x0 + x1 + x2\n")
        curve = tmp_path / "parabola.curve"
        curve.write_text("[curve] M=2\n1\nz\nz^2\n")
        assert main([command, "--arr", str(arr), "--curve", str(curve),
                     "--epsilon", "1/2", "--radii", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: coefficient {tiny} is below the float range\n"

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

    @pytest.mark.parametrize("command", ["bounds", "cartan-check", "smt-report"])
    def test_zero_denominator_epsilon_exit_2(self, capsys, pencil_file, parabola_file, command):
        if command == "bounds":
            argv = ["bounds", "--n", "2", "--degV", "1", "--N", "3", "--q", "12",
                    "--degrees", "2,2,2,1,1,1,1,1,1,1,1,1"]
        else:
            argv = [command, "--arr", pencil_file, "--curve", parabola_file, "--radii", "10"]
        assert main(argv + ["--epsilon", "1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: expected a rational, got '1/0'\n"

    @pytest.mark.parametrize("command", ["cartan-check", "smt-report"])
    @pytest.mark.parametrize("epsilon", ["0", "-1", "1e400"])
    def test_epsilon_not_positive_and_finite_exit_2(self, capsys, pencil_file, parabola_file,
                                                    command, epsilon):
        assert main([command, "--arr", pencil_file, "--curve", parabola_file, "--radii", "10",
                      "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: epsilon must be finite and > 0\n"

    @pytest.mark.parametrize("level", ["abc", "0", "2.5"])
    def test_bad_truncation_names_the_flag_exit_2(self, capsys, pencil_file, parabola_file,
                                                  level):
        assert main(["smt-report", "--arr", pencil_file, "--curve", parabola_file,
                     "--epsilon", "1/2", "--radii", "10", "--truncation", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: --truncation must be an integer >= 1 or `inf`, "
                                f"got {level!r}\n")

    def test_cartan_check_tsv(self, capsys, pencil_file, parabola_file):
        code = main(["cartan-check", "--arr", pencil_file, "--curve", parabola_file,
                     "--epsilon", "1", "--radii", "10,100", "--format", "tsv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "r\tT\tmax_sum_integral\twronskian_counting\tlhs\trhs\tslack"
        assert [line.split("\t")[0] for line in lines[1:]] == ["10", "100"]

    def test_smt_report_out_holds_the_stdout_report(self, capsys, tmp_path, pencil_file,
                                                    parabola_file):
        out = tmp_path / "smt.json"
        code, payload = run_json(capsys, [
            "smt-report", "--arr", pencil_file, "--curve", parabola_file,
            "--epsilon", "1/2", "--radii", "10", "--out", str(out)])
        assert code == 0
        assert payload.pop("written") == str(out)
        assert json.loads(out.read_text()) == payload
        assert list(payload)[:2] == ["schema", "command"]


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


class TestUnwritableOut:
    def _assert_cannot_write(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: cannot write ")

    def test_oracle_dump_missing_directory(self, capsys, tmp_path, pencil_file):
        self._assert_cannot_write(capsys, ["oracle-dump", "--arr", pencil_file,
                                           "--out", str(tmp_path / "missing" / "p.oracle")])

    def test_smt_report_missing_directory(self, capsys, tmp_path, pencil_file, parabola_file):
        self._assert_cannot_write(capsys, [
            "smt-report", "--arr", pencil_file, "--curve", parabola_file,
            "--epsilon", "1/2", "--radii", "10", "--out", str(tmp_path / "missing" / "s.json")])

    def test_gen_fixture_out_is_a_file(self, capsys, parabola_file):
        self._assert_cannot_write(capsys, ["gen-fixture", "--seed", "1", "--out", parabola_file])
