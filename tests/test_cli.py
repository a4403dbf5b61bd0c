import inspect
import json
import os
import subprocess
import sys

import pytest

from ordercomplete import checks, cli, jsonio, solver
from ordercomplete.completion import Cut
from ordercomplete.errors import InvalidCut, MultipleSolutions, NotAPartialOrder
from ordercomplete.errors import OrderCompletionError, UnknownElement
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import CarrierSet, Poset, build_poset

from test_golden import _standard, _write

CMD = [sys.executable, "-m", "ordercomplete"]


def run(*args, cwd=None):
    return subprocess.run([*CMD, *args], capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain3.json"
    result = run("gen", "--family", "chain", "--n", "3", "--output", str(path))
    assert result.returncode == 0
    return path


@pytest.fixture
def constant_equation_file(tmp_path):
    path = tmp_path / "equation.json"
    payload = {
        "domain": {"elements": ["u", "v"]},
        "codomain": {
            "elements": ["p", "q"],
            "relation": [["p", "q"]],
            "relation_kind": "covers",
        },
        "map": {"u": "p", "v": "p"},
    }
    path.write_text(json.dumps(payload))
    return path


def assert_one_error_line(result, code):
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def write_target(tmp_path, data, name="target.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestComplete:
    def test_chain_report(self, chain_file):
        result = run("complete", "--input", str(chain_file))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == 1
        assert payload["cut_count"] == 3
        assert payload["has_minimum"] and payload["has_maximum"]
        assert payload["verification"]["complete"]
        assert payload["verification"]["embedding"]
        assert payload["verification"]["density"]

    def test_antichain_report(self, tmp_path):
        path = tmp_path / "anti.json"
        run("gen", "--family", "antichain", "--n", "2", "--output", str(path))
        payload = json.loads(run("complete", "--input", str(path)).stdout)
        assert payload["cut_count"] == 4
        assert payload["empty_set_is_cut"]

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        result = run("complete", "--input", str(bad))
        assert result.returncode == 2
        assert "JSON" in result.stderr

    def test_deeply_nested_json_exits_2(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        result = run("complete", "--input", str(deep))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements": ["\xe9"]}'.encode("latin-1"))
        result = run("complete", "--input", str(path))
        assert_one_error_line(result, 2)

    def test_lone_surrogate_label_exits_2(self, tmp_path):
        # valid JSON, but the name cannot be printed back as UTF-8
        path = tmp_path / "surrogate.json"
        path.write_text('{"elements": ["\\ud800"], "relation": [], "relation_kind": "covers"}')
        result = run("export", "--input", str(path))
        assert_one_error_line(result, 2)

    @pytest.mark.parametrize("flag", ["--output", "--emit-dot"])
    def test_unwritable_path_exits_2(self, chain_file, tmp_path, flag):
        missing = tmp_path / "no-such-dir" / "out"
        result = run("complete", "--input", str(chain_file), flag, str(missing))
        assert_one_error_line(result, 2)
        assert not missing.parent.exists()

    def test_missing_file_exits_2(self, tmp_path):
        result = run("complete", "--input", str(tmp_path / "absent.json"))
        assert result.returncode == 2

    def test_emit_dot(self, chain_file, tmp_path):
        dot = tmp_path / "out.dot"
        result = run("complete", "--input", str(chain_file), "--emit-dot", str(dot))
        assert result.returncode == 0
        assert dot.read_text().startswith("digraph completion {")

    def test_arity_cap_exits_3(self, tmp_path):
        assert_one_error_line(run("gen", "--family", "antichain", "--n", "30"), 3)
        path = tmp_path / "big.json"
        labels = [f"a{i}" for i in range(30)]
        path.write_text(json.dumps(jsonio.raw_poset_to_data(labels, [], "covers")))
        result = run("complete", "--input", str(path))
        assert result.returncode == 3
        assert run("complete", "--input", str(path), "--max-arity", "30").returncode == 0

    def test_cut_cap_exits_3(self, tmp_path):
        path = tmp_path / "bool4.json"
        run("gen", "--family", "boolean", "--k", "4", "--output", str(path))
        result = run("complete", "--input", str(path), "--max-cuts", "10")
        assert result.returncode == 3

    @pytest.mark.parametrize(
        "flags", [("--max-cuts", "0"), ("--max-arity", "0"), ("--max-arity", "-5")]
    )
    def test_non_positive_caps_exit_2(self, tmp_path, flags):
        path = tmp_path / "chain1.json"
        run("gen", "--family", "chain", "--n", "1", "--output", str(path))
        result = run("complete", "--input", str(path), *flags)
        assert result.returncode == 2
        assert "must be at least 1" in result.stderr
        assert result.stdout == ""

    def test_unicode_labels_round_trip(self, tmp_path):
        path = tmp_path / "greek.json"
        path.write_text(
            json.dumps(
                {
                    "elements": ["α", "β"],
                    "relation": [["α", "β"]],
                    "relation_kind": "covers",
                },
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        result = run("complete", "--input", str(path))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["completion"]["cuts"] == [["α"], ["α", "β"]]


class TestSolve:
    def test_identity_echoes_principal_target(self, tmp_path):
        equation = tmp_path / "eq.json"
        run("gen", "--family", "gridfn", "--g", "2", "--v", "2", "--output", str(equation))
        target = write_target(tmp_path, {"principal": "01"})
        result = run("solve", "--input", str(equation), "--target", str(target))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["solvable"] is True
        assert payload["solution"] == ["00", "01"]

    def test_unsolvable_exits_1_with_report(self, constant_equation_file, tmp_path):
        target = write_target(tmp_path, {"principal": "q"})
        result = run("solve", "--input", str(constant_equation_file), "--target", str(target))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["solvable"] is False
        assert payload["sup_of_images"] != payload["inf_of_images"]

    def test_non_cut_target_exits_2(self, constant_equation_file, tmp_path):
        target = write_target(tmp_path, {"cut": ["q"]})
        result = run("solve", "--input", str(constant_equation_file), "--target", str(target))
        assert result.returncode == 2
        assert "cut" in result.stderr

    def test_map_file_poses_the_equation(self, tmp_path):
        map_path = tmp_path / "map.json"
        map_path.write_text(
            json.dumps(
                {
                    "source": {"elements": ["u", "v"]},
                    "target": {
                        "elements": ["p", "q"],
                        "relation": [["p", "q"]],
                        "relation_kind": "covers",
                    },
                    "map": {"u": "p", "v": "q"},
                }
            )
        )
        target = write_target(tmp_path, {"principal": "q"})
        result = run("solve", "--map", str(map_path), "--target", str(target))
        assert result.returncode == 0
        assert json.loads(result.stdout)["solution"] == ["u", "v"]

    def test_an_order_on_the_map_source_is_ignored(self, tmp_path, capsys):
        """A source order, here one against the map's, changes neither the
        report nor the exit code of ``solve --map``."""
        target_poset = {"elements": ["p", "q", "r"], "relation": [["p", "q"]],
                        "relation_kind": "covers"}
        bare = {"source": {"elements": ["u", "v", "w"]}, "target": target_poset,
                "map": {"u": "p", "v": "q", "w": "q"}}
        ordered = {**bare, "source": {"elements": ["u", "v", "w"],
                                      "relation": [["v", "u"], ["w", "u"]],
                                      "relation_kind": "covers"}}
        for name, target in (("solvable", {"principal": "q"}), ("unsolvable", {"cut": ["r"]})):
            target_path = write_target(tmp_path, target, f"{name}.json")
            results = []
            for kind, data in (("bare", bare), ("ordered", ordered)):
                map_path = write_target(tmp_path, data, f"{kind}.json")
                code = cli.main(["solve", "--map", str(map_path), "--target", str(target_path)])
                results.append((code, *capsys.readouterr()))
            assert results[0] == results[1]
            assert results[0][0] == (0 if name == "solvable" else 1)

    def test_input_and_map_are_exclusive(self, constant_equation_file, tmp_path):
        target = write_target(tmp_path, {"principal": "p"})
        result = run(
            "solve",
            "--input",
            str(constant_equation_file),
            "--map",
            str(constant_equation_file),
            "--target",
            str(target),
        )
        assert result.returncode == 2

    def test_quotient_beyond_cut_cap_exits_3_before_the_target_is_read(self, tmp_path):
        """The identity on S_4 has a quotient of 16 cuts: under a cap of 8 the
        bad target is never reached, so the cap's exit 3 wins over exit 2."""
        codomain = _standard(4)
        equation = tmp_path / "identity.json"
        equation.write_text(json.dumps({
            "domain": {"elements": codomain["elements"]},
            "codomain": codomain,
            "map": {x: x for x in codomain["elements"]},
        }))
        target = write_target(tmp_path, {"cut": ["b0"]})
        args = ("solve", "--input", str(equation), "--target", str(target))
        capped = run(*args, "--max-cuts", "8")
        assert_one_error_line(capped, 3)
        assert "cut cap 8" in capped.stderr
        assert_one_error_line(run(*args), 2)

    def test_codomain_beyond_cut_cap_still_solves(self, tmp_path):
        # S_4 has 16 cuts; the three fibers onto a0, a1, a2 form an
        # antichain whose completion has 5, so only the quotient fits
        lows = [f"a{i}" for i in range(4)]
        highs = [f"b{j}" for j in range(4)]
        equation = tmp_path / "collapse.json"
        equation.write_text(
            json.dumps(
                {
                    "domain": {"elements": ["u", "v", "w", "x"]},
                    "codomain": {
                        "elements": lows + highs,
                        "relation": [
                            [a, b]
                            for i, a in enumerate(lows)
                            for j, b in enumerate(highs)
                            if i != j
                        ],
                        "relation_kind": "covers",
                    },
                    "map": {"u": "a0", "v": "a1", "w": "a2", "x": "a0"},
                }
            )
        )
        cap = ("--max-cuts", "8")
        expected = {"a1": ["v"], "b3": ["u", "v", "w"], "a3": None, "b0": None}
        for principal, solution in expected.items():
            target = write_target(tmp_path, {"principal": principal})
            args = ("solve", "--input", str(equation), "--target", str(target))
            capped = run(*args, *cap)
            assert capped.returncode == (1 if solution is None else 0), capped.stderr
            assert json.loads(capped.stdout)["solution"] == solution
            # the report is the one an uncapped run gives
            assert capped.stdout == run(*args).stdout
        for suite in ("theorem41", "theorem42"):
            checked = run("check", suite, "--input", str(equation), *cap)
            assert_one_error_line(checked, 3)
            assert "cut cap 8" in checked.stderr
            assert run("check", suite, "--input", str(equation)).returncode == 0

    def test_poset_suites_obey_the_cut_cap(self, tmp_path):
        path = tmp_path / "b3.json"
        assert run("gen", "--family", "boolean", "--k", "3", "--output", str(path)).returncode == 0
        for suite in ("cutcalc", "macneille"):
            capped = run("check", suite, "--input", str(path), "--max-cuts", "4")
            assert_one_error_line(capped, 3)
            assert "cut cap 4" in capped.stderr
            assert run("check", suite, "--input", str(path), "--max-cuts", "8").returncode == 0

    def test_report_to_file(self, constant_equation_file, tmp_path):
        target = write_target(tmp_path, {"principal": "p"})
        out = tmp_path / "report.json"
        result = run(
            "solve",
            "--input",
            str(constant_equation_file),
            "--target",
            str(target),
            "--output",
            str(out),
        )
        assert result.returncode == 0
        assert json.loads(out.read_text())["solvable"] is True


class TestCheck:
    def test_single_poset_suite(self, chain_file):
        result = run("check", "macneille", "--input", str(chain_file))
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")

    def test_corpus_suites_small(self):
        for suite in ("closedforms", "boundchain"):
            result = run("check", suite, "--count", "5")
            assert result.returncode == 0, result.stdout

    def test_equation_suite_with_input(self, constant_equation_file):
        result = run("check", "theorem41", "--input", str(constant_equation_file))
        assert result.returncode == 0

    def test_seeded_equation_batch(self):
        result = run("check", "theorem41", "--count", "3")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS")

    @pytest.mark.parametrize(
        "suite, count", [("boundchain", "-3"), ("theorem41", "0"), ("macneille", "0")]
    )
    def test_non_positive_count_exits_2(self, suite, count):
        result = run("check", suite, "--count", count)
        assert result.returncode == 2
        assert "must be at least 1" in result.stderr
        assert result.stdout == ""

    def test_unknown_suite_exits_2(self, chain_file):
        for extra in ((), ("--input", str(chain_file))):
            result = run("check", "nonsense", *extra)
            assert result.returncode == 2
            assert "unknown suite" in result.stderr

    def test_search_runs_on_a_16_class_quotient(self, tmp_path):
        codomain = json.loads(run("gen", "--family", "boolean", "--k", "4").stdout)
        domain = [f"u{i}" for i in range(16)]
        equation = tmp_path / "equation.json"
        equation.write_text(
            json.dumps(
                {
                    "domain": {"elements": domain},
                    "codomain": codomain,
                    "map": dict(zip(domain, codomain["elements"])),
                }
            )
        )
        result = run("check", "theorem41", "--input", str(equation))
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("PASS solvability criterion on 1 instances")

    def test_search_runs_on_a_20_class_quotient(self, tmp_path):
        """The identity of S_10: 20 classes, the arity cap, and 1,024 cuts."""
        s10 = _standard(10)
        equation = tmp_path / "equation.json"
        equation.write_text(
            json.dumps(
                {
                    "domain": {"elements": s10["elements"]},
                    "codomain": s10,
                    "map": {x: x for x in s10["elements"]},
                }
            )
        )
        result = run("check", "theorem41", "--input", str(equation))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "PASS solvability criterion on 1 instances\n"

    def test_macneille_names_the_posets_it_did_not_scan(self, chain_file, tmp_path, capsys):
        chain17 = tmp_path / "chain17.json"
        assert cli.main(["gen", "--family", "chain", "--n", "17", "--output", str(chain17)]) == 0
        expected = {
            chain_file: "PASS macneille on 1 posets\n",
            _empty_poset_file(tmp_path): "PASS macneille on 1 posets\n",
            chain17: "PASS macneille on 1 posets (1 sampled rather than scanned exhaustively;"
            " 83 cut families checked)\n",
            _s10_file(tmp_path): "PASS macneille on 1 posets (1 sampled rather than scanned"
            " exhaustively; 130 cut families checked)\n",
        }
        capsys.readouterr()
        for path, line in expected.items():
            assert cli.main(["check", "macneille", "--input", str(path)]) == 0
            assert capsys.readouterr().out == line

    def test_cutcalc_says_what_it_sampled(self, chain_file, tmp_path, capsys):
        chain13 = tmp_path / "chain13.json"
        assert cli.main(["gen", "--family", "chain", "--n", "13", "--output", str(chain13)]) == 0
        expected = {
            chain_file: "PASS cutcalc on 1 posets\n",
            _empty_poset_file(tmp_path): "PASS cutcalc on 1 posets\n",
            chain13: "PASS cutcalc on 1 posets (1 sampled rather than scanned exhaustively;"
            " 4096 masks checked)\n",
            _s10_file(tmp_path): "PASS cutcalc on 1 posets (1 sampled rather than scanned"
            " exhaustively; 4096 masks checked)\n",
        }
        capsys.readouterr()
        for path, line in expected.items():
            assert cli.main(["check", "cutcalc", "--input", str(path)]) == 0
            assert capsys.readouterr().out == line

    def test_poset_suites_finish_on_2048_cuts(self, tmp_path):
        path = tmp_path / "s11.json"
        path.write_text(json.dumps(_standard(11)))
        for suite in ("cutcalc", "macneille"):
            result = run("check", suite, "--input", str(path), "--max-arity", "22")
            assert result.returncode == 0, result.stdout
            assert result.stdout.startswith(f"PASS {suite} on 1 posets")


def _s10_file(tmp_path):
    path = tmp_path / "s10.json"
    path.write_text(json.dumps(_standard(10)))
    return path


def _empty_poset_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"elements": [], "relation": [], "relation_kind": "covers"}))
    return path


def _record_max_cuts(monkeypatch, module, name, calls):
    """Append the ``max_cuts`` of every call of ``module.name`` to ``calls``."""
    real = getattr(module, name)
    signature = inspect.signature(real)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["max_cuts"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


class TestBuildOnce:
    """Each command builds its --input once, under the caps it was given."""

    def test_poset_input_is_completed_once(self, chain_file, monkeypatch):
        calls = []
        for module in (cli, checks):
            _record_max_cuts(monkeypatch, module, "macneille_completion", calls)
        for command in (["complete"], ["export"], ["check", "cutcalc"], ["check", "macneille"]):
            calls.clear()
            assert cli.main([*command, "--input", str(chain_file), "--max-cuts", "7"]) == 0
            assert calls == [7], command

    def test_equation_input_is_built_once(self, constant_equation_file, tmp_path, monkeypatch):
        calls = []
        _record_max_cuts(monkeypatch, solver, "build_equation", calls)
        target = write_target(tmp_path, {"principal": "p"})
        equation = ("--input", str(constant_equation_file), "--max-cuts", "7")
        solve = ["solve", "--target", str(target)]
        for command in (solve, ["check", "theorem41"], ["check", "theorem42"]):
            calls.clear()
            assert cli.main([*command, *equation]) == 0
            assert calls == [7], command


class TestSharedParser:
    """``main`` builds its parser on the first call and reuses it; no call
    leaks into the next."""

    @staticmethod
    def call(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors and --help
            code = exc.code
        return code, capsys.readouterr().out

    def first_call(self, argv, capsys):
        """The result of ``argv`` as the first call of a process."""
        cli._shared_parser.cache_clear()
        return self.call(argv, capsys)

    def test_many_calls_match_first_calls(self, chain_file, tmp_path, capsys):
        report, dot = tmp_path / "report.json", tmp_path / "graph.dot"
        with_files = ["complete", "--input", str(chain_file)]
        with_files += ["--output", str(report), "--emit-dot", str(dot)]
        calls = [
            with_files,
            ["complete", "--input", str(chain_file)],
            ["solve", "--input", str(chain_file)],  # no --target
            ["export", "--input", str(chain_file), "--max-cuts", "2"],
            ["gen", "--family", "chain", "--n", "3"],
            ["check", "--help"],
        ]
        first = [self.first_call(argv, capsys) for argv in calls]
        assert first[0] == (0, "")
        assert first[1] == (0, report.read_text())
        assert first[2] == (2, "")
        assert first[3] == (3, "")
        assert first[5][0] == 0
        assert set(checks.SUITES) <= set(first[5][1].replace(",", " ").split())

        before = cli._shared_parser.cache_info().misses
        for argv, expected in zip(calls + calls[::-1] + calls, first + first[::-1] + first):
            report.unlink(missing_ok=True)
            dot.unlink(missing_ok=True)
            assert self.call(argv, capsys) == expected, argv
            assert (report.exists(), dot.exists()) == (argv is with_files,) * 2, argv
        assert cli._shared_parser.cache_info().misses == before

    def test_import_builds_no_parser(self):
        probe = "import ordercomplete.cli as c; print(c._shared_parser.cache_info().misses)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "0\n")


class TestInternalErrors:
    """A broken invariant exits 1 with one ``error: internal:`` line."""

    def test_solver_bug_exits_1(self, constant_equation_file, tmp_path, monkeypatch, capsys):
        def broken(instance, target):
            raise OrderCompletionError("solution does not map onto the target")

        monkeypatch.setattr(solver, "solve", broken)
        target = write_target(tmp_path, {"principal": "p"})
        code = cli.main(
            ["solve", "--input", str(constant_equation_file), "--target", str(target)]
        )
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: internal: solution does not map onto the target\n"

    def test_two_solutions_in_a_check_exit_1(self, monkeypatch, capsys):
        def broken(instance, target):
            raise MultipleSolutions("two cuts solve the equation")

        monkeypatch.setattr(checks, "brute_solve", broken)
        code = cli.main(["check", "theorem41", "--count", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: internal: two cuts solve the equation\n"


_POSET = {"elements": ["p", "q"], "relation": [["p", "q"]], "relation_kind": "covers"}
_EQUATION = {"domain": {"elements": ["u"]}, "codomain": _POSET, "map": {"u": "p"}}
_MAP = {"source": {"elements": ["u"]}, "target": _POSET, "map": {"u": "p"}}


def _main(tmp_path, command, **files):
    """``cli.main`` on ``command`` with each file written and passed as --name."""
    argv = [command]
    for flag, data in files.items():
        argv += [f"--{flag}", _write(tmp_path / f"{flag}.json", data)]
    return cli.main(argv)


def _chain2():
    return build_poset(["p", "q"], [("p", "q")])


_OVER_CAP = [f"a{i}" for i in range(21)]


@pytest.mark.parametrize("elements, relation", [
    pytest.param(_OVER_CAP, [["a0", "a1"], ["a1"]], id="malformed-second-entry"),
    pytest.param(_OVER_CAP, [["a0", "a1"]] * 300_000, id="300000-pairs"),
    pytest.param(_OVER_CAP[:20] + ["a0"], [["a0", "a1"]], id="duplicate-labels"),
])
def test_over_cap_elements_exit_3_before_the_relation_is_read(
    elements, relation, tmp_path, capsys
):
    """21 names exceed the default arity cap of 20: the cap binds on the
    element list, so nothing after it (here a bad second entry or a long
    relation, or a repeated name) is looked at."""
    poset = {"elements": elements, "relation": relation, "relation_kind": "covers"}
    assert _main(tmp_path, "complete", input=poset) == 3
    assert capsys.readouterr() == ("", "error: poset arity 21 exceeds cap 20\n")


@pytest.mark.parametrize("attempt, error, message", [
    pytest.param(lambda tmp: Cut(CarrierSet(("a",)), 1), InvalidCut,
                 "cuts require an ordered parent", id="cut-of-a-carrier"),
    pytest.param(lambda tmp: PosetMap(CarrierSet(("u", "v")), _chain2(), (0,)), UnknownElement,
                 "map must assign an image to every source element", id="map-too-few-images"),
    pytest.param(lambda tmp: PosetMap(CarrierSet(("u",)), _chain2(), (2,)), UnknownElement,
                 "image index 2 out of target range", id="map-image-out-of-range"),
    pytest.param(lambda tmp: Poset(("a", "b"), (1,)), NotAPartialOrder,
                 "relation size does not match carrier", id="relation-wrong-length"),
    pytest.param(lambda tmp: _main(tmp, "complete", input={**_POSET, "elements": ["p", 1]}),
                 None, "elements must be an array of strings", id="elements-not-strings"),
    pytest.param(lambda tmp: _main(tmp, "complete", input={**_POSET, "relation": "p<q"}),
                 None, "relation must be an array of pairs", id="relation-not-a-list"),
    pytest.param(lambda tmp: _main(tmp, "solve", input={**_EQUATION, "map": {"u": 0}},
                                   target={"principal": "p"}),
                 None, "map assignment must send names to names", id="map-value-not-a-name"),
    pytest.param(lambda tmp: _main(tmp, "solve", input=_EQUATION, target={"principal": 0}),
                 None, "principal must be an element name", id="principal-not-a-name"),
    pytest.param(lambda tmp: _main(tmp, "solve", input=_EQUATION, map=_MAP,
                                   target={"principal": "p"}),
                 None, "solve needs exactly one of --input or --map", id="solve-input-and-map"),
    pytest.param(lambda tmp: _main(tmp, "solve", target={"principal": "p"}),
                 None, "solve needs exactly one of --input or --map", id="solve-neither"),
])
def test_input_checks_raise_their_class_or_exit_2(attempt, error, message, tmp_path, capsys):
    """Each input check raises its error class, or, through ``cli.main``,
    exits 2 with one ``error:`` line and nothing on stdout."""
    if error is not None:
        with pytest.raises(error, match=message):
            attempt(tmp_path)
        return
    assert attempt(tmp_path) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestGen:
    def test_boolean_cap_exits_3(self):
        assert run("gen", "--family", "boolean", "--k", "20").returncode == 3

    def test_bad_spec_exits_2(self):
        assert run("gen", "--family", "chain").returncode == 2

    def test_unknown_stencil_exits_2(self):
        result = run("gen", "--family", "gridfn", "--g", "2", "--v", "2", "--stencil", "bogus")
        assert_one_error_line(result, 2)
        assert "stencil must be one of" in result.stderr

    def test_deterministic_output(self):
        args = ("gen", "--family", "random", "--n", "6", "--seed", "7")
        assert run(*args).stdout == run(*args).stdout

    def test_round_trip_through_complete(self, tmp_path):
        for args in (
            ("--family", "chain", "--n", "4"),
            ("--family", "boolean", "--k", "3"),
            ("--family", "divisor", "--m", "12"),
            ("--family", "random", "--n", "6", "--seed", "3"),
        ):
            path = tmp_path / "gen.json"
            assert run("gen", *args, "--output", str(path)).returncode == 0
            assert run("complete", "--input", str(path)).returncode == 0


class TestExport:
    def test_dot_output(self, chain_file):
        result = run("export", "--input", str(chain_file))
        assert result.returncode == 0
        assert result.stdout.startswith("digraph completion {")
        assert result.stdout.count("->") == 2

    def test_deterministic(self, chain_file):
        first = run("export", "--input", str(chain_file)).stdout
        second = run("export", "--input", str(chain_file)).stdout
        assert first == second


class TestStdout:
    """The report bytes on stdout are UTF-8 whatever the locale, and a
    failed stdout write is one error line and exit 2, as a failed --output is."""

    @pytest.mark.parametrize("command", ["complete", "export"])
    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_stdout_bytes_equal_the_output_file(self, tmp_path, command, encoding):
        path = tmp_path / "accented.json"
        data = jsonio.raw_poset_to_data(["é", "ü"], [("é", "ü")], "covers")
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--input", str(path), "--output", str(out)).returncode == 0
        env = {**os.environ, "PYTHONIOENCODING": encoding}
        result = subprocess.run([*CMD, command, "--input", str(path)], capture_output=True, env=env)
        assert result.returncode == 0 and result.stderr == b""
        assert result.stdout == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        ("complete", "--input", "{poset}"),
        ("solve", "--input", "{equation}", "--target", "{target}"),
        ("export", "--input", "{poset}"),
        ("check", "cutcalc", "--input", "{poset}"),
        ("check", "closedforms"),
        ("gen", "--family", "chain", "--n", "3"),
    ])
    def test_full_stdout_exits_2_with_one_error_line(
        self, chain_file, constant_equation_file, tmp_path, args
    ):
        paths = {
            "poset": chain_file,
            "equation": constant_equation_file,
            "target": write_target(tmp_path, {"principal": "p"}),
        }
        argv = [arg.format(**paths) for arg in args]
        with open("/dev/full", "w") as full:
            result = subprocess.run([*CMD, *argv], stdout=full, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 2
        assert result.stderr == "error: stdout: No space left on device\n"

    @pytest.mark.parametrize("args", [
        ("complete", "--input", "{poset}"),
        ("solve", "--input", "{equation}", "--target", "{target}"),
        ("export", "--input", "{poset}"),
        ("check", "cutcalc", "--input", "{poset}"),
        ("check", "boundchain", "--count", "1"),
        ("gen", "--family", "chain", "--n", "2"),
    ])
    def test_closed_stdout_exits_2_with_one_error_line(
        self, chain_file, constant_equation_file, tmp_path, args
    ):
        """A stdout closed before the process starts is unwritable, as a full one is."""
        paths = {
            "poset": chain_file,
            "equation": constant_equation_file,
            "target": write_target(tmp_path, {"principal": "p"}),
        }
        argv = [arg.format(**paths) for arg in args]
        result = subprocess.run([*CMD, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, preexec_fn=lambda: os.close(1))
        assert result.returncode == 2
        assert result.stderr == "error: stdout: Bad file descriptor\n"

    @pytest.mark.parametrize("args, code", [
        (("gen", "--family", "chain", "--n", "99"), 3),
        (("complete", "--input", "{missing}"), 2),
    ])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, args, code):
        """A closed stderr loses the error line, and neither the exit code
        nor stdout changes."""
        argv = [arg.format(missing=tmp_path / "missing.json") for arg in args]
        result = subprocess.run([*CMD, *argv], capture_output=True, text=True,
                                preexec_fn=lambda: os.close(2))
        assert result.returncode == code
        assert result.stdout == ""
