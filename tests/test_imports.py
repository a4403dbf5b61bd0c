"""Each command imports only the modules it runs, and the package's
lazily served names are the same public surface as when it imported
every module up front.

A cold ``python -m ordercomplete`` compiles every module it imports, so
a module that a command loads without running it costs start-up time.
The probes below run each command the way ``python -m ordercomplete``
does, in a fresh interpreter, and list the package modules it loaded.
Only ``ordercomplete`` modules are listed: the interpreter's ``site``
may import stdlib modules such as ``random`` or ``typing`` on its own.
The probe blocks ``dataclasses`` (and with it ``inspect`` and ``ast``)
before the command runs, so a command that imports it exits non-zero.
"""

import json
import subprocess
import sys

import pytest

import ordercomplete
from ordercomplete import checks

PROBE = """
import json, runpy, sys
sys.modules["dataclasses"] = None
sys.argv = ["ordercomplete", *sys.argv[1:]]
try:
    runpy.run_module("ordercomplete", run_name="__main__", alter_sys=True)
finally:
    loaded = sorted(m for m in sys.modules if m.startswith("ordercomplete."))
    print(json.dumps(loaded), file=sys.stderr)
"""

NEVER_RUN = {
    "complete": {"checks", "oracle", "generators", "solver", "mapext"},
    "export": {"checks", "oracle", "generators", "solver", "mapext"},
    "solve": {"checks", "oracle", "generators"},
    "gen": {"checks", "oracle", "solver", "mapext"},
}

# ordercomplete.__all__: the public names, each one deliberate
PUBLIC = [
    "AssumptionFlags", "BadSpec", "BoundChainReport", "CarrierSet", "CompletedPoset",
    "Cut", "CycleDetected", "DuplicateLabel", "EmptyFamily", "EquationInstance",
    "GeneratorSpec", "GlobalReport", "InvalidCut", "InvalidInput", "MacNeilleReport",
    "MultipleSolutions", "NoBound", "NotAPartialOrder", "NotIncreasing",
    "OrderCompletionError", "ParentMismatch", "Poset", "PosetMap", "ResourceCap",
    "SchemaError", "SolveReport", "SourceNotOrdered", "Subset",
    "UnknownElement", "UnknownSuite", "build_equation", "build_poset",
    "check_bound_chain", "completion", "errors", "extension_cut_map", "extension_mask",
    "generate", "generators", "global_character", "has_maximum", "has_minimum",
    "inf_cuts", "is_cut", "is_increasing", "is_oie", "lower_bounds",
    "macneille_completion", "mapext", "poset", "random_equation", "solve", "solver",
    "sup_cuts", "to_dot", "upper_bounds", "verify_macneille",
]


def loaded_modules(*args):
    """Exit code and the ``ordercomplete`` submodules one cold run loaded."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *args], capture_output=True, text=True
    )
    # a traceback, if any, follows the module list
    listed = next(line for line in reversed(result.stderr.splitlines()) if line.startswith("["))
    return result.returncode, {name.split(".", 1)[1] for name in json.loads(listed)}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    files = {
        "poset": {
            "elements": ["a", "b", "c"],
            "relation": [["a", "b"], ["b", "c"]],
            "relation_kind": "covers",
        },
        "equation": {
            "domain": {"elements": ["u", "v"]},
            "codomain": {"elements": ["p", "q"], "relation": [["p", "q"]], "relation_kind": "covers"},
            "map": {"u": "p", "v": "q"},
        },
        "target": {"principal": "p"},
    }
    paths = {}
    for name, data in files.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return {name: str(path) for name, path in paths.items()}


def command_lines(inputs):
    return [
        ("complete", "--input", inputs["poset"]),
        ("export", "--input", inputs["poset"]),
        ("solve", "--input", inputs["equation"], "--target", inputs["target"]),
        ("gen", "--family", "chain", "--n", "3"),
        ("gen", "--family", "gridfn", "--g", "2", "--v", "2"),
    ]


def check_lines(inputs):
    return [
        ("check", "macneille", "--input", inputs["poset"]),
        ("check", "theorem41", "--input", inputs["equation"]),
        ("check", "closedforms"),
    ]


def test_each_command_loads_only_what_it_runs(inputs):
    for args in command_lines(inputs):
        code, loaded = loaded_modules(*args)
        assert code == 0, args
        assert not loaded & NEVER_RUN[args[0]], (args, sorted(loaded))


def test_check_loads_its_suites(inputs):
    for args in check_lines(inputs):
        code, loaded = loaded_modules(*args)
        assert code == 0, args
        assert {"checks", "oracle", "solver"} <= loaded, args


def test_the_probe_blocks_dataclasses():
    probe = PROBE.replace("    runpy.", "    import dataclasses\n    runpy.")
    result = subprocess.run([sys.executable, "-c", probe, "--help"], capture_output=True, text=True)
    assert result.returncode == 1
    assert "import of dataclasses halted" in result.stderr


def test_public_names_are_unchanged():
    assert ordercomplete.__all__ == PUBLIC


def test_every_public_name_resolves_and_is_listed():
    listed = dir(ordercomplete)
    for name in ordercomplete.__all__:
        assert getattr(ordercomplete, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        ordercomplete.no_such_name


def test_check_help_names_every_suite():
    result = subprocess.run(
        [sys.executable, "-m", "ordercomplete", "check", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    text = " ".join(result.stdout.split())
    assert "one of " + ", ".join(checks.SUITES) in text
