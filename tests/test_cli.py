import json
import os
import random
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudospace
from pseudospace import flags as FL
from pseudospace import oracle as OR
from pseudospace.cli import cli, main
from pseudospace.letters import all_letters
from pseudospace.oracle import random_script
from pseudospace.space import ColoredSpace
from pseudospace.words import Word, is_reduced, normal_form, parse_word, right_stabilizer

SCRIPT = json.dumps(
    {
        "n": 2,
        "ops": [
            {"letter": "[0,2]", "lo": "bottom", "hi": "top"},
            {"letter": "[1]", "lo": 0, "hi": 2},
        ],
    }
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def space_file(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(SCRIPT)
    return str(script)


def run(runner, *args, **kw):
    result = runner.invoke(cli, args, standalone_mode=False, **kw)
    if result.exception is not None:
        raise result.exception
    return result.output.strip()


def test_reduce(runner):
    assert run(runner, "reduce", "--n", "3", "[0].[2,3].[0,1]") == "[2,3].[0,1]"


def test_nf(runner):
    assert run(runner, "nf", "--n", "3", "[2,3].[0]") == "[0].[2,3]"


def test_product(runner):
    assert run(runner, "product", "--n", "3", "[2].[0,1]", "[0].[3]") == "[2].[0,1].[3]"


def test_inverse(runner):
    assert run(runner, "inverse", "--n", "3", "[0].[1,2]") == "[1,2].[0]"


def test_stab(runner):
    assert run(runner, "stab", "--right", "--n", "2", "[0,1].[1,2]") == "{1,2}"
    assert run(runner, "stab", "--left", "--n", "3", "[1,2].[0,3]") == "{1,2}"


def test_decompose_json(runner):
    out = run(runner, "decompose", "--n", "3", "--json", "[2].[0,1]", "[0].[3]")
    data = json.loads(out)
    assert data == {
        "u1": "[2].[0,1]",
        "u_prime": "1",
        "v_prime": "[0]",
        "v1": "[3]",
        "reduct": "[2].[0,1].[3]",
    }


def test_wobble(runner):
    assert run(runner, "wobble", "--n", "2", "[0,1]", "[1,2]") == "{1}"


def test_rank(runner):
    data = json.loads(run(runner, "rank", "--n", "3", "--json", "[0,1].[1,3]"))
    assert data == {"u_rank": None, "ord_bound": "w^2+w"}


def test_strong(runner):
    out = run(runner, "strong", "--n", "2", "--split-len", "2", "[0,1].[0,1]")
    assert set(out.splitlines()) == {"1", "[0,1]", "[0]", "[1]", "[0].[1]", "[1].[0]"}


def test_build_flags_word(runner, space_file):
    space_json = run(runner, "build", space_file)
    data = json.loads(space_json)
    assert len(data["vertices"]) == 4
    with CliRunner().isolated_filesystem():
        with open("space.json", "w") as fh:
            fh.write(space_json)
        flags_out = run(runner, "flags", "space.json")
        assert flags_out.splitlines() == ["0: [0,1,2]", "1: [0,3,2]"]
        assert run(runner, "word", "space.json", "0", "1") == "[1]"
        assert run(runner, "word", "space.json", "[0,1,2]", "[0,3,2]") == "[1]"
        assert run(runner, "indep", "space.json", "0", "1", "1") == "true"
        base = json.loads(
            run(runner, "basepoint", "space.json", "1", "--set", "[0,1,2]", "--json")
        )
        assert base == {"basepoint": [0, 1, 2], "word": "[1]"}
        cls = json.loads(
            run(runner, "canbase", "space.json", "1", "--set", "[0,1,2]", "--json")
        )
        assert cls["modulus"] == [1]


def test_export_dot_roundtrip_deterministic(runner, space_file):
    one = run(runner, "build", space_file)
    two = run(runner, "build", space_file)
    assert one == two
    with CliRunner().isolated_filesystem():
        with open("space.json", "w") as fh:
            fh.write(one)
        dot1 = run(runner, "export-dot", "space.json")
        dot2 = run(runner, "export-dot", "space.json")
    assert dot1 == dot2
    assert "v3@1" in dot1


def test_realize(runner, space_file):
    with CliRunner().isolated_filesystem():
        with open("script.json", "w") as fh:
            fh.write(SCRIPT)
        built = run(runner, "build", "script.json")
        with open("space.json", "w") as fh:
            fh.write(built)
        out = json.loads(
            run(
                runner,
                "realize",
                "space.json",
                "0",
                "[0,1].[1,2]",
                "-o",
                "bigger.json",
                "--json",
            )
        )
        assert out["flag"] == [6, 7, 5]
        assert run(runner, "word", "bigger.json", "[6,7,5]", "[0,1,2]") == "[0,1].[1,2]"


def test_ample(runner):
    out = run(runner, "ample", "--n", "3")
    assert out.splitlines() == [
        "PASS sr([0,1].[2,3]) = [0,0]u[2,3]",
        "PASS sr([0,2].[3]) = [0,1]u[3,3]",
        "PASS sr([0,2].[1,3]) = [1,3]",
    ]
    checks = json.loads(run(runner, "ample", "--n", "3", "--json"))["checks"]
    assert [c["word"] for c in checks] == ["[0,1].[2,3]", "[0,2].[3]", "[0,2].[1,3]"]
    for c in checks:
        u = parse_word(c["word"], c["n"])
        assert sorted(right_stabilizer(u)) == c["witness"]["expected"]


def test_verify_command(runner):
    out = run(runner, "verify", "--suite", "ample", "--seed", "1", "--cases", "1", "--json")
    data = json.loads(out)
    assert data["pass"] is True


def _psn(*argv, timeout=None):
    """Run ``python -m pseudospace.cli`` in a child process that imports the
    package from the same directory as this one."""
    src = os.path.dirname(os.path.dirname(pseudospace.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pseudospace.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def _long_reduced_word(rng, n, length):
    """A reduced word of ``length`` letters, grown by random letters that
    keep it reduced; a word no letter extends is started again."""
    letters = []
    while len(letters) < length:
        options = [s for s in all_letters(n) if is_reduced(Word((*letters, s), n))]
        letters = [*letters, rng.choice(options)] if options else []
    return Word(tuple(letters), n)


def test_long_connecting_words_get_a_basepoint(runner, tmp_path):
    """Two 18-letter reduced words realized over one flag at N = 4: the
    basepoint and the canonical base of the first flag over the second's
    path set are answered with exit 0, and are the base flag and the first
    word, since the two realizations are independent over it."""
    rng = random.Random(4)
    u1, u2 = (_long_reduced_word(rng, 4, 18) for _ in range(2))
    script, exported = tmp_path / "script.json", tmp_path / "space.json"
    space = str(exported)
    script.write_text(json.dumps({"n": 4, "ops": [{"letter": "[0,4]"}]}))
    run(runner, "build", str(script), "-o", space)
    base = FL.Flag((0, 1, 2, 3, 4))
    f1, f2 = (
        json.loads(run(runner, "realize", space, json.dumps(base.vertices), str(u), "-o", space,
                       "--json"))["flag"]
        for u in (u1, u2)
    )
    sp = ColoredSpace.from_json(json.loads(exported.read_text()))
    region = json.dumps(sorted(FL.flag_path(sp, base, FL.Flag(tuple(f2))).vertex_set()))
    answers = {}
    for command in ("basepoint", "canbase"):
        result = _psn(command, space, json.dumps(f1), "--set", region, "--json")
        assert result.returncode == 0, result.stderr
        answers[command] = json.loads(result.stdout)
    assert answers["basepoint"] == {"basepoint": list(base.vertices), "word": str(normal_form(u1))}
    assert answers["canbase"]["flag"] == list(base.vertices)
    assert answers["canbase"]["modulus"] == sorted(right_stabilizer(u1))


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "3", "--split-len", "9", "[0,3].[0,3]"],
        ["--n", "16", "[0,16].[0,16]"],
    ],
)
def test_strong_keeps_its_step_budget(args):
    """Splitting a letter would try more products than ``--steps`` allows,
    so it is left out and the enumeration reports itself incomplete."""
    start = time.perf_counter()
    result = _psn("strong", "--json", *args, timeout=60)
    assert time.perf_counter() - start < 10
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["exhausted"] is True


def test_exit_codes():
    bad = _psn("reduce", "--n", "2", "[0,5]")
    assert bad.returncode == 1
    assert json.loads(bad.stderr)["error"] == "dimension-mismatch"
    usage = _psn("reduce", "--n", "2")
    assert usage.returncode == 2


@pytest.mark.parametrize(
    "args, status, code",
    [
        (["basepoint", "SPACE", "1", "--set", "[0,"], 1, "parse-error"),
        (["word", "SPACE", '["a"]', "0"], 1, "parse-error"),
        (["basepoint", "SPACE", "1", "--set", '{"a":1}'], 1, "parse-error"),
        (["basepoint", "SPACE", "1", "--set", "[99]"], 1, "parse-error"),
        (["flags", "DIR/missing.json"], 2, None),
        (["flags", "DIR/not-json.json"], 1, "parse-error"),
        (["build", "DIR/no-letter.json"], 1, "parse-error"),
        (["build", "DIR/int-letter.json"], 1, "parse-error"),
        (["flags", "DIR/empty.json"], 1, "parse-error"),
        (["verify", "--suite", "ample", "--cases", "0"], 2, None),
        (["build", "DIR/no-letter.json", "-o", "DIR/missing/x.json"], 2, None),
        (["realize", "SPACE", "0", "[0]", "-o", "DIR/missing/x.json"], 2, None),
        (["verify", "--suite", "ample", "--cases", "1", "-o", "DIR/missing/x.json"], 2, None),
        (["strong", "--n", "2", "--steps", "-5", "[0,1].[0,1]"], 2, None),
        (["strong", "--n", "2", "--split-len", "-1", "[0,1].[0,1]"], 2, None),
        (["build", "DIR/list-letter.json"], 1, "parse-error"),
        (["build", "DIR/bool-n.json"], 1, "dimension-mismatch"),
        (["build", "DIR/bool-lo.json"], 1, "parse-error"),
        (["flags", "DIR/bool-n-space.json"], 1, "dimension-mismatch"),
        (["flags", "DIR/bool-lo-space.json"], 1, "parse-error"),
        (["flags", "DIR/bool-created.json"], 1, "parse-error"),
        (["flags", "DIR/bool-edge.json"], 1, "parse-error"),
        (["reduce", "--n", "2", "[²]"], 1, "parse-error"),
        (["word", "SPACE", "²", "0"], 1, "parse-error"),
        # nesting deeper than the JSON decoder's recursion limit
        (["build", "DIR/deep.json"], 1, "parse-error"),
        (["basepoint", "SPACE", "0", "--set", "[" * 5000 + "]" * 5000], 1, "parse-error"),
        (["word", "SPACE", "[" * 5000 + "]" * 5000, "0"], 1, "parse-error"),
        # long rejected inputs are quoted by an excerpt only
        (["word", "SPACE", json.dumps(["a"] * 3000), "0"], 1, "parse-error"),
        (["basepoint", "SPACE", "0", "--set", json.dumps(list(range(4000)) + [1.5])], 1,
         "parse-error"),
        (["basepoint", "SPACE", "0", "--set", json.dumps(list(range(100, 4100)))], 1,
         "parse-error"),
        (["word", "SPACE", "x" * 100_000, "0"], 1, "parse-error"),
        (["reduce", "--n", "2", "x" * 100_000], 1, "parse-error"),
        # more digits than int() converts
        (["reduce", "--n", "2", "[" + "1" * 99_998 + "]"], 1, "parse-error"),
        (["word", "SPACE", "[" + "9" * 5000 + "]", "0"], 1, "parse-error"),
        (["flags", "DIR/long-int.json"], 1, "parse-error"),
    ],
)
def test_bad_input_never_tracebacks(tmp_path, args, status, code):
    (tmp_path / "space.json").write_text(
        json.dumps(ColoredSpace.from_script(json.loads(SCRIPT)).to_json())
    )
    (tmp_path / "not-json.json").write_text("{nope")
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "long-int.json").write_text("[" + "7" * 5000 + "]")
    (tmp_path / "no-letter.json").write_text(json.dumps({"n": 2, "ops": [{"lo": "bottom"}]}))
    (tmp_path / "int-letter.json").write_text(json.dumps({"n": 2, "ops": [{"letter": 5}]}))
    (tmp_path / "list-letter.json").write_text(json.dumps({"n": 2, "ops": [{"letter": [0, 1]}]}))
    (tmp_path / "empty.json").write_text("{}")
    # JSON true equals 1 in Python, but is neither a dimension nor a vertex id
    (tmp_path / "bool-n.json").write_text(json.dumps({"n": True, "ops": []}))
    hung = {"n": 2, "ops": [{"letter": "[0,2]"}, {"letter": "[2]", "lo": 1, "hi": "top"}]}
    for name, tamper in [
        ("bool-n-space", lambda d: d.update(n=True)),
        ("bool-lo-space", lambda d: d["build_log"][1].update(lo=True)),
        ("bool-created", lambda d: d["build_log"][0]["created"].__setitem__(1, True)),
        ("bool-edge", lambda d: d["edges"][0].__setitem__(1, True)),
    ]:
        data = ColoredSpace.from_script(hung).to_json()
        tamper(data)
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    hung["ops"][1]["lo"] = True
    (tmp_path / "bool-lo.json").write_text(json.dumps(hung))
    space = str(tmp_path / "space.json")
    argv = [a.replace("SPACE", space).replace("DIR", str(tmp_path)) for a in args]
    result = _psn(*argv)
    assert result.returncode in (1, 2)
    assert "Traceback" not in result.stderr
    assert result.returncode == status, result.stderr
    assert len(result.stderr) < 500
    if status == 1:
        assert json.loads(result.stderr)["error"] == code


def _failing_report(config):
    report = OR.SuiteReport(config.suite, config.seed, 1)
    report.failures.append({"law": "made-up-law", "inputs": {}, "observed": 0})
    return report


def _failing_checks(n):
    return [{"check": "made-up identity", "pass": False, "witness": {}}]


@pytest.mark.parametrize(
    "argv, module, name, stub, shown",
    [
        (["verify", "--suite", "ample", "--cases", "1", "--json"], OR, "run_suite",
         _failing_report, "made-up-law"),
        (["ample", "--n", "2"], FL, "ample_report", _failing_checks, "FAIL made-up identity"),
    ],
)
def test_failed_law_exits_with_code(monkeypatch, capsys, argv, module, name, stub, shown):
    monkeypatch.setattr(module, name, stub)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert shown in out
    assert json.loads(err)["error"] == "law-failed"


def test_verify_dimension_is_bounded(runner):
    # a cheap suite, so that a missing bound fails fast instead of running N = 17
    too_big = runner.invoke(
        cli, ["verify", "--suite", "words-confluence", "--cases", "1", "--n", "17"]
    )
    assert too_big.exit_code == 2
    assert "16" in too_big.output
    ok = runner.invoke(
        cli, ["verify", "--suite", "words-confluence", "--cases", "1", "--n", "16"]
    )
    assert ok.exit_code == 0, ok.output


# ---------------------------------------------------------------------------
# fuzzing the exit contract: 0, 1 with a JSON error code on stderr, or 2

# command -> number of positional arguments after --n N, or after the space file
WORD_COMMANDS = {"reduce": 1, "nf": 1, "product": 2, "inverse": 1, "stab": 1,
                 "decompose": 2, "wobble": 2, "rank": 1, "strong": 1, "ample": 0}
SPACE_COMMANDS = {"build": 0, "export-dot": 0, "flags": 0, "word": 2, "basepoint": 1,
                  "indep": 3, "canbase": 1, "realize": 2}
FRAGMENTS = ["--n", "--json", "--left", "--right", "--symmetric", "--split-len", "--steps",
             "--set", "-o", "--suite", "--cases", "--seed", "--help", "FILE", "OUT", "-",
             "all", "0", "1", "2", "17", "-1", "x", "", "1.5", "nope"]
# valid values are listed twice to be drawn more often
N_VALUES = ["1", "2", "3", "5", "1", "2", "3", "5", "62", "0", "63", "-1", "x"]
FLAG_ARGS = ["0", "1", "2", "5", "-1", "x", "[0,1,2]", "[0,3,2]", "[2,1,0]", "[99]", "[]",
             "[0,", '["0"]', "[0.5]", "[[0]]"]
LETTERS = ["[0]", "[1]", "[2]", "[0,1]", "[1,2]", "[0,2]", "[0,3]", "[2,1]", "[a]", "[]",
           "[-1]", "[0,1,2]", "[ 0]", "[9]"]
word_texts = st.one_of(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4).map(".".join),
    st.sampled_from(["1", ""]),
    st.text(alphabet="[],.0123 -x1", max_size=8),
)
command_lines = st.one_of(
    st.sampled_from(sorted(WORD_COMMANDS)).flatmap(
        lambda c: st.builds(
            lambda n, ws: [c, "--n", n, *ws],
            st.sampled_from(N_VALUES),
            st.lists(word_texts, min_size=WORD_COMMANDS[c], max_size=WORD_COMMANDS[c]),
        )
    ),
    st.sampled_from(sorted(SPACE_COMMANDS)).flatmap(
        lambda c: st.builds(
            lambda args: [c, "FILE", *args],
            st.lists(
                st.one_of(st.sampled_from(FLAG_ARGS), word_texts),
                min_size=SPACE_COMMANDS[c],
                max_size=SPACE_COMMANDS[c],
            ),
        )
    ),
    st.builds(
        lambda suite, n: ["verify", "--suite", suite, "--cases", "1", "--n", n],
        st.sampled_from(["words-confluence", "ample", "no-such-suite"]),
        st.sampled_from(N_VALUES + ["16", "17"]),
    ),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 70), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _tamper(document: dict, field: str | None, value) -> str:
    """The document with one field replaced (none when ``field`` is None)."""
    if field is not None:
        document[field] = value
    return json.dumps(document)


scripts = st.integers(0, 10**6).map(lambda seed: random_script(random.Random(seed), 3, 6))
space_files = st.one_of(
    st.builds(_tamper, scripts, st.sampled_from([None, "n", "ops"]), json_values),
    st.builds(
        _tamper,
        scripts.map(lambda script: ColoredSpace.from_script(script).to_json()),
        st.sampled_from([None, "n", "vertices", "edges", "log"]),
        json_values,
    ),
    st.builds(
        lambda script, op, value: json.dumps(
            {**script, "ops": [*script["ops"], {**script["ops"][-1], op: value}]}
        ),
        scripts.filter(lambda script: script["ops"]),
        st.sampled_from(["letter", "lo", "hi"]),
        st.one_of(json_values, st.sampled_from(LETTERS + ["bottom", "top"])),
    ),
    json_values.map(json.dumps),
    st.text(alphabet='{}[]":,0123abn ', max_size=12),
)


def _run_main(argv):
    status = 0
    with CliRunner().isolation() as (_, err, _):
        try:
            main(argv)
        except SystemExit as exc:
            status = exc.code
        stderr = err.getvalue().decode("utf-8", "replace")
    return status, stderr


def _check_contract(argv):
    status, stderr = _run_main(argv)
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in stderr
    if status == 1:
        assert "error" in json.loads(stderr), (argv, stderr)


def test_fuzz_argv_keeps_exit_contract(tmp_path):
    (tmp_path / "space.json").write_text(SCRIPT)
    paths = {"FILE": str(tmp_path / "space.json"), "OUT": str(tmp_path / "out.json")}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(command_lines, st.lists(st.one_of(st.sampled_from(FRAGMENTS), word_texts), max_size=1))
    def check(line, extra):
        _check_contract([paths.get(a, a) for a in line + extra])

    check()


def test_fuzz_files_keep_exit_contract(tmp_path):
    path = tmp_path / "input.json"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        space_files,
        st.sampled_from(sorted(SPACE_COMMANDS)).flatmap(
            lambda c: st.lists(
                st.sampled_from(["0", "1", "2", "[0]", "[1]", "[0,1]", "[1,2]"]),
                min_size=SPACE_COMMANDS[c],
                max_size=SPACE_COMMANDS[c],
            ).map(lambda args: [c, args])
        ),
    )
    def check(text, line):
        command, args = line
        path.write_text(text)
        _check_contract([command, str(path), *args])

    check()
