"""Command-line front door: word calculus, space builder, flag queries and
verification suites.

Every command is a thin adapter: parse arguments, call the module operation,
format the result.  ``--json`` switches to machine output.  Exit status: 0 on
success, 1 on a domain error or a failed law (with its machine-readable
code), 2 on usage errors.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import flags as FL
from . import oracle as OR
from . import words as W
from .errors import LawFailedError, ParseError, PseudospaceError
from .letters import format_index_set
from .space import ColoredSpace
from .words import parse_word

# Flag enumeration grows exponentially in N: at N = 16 a few cases of the
# flag suites take seconds, while N = 50 runs for minutes.
VERIFY_MAX_DIMENSION = 16


def main(argv: list[str] | None = None) -> None:
    """Run ``psn`` on ``argv`` (default: the process arguments)."""
    try:
        cli(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except PseudospaceError as exc:
        click.echo(json.dumps({"error": exc.code, "message": str(exc)}), err=True)
        sys.exit(1)


@click.group()
def cli() -> None:
    """Word calculus and finite models for free N-dimensional pseudospaces."""


def _n_option(fn):
    return click.option(
        "--n", "n", type=click.IntRange(min=1), required=True, help="ambient dimension N"
    )(fn)


def _json_option(fn):
    return click.option("--json", "as_json", is_flag=True, help="machine-readable output")(fn)


def _check_output(ctx, param, value: str) -> str:
    """Reject an output path whose directory is missing before any work."""
    if value != "-" and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"directory of {value!r} does not exist", ctx, param)
    return value


def _output_option(help_text: str):
    return click.option(
        "-o",
        "--output",
        default="-",
        type=click.Path(dir_okay=False, allow_dash=True),
        callback=_check_output,
        help=help_text,
    )


def _emit(as_json: bool, payload: dict, text: str) -> None:
    click.echo(json.dumps(payload) if as_json else text)


@cli.command()
@_n_option
@_json_option
@click.argument("word")
def reduce(n: int, as_json: bool, word: str) -> None:
    """Reduce a word to its normal-form reduct."""
    result = W.reduce(parse_word(word, n))
    _emit(as_json, {"word": str(result)}, str(result))


@cli.command()
@_n_option
@_json_option
@click.argument("word")
def nf(n: int, as_json: bool, word: str) -> None:
    """Normal form of the commutation class (no cancellation)."""
    result = W.normal_form(parse_word(word, n))
    _emit(as_json, {"word": str(result)}, str(result))


@cli.command()
@_n_option
@_json_option
@click.argument("u")
@click.argument("v")
def product(n: int, as_json: bool, u: str, v: str) -> None:
    """Reduced product of two words."""
    result = W.concat_reduce(parse_word(u, n), parse_word(v, n))
    _emit(as_json, {"word": str(result)}, str(result))


@cli.command()
@_n_option
@_json_option
@click.argument("word")
def inverse(n: int, as_json: bool, word: str) -> None:
    """Reverse the letter sequence."""
    result = W.inverse(parse_word(word, n))
    _emit(as_json, {"word": str(result)}, str(result))


@cli.command()
@_n_option
@_json_option
@click.option("--left/--right", "left", default=True, help="which stabilizer")
@click.argument("word")
def stab(n: int, as_json: bool, left: bool, word: str) -> None:
    """Left or right stabilizer of a word."""
    u = parse_word(word, n)
    s = W.left_stabilizer(u) if left else W.right_stabilizer(u)
    _emit(as_json, {"indices": sorted(s)}, format_index_set(s))


@cli.command()
@_n_option
@_json_option
@click.option("--symmetric", is_flag=True, help="extract the commuting middle word")
@click.argument("u")
@click.argument("v")
def decompose(n: int, as_json: bool, symmetric: bool, u: str, v: str) -> None:
    """Fine (or symmetric) decomposition of a product of reduced words."""
    uw, vw = parse_word(u, n), parse_word(v, n)
    d = W.decompose_symmetric(uw, vw) if symmetric else W.decompose_fine(uw, vw)
    payload = {
        "u1": str(d.u1),
        "u_prime": str(d.u_prime),
        "v_prime": str(d.v_prime),
        "v1": str(d.v1),
        "reduct": str(d.reduct()),
    }
    if d.w is not None:
        payload["w"] = str(d.w)
    text = "\n".join(f"{k} = {v}" for k, v in payload.items())
    _emit(as_json, payload, text)


@cli.command()
@_n_option
@_json_option
@click.argument("u")
@click.argument("v")
def wobble(n: int, as_json: bool, u: str, v: str) -> None:
    """The wobbling set sr(u) & sL(v)."""
    s = W.wobbling(parse_word(u, n), parse_word(v, n))
    _emit(as_json, {"indices": sorted(s)}, format_index_set(s))


@cli.command()
@_n_option
@_json_option
@click.argument("word")
def rank(n: int, as_json: bool, word: str) -> None:
    """Ordinal ranks of a reduced word: closed form (when the letter sizes
    are non-increasing) and the ordinal bound."""
    tr = FL.type_rank(parse_word(word, n))
    payload = {
        "u_rank": None if tr.u_rank is None else str(tr.u_rank),
        "ord_bound": str(tr.ord_bound),
    }
    text = f"u_rank = {payload['u_rank']}\nord_bound = {payload['ord_bound']}"
    _emit(as_json, payload, text)


@cli.command()
@_n_option
@_json_option
@click.option(
    "--split-len", default=W.SPLIT_LEN_DEFAULT, show_default=True, type=click.IntRange(min=0)
)
@click.option(
    "--steps", default=W.SPLIT_STEPS_DEFAULT, show_default=True, type=click.IntRange(min=0)
)
@click.argument("word")
def strong(n: int, as_json: bool, split_len: int, steps: int, word: str) -> None:
    """Bounded enumeration of strong reducts."""
    result = W.strong_reducts_bounded(parse_word(word, n), split_len, steps)
    payload = {
        "reducts": result.as_strings(),
        "exhausted": result.exhausted,
        "steps": result.steps,
    }
    lines = list(result.as_strings())
    if result.exhausted:
        lines.append("(step budget exhausted: enumeration incomplete)")
    _emit(as_json, payload, "\n".join(lines))


# ---------------------------------------------------------------------------
# space commands


_FILE = click.Path(exists=True, dir_okay=False, allow_dash=True)


def _load_space(path: str) -> ColoredSpace:
    data = _read_json(path)
    if isinstance(data, dict) and "ops" in data:
        return ColoredSpace.from_script(data)
    return ColoredSpace.from_json(data)


def _read_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path} is not JSON: {exc}") from exc


def _parse_ids(text: str) -> list[int]:
    """A JSON list of vertex ids."""
    try:
        ids = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad vertex list {text!r}: {exc}") from exc
    if not isinstance(ids, list) or not all(type(v) is int for v in ids):
        raise ParseError(f"bad vertex list {text!r}: expected a list of integer ids")
    return ids


@cli.command()
@click.argument("script", default="-", type=_FILE)
@_output_option("output file ('-' = stdout)")
def build(script: str, output: str) -> None:
    """Build a space from a JSON script and export it as JSON."""
    space = ColoredSpace.from_script(_read_json(script))
    text = json.dumps(space.to_json())
    if output == "-":
        click.echo(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


@cli.command("export-dot")
@click.argument("space_file", default="-", type=_FILE)
def export_dot(space_file: str) -> None:
    """Render a built space in DOT format, one rank per level."""
    click.echo(_load_space(space_file).to_dot())


@cli.command("flags")
@_json_option
@click.argument("space_file", default="-", type=_FILE)
def flags_cmd(as_json: bool, space_file: str) -> None:
    """List all flags of a space in deterministic order."""
    space = _load_space(space_file)
    all_flags = FL.enumerate_flags(space)
    payload = {"flags": [list(f.vertices) for f in all_flags]}
    text = "\n".join(f"{i}: {f}" for i, f in enumerate(all_flags))
    _emit(as_json, payload, text)


def _parse_flag(space: ColoredSpace, text: str) -> FL.Flag:
    text = text.strip()
    if text.startswith("["):
        return FL.check_flag(space, FL.Flag(tuple(_parse_ids(text))))
    if text.isascii() and text.isdigit():
        all_flags = FL.enumerate_flags(space)
        index = int(text)
        if index >= len(all_flags):
            raise ParseError(f"flag index {index} out of range ({len(all_flags)} flags)")
        return all_flags[index]
    raise ParseError(f"bad flag reference {text!r}")


def _parse_region(space: ColoredSpace, text: str) -> set[int]:
    if text == "all":
        return set(space.vertices)
    region = set(_parse_ids(text))
    unknown = region - set(space.vertices)
    if unknown:
        raise ParseError(f"unknown vertex ids {sorted(unknown)}")
    return region


@cli.command()
@_json_option
@click.argument("space_file", type=_FILE)
@click.argument("flag_a")
@click.argument("flag_b")
def word(as_json: bool, space_file: str, flag_a: str, flag_b: str) -> None:
    """Reduced connecting word between two flags."""
    space = _load_space(space_file)
    path = FL.flag_path(space, _parse_flag(space, flag_a), _parse_flag(space, flag_b))
    payload = {"word": str(path.word), "stuck_steps": list(path.stuck)}
    _emit(as_json, payload, str(path.word))


@cli.command()
@_json_option
@click.argument("space_file", type=_FILE)
@click.argument("flag")
@click.option("--set", "region", default="all", help="vertex id list or 'all'")
def basepoint(as_json: bool, space_file: str, flag: str, region: str) -> None:
    """Basepoint of a flag over a nice vertex set."""
    space = _load_space(space_file)
    g, u = FL.basepoint(space, _parse_flag(space, flag), _parse_region(space, region))
    payload = {"basepoint": list(g.vertices), "word": str(u)}
    _emit(as_json, payload, f"{g} via {u}")


@cli.command()
@_json_option
@click.argument("space_file", type=_FILE)
@click.argument("flag_f")
@click.argument("flag_g")
@click.argument("flag_h")
def indep(as_json: bool, space_file: str, flag_f: str, flag_g: str, flag_h: str) -> None:
    """Does F fork with H over G?  True means independent."""
    space = _load_space(space_file)
    result = FL.indep(
        space,
        _parse_flag(space, flag_f),
        _parse_flag(space, flag_g),
        _parse_flag(space, flag_h),
    )
    _emit(as_json, {"independent": result}, str(result).lower())


@cli.command()
@_json_option
@click.argument("space_file", type=_FILE)
@click.argument("flag")
@click.option("--set", "region", default="all", help="vertex id list or 'all'")
def canbase(as_json: bool, space_file: str, flag: str, region: str) -> None:
    """Canonical base: basepoint flag modulo the right stabilizer."""
    space = _load_space(space_file)
    cls = FL.canonical_base(space, _parse_flag(space, flag), _parse_region(space, region))
    payload = {
        "flag": list(cls.flag.vertices),
        "modulus": sorted(cls.modulus),
        "fixed": cls.fixed_vertices(),
    }
    text = f"{cls.flag} mod {format_index_set(cls.modulus)}"
    _emit(as_json, payload, text)


@cli.command()
@_json_option
@click.argument("space_file", type=_FILE)
@click.argument("flag")
@click.argument("word")
@_output_option("write the extended space here")
def realize(as_json: bool, space_file: str, flag: str, word: str, output: str) -> None:
    """Extend the space with a flag connected to FLAG by exactly WORD."""
    space = _load_space(space_file)
    g = _parse_flag(space, flag)
    f = FL.realize_type(space, g, parse_word(word, space.n))
    payload = {"flag": list(f.vertices), "space": space.to_json()}
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(space.to_json()) + "\n")
        payload = {"flag": list(f.vertices), "space_file": output}
    _emit(as_json, payload, str(f))


@cli.command()
@_n_option
@_json_option
def ample(n: int, as_json: bool) -> None:
    """Canonical-base identities behind the ampleness chain."""
    checks = FL.ample_report(n)
    ok = all(c["pass"] for c in checks)
    text = "\n".join(
        f"{'PASS' if c['pass'] else 'FAIL'} {c['check']}" for c in checks
    )
    _emit(as_json, {"checks": checks, "pass": ok}, text)
    if not ok:
        raise LawFailedError(f"{sum(not c['pass'] for c in checks)} of {len(checks)} checks failed")


@cli.command()
@_json_option
@click.option("--suite", required=True, type=click.Choice(OR.SUITE_NAMES))
@click.option("--seed", default=0, show_default=True)
@click.option("--cases", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option(
    "--n",
    "n_max",
    default=3,
    show_default=True,
    type=click.IntRange(1, VERIFY_MAX_DIMENSION),
    help=f"max dimension, at most {VERIFY_MAX_DIMENSION}",
)
@_output_option("write the JSON report here")
def verify(
    as_json: bool, suite: str, seed: int, cases: int, n_max: int, output: str
) -> None:
    """Run a verification suite; exit 0 iff all laws hold."""
    report = OR.run_suite(OR.SuiteConfig(suite, seed=seed, cases=cases, n_max=n_max))
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_json()) + "\n")
    _emit(as_json, report.to_json(), OR.report_to_text(report))
    if not report.passed:
        raise LawFailedError(f"{len(report.failures)} failures in suite {suite}")


if __name__ == "__main__":
    main()
