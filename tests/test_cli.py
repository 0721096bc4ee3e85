import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hyp

from stairtile import (Box, Lattice, Mode, Point, RenderSpec,
                       ScaleCertificate, canonical_stair, count_at,
                       render, shift_lattice, stair_region, triangle_region)
from stairtile.cli import _parse_lattice, run


def test_density_plain_and_json(capsys):
    assert run(["density", "--j", "2", "--kind", "covering"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"
    assert run(["density", "--j", "1", "--kind", "packing", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "2/3"
    lats = [Lattice.from_json(x) for x in payload["witness_lattices"]]
    assert lats == [Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))]


def test_density_for_transported_triangle(capsys):
    assert run(["density", "--j", "1", "--kind", "covering",
                "--triangle", "0,0,2,0,0,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "3/2"
    lat = Lattice.from_json(payload["witness_lattices"][0])
    # witnesses transported back to the doubled triangle
    assert lat == Lattice(Point(F(2, 3), F(2, 3)), Point(0, 2))


def test_density_json_for_a_skew_triangle(capsys):
    # witnesses carried by the edge basis (2, 1), (1, 3), basis by basis
    assert run(["density", "--j", "2", "--kind", "packing",
                "--triangle", "1,1,3,2,2,4", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"j": 2, "kind": "packing", "value": "8/5", "witness_lattices": '
        '[{"u1": ["3/4", "1"], "u2": ["5/4", "15/4"]}, '
        '{"u1": ["1", "7/4"], "u2": ["5/4", "15/4"]}, '
        '{"u1": ["5/4", "5/2"], "u2": ["5/4", "15/4"]}]}\n')


def test_verify_expect_exit_codes(capsys):
    assert run(["verify", "--stair", "Sj", "--m", "4", "--j", "2",
                "--expect", "tiling"]) == 1
    capsys.readouterr()
    assert run(["verify", "--stair", "Sj", "--m", "1", "--j", "2",
                "--expect", "tiling"]) == 0
    capsys.readouterr()
    assert run(["verify", "--stair", "Sj", "--m", "4", "--j", "2",
                "--expect", "no-tiling"]) == 0
    capsys.readouterr()
    assert run(["verify", "--forward", "--j", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in payload["tilings"] if row["tiles"]] == \
        [1, 2, 3]


def test_verify_modes_exclude_one_another(capsys):
    # --expect asserts on --m alone, and the three modes do not combine
    for argv in (["--forward", "--j", "1", "--expect", "no-tiling"],
                 ["--forward", "--m", "2", "--j", "1"],
                 ["--forward", "--converse", "--j", "1"]):
        assert run(["verify", *argv]) == 2
    assert capsys.readouterr().out == ""


def test_options_that_would_go_unused_are_refused(capsys):
    # --stair is checked in every verify mode; render takes --m or
    # --lattice, not both, whatever the value of --m, and an empty
    # --lattice is a bad spec, not a request for the default
    for argv in (["verify", "--forward", "--j", "1", "--stair", "Sx"],
                 ["verify", "--converse", "--j", "1", "--qmax", "1",
                  "--stair", "Sx"],
                 ["render", "--region", "stair", "--j", "1", "--m", "2",
                  "--lattice", "Z2", "--viewport=0,1,0,1"],
                 ["render", "--region", "stair", "--j", "1", "--m", "1",
                  "--lattice", "Z2", "--viewport=0,1,0,1"],
                 ["render", "--region", "stair", "--j", "1", "--lattice=",
                  "--viewport=0,1,0,1"]):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""


def test_qmax_without_converse_and_empty_scale_are_refused(capsys):
    # --qmax bounds --converse only; an empty --scale is a bad rational in
    # both regions, not a request for scale 1
    for argv in (["render", "--region", "triangle", "--scale=", "--j", "1",
                  "--viewport=0,1,0,1"],
                 ["render", "--region", "stair", "--scale=", "--j", "1",
                  "--viewport=0,1,0,1"],
                 ["verify", "--m", "1", "--j", "1", "--qmax", "5"],
                 ["verify", "--forward", "--j", "1", "--qmax", "0"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    assert run(["verify", "--converse", "--j", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["qmax"] == 2


def test_converse_below_j_one_is_refused(capsys):
    # an empty stair would let every lattice of the space pass
    for j in ("0", "-1"):
        assert run(["verify", "--converse", "--j", j, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "need j >= 1" in err


def test_forward_below_j_one_is_refused(capsys):
    # the forward table has no stair to count below j = 1
    for j in ("0", "-1"):
        assert run(["verify", "--forward", "--j", j, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "need j >= 1" in err


def test_empty_values_are_refused(capsys, tmp_path, monkeypatch):
    # an empty value is a usage error that names its flag, not the
    # standard triangle, a skipped --svg or a document on stdout
    monkeypatch.chdir(tmp_path)
    for argv in (["density", "--j", "1", "--kind", "packing", "--triangle="],
                 ["sj", "--j", "1", "--lattice", "Z2", "--svg="],
                 ["render", "--region", "stair", "--j", "1",
                  "--viewport=0,1,0,1", "--out="]):
        assert run(argv) == 2
        flag = argv[-1].rstrip("=")
        assert capsys.readouterr() == ("", f"error: {flag} needs a value\n")
    assert list(tmp_path.iterdir()) == []


def test_bad_tokens_are_named(capsys):
    for spec, message in (
            ("shift:x", "lattice spec 'shift:x' needs an integer M: 'x'"),
            ("packing:1/2",
             "lattice spec 'packing:1/2' needs an integer M: '1/2'"),
            ("1/x,0;0,1", "not an integer or a/b: '1/x'")):
        assert run(["lambda", "--j", "1", "--which", "lower",
                    "--lattice", spec]) == 2
        assert message in capsys.readouterr().err
    assert run(["density", "--j", "1", "--kind", "packing",
                "--triangle", "0,0,1,0,x,1"]) == 2
    assert capsys.readouterr().err == (
        "error: not an integer or a/b: 'x'\n")


def test_phi_subcommand(capsys):
    assert run(["phi", "--k", "2", "--n", "15"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["phi", "--k", "2", "--n", "15", "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"k": 2, "n": 15, "value": 3, "bruteforce": 3}


@pytest.mark.parametrize("argv, message", [
    (["--n", "1000000000000000003"], "isqrt(n) = 1000000000"),
    (["--n", "10000019", "--verify"], "n * k = 20000038")],
    ids=["factorize", "bruteforce"])
def test_phi_refuses_oversize_inputs(argv, message):
    # each call once ran trial division up to sqrt(n), or n * k gcd calls,
    # and did not finish in 20 s
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-m", "stairtile.cli", "phi", "--k", "2", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert message in out.stderr and "Traceback" not in out.stderr


def test_phi_answers_a_small_factor_past_the_budget(capsys):
    # 2 * (10^18 + 3): too big to factorize, but 2 | n makes phi_2 zero
    assert run(["phi", "--k", "2", "--n", "2000000000000000006"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(["density", "--j", "2", "--kind", "covering", "--bogus"]) == 2
    assert run(["density", "--j", "2", "--kind", "sideways"]) == 2
    assert run(["nonsense"]) == 2
    # decimal rationals are rejected, never rounded
    assert run(["lambda", "--j", "1", "--which", "lower",
                "--lattice", "0.5,0;0,1"]) == 2
    # zero denominators and a zero j are refused, never a traceback
    assert run(["density", "--triangle", "0,0,1/0,0,0,1", "--j", "1",
                "--kind", "packing"]) == 2
    assert run(["render", "--region", "triangle", "--j", "1",
                "--lattice", "Z2", "--viewport", "0,2/0,0,2"]) == 2
    assert run(["lambda", "--j", "0", "--which", "lower",
                "--lattice", "packing:1"]) == 2
    # the family specs need M >= 1, as shift:M does
    for spec in ("packing:0", "covering:0"):
        assert run(["lambda", "--j", "1", "--which", "lower",
                    "--lattice", spec]) == 2
    capsys.readouterr()
    # render's default lattice is refused on j alone, not on an m the
    # caller never gave
    assert run(["render", "--region", "stair", "--j", "0",
                "--viewport=0,1,0,1"]) == 2
    assert capsys.readouterr().err == "error: need j >= 1: 0\n"
    # also where the triangle and its lattice never use j
    assert run(["render", "--region", "triangle", "--j", "0",
                "--lattice", "Z2", "--viewport=0,1,0,1"]) == 2
    assert capsys.readouterr().err == "error: need j >= 1: 0\n"
    # an index whose sublattices are past the budget, with their count
    assert run(["enumerate", "--det", "1000000000000"]) == 2
    assert "at least n + 1 = 1000000000001" in capsys.readouterr().err
    # files that cannot be written
    missing = str(tmp_path / "missing" / "x.svg")
    assert run(["sj", "--j", "1", "--lattice", "Z2", "--svg", missing]) == 2
    assert run(["render", "--region", "stair", "--j", "1",
                "--viewport=-3,6,-3,6", "--out", missing]) == 2
    assert run(["sj", "--j", "1", "--lattice", "Z2",
                "--svg", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error: ") == 3


def test_singular_lattice_spec_is_a_readable_usage_error(capsys):
    assert run(["lambda", "--j", "1", "--which", "upper",
                "--lattice", "0,1;0,2"]) == 2
    assert "singular basis: (0, 1), (0, 2)" in capsys.readouterr().err
    assert run(["lambda", "--j", "1", "--which", "lower",
                "--lattice", "1/2,1;-1,-2"]) == 2
    assert "singular basis: (1/2, 1), (-1, -2)" in capsys.readouterr().err


def test_collinear_triangle_is_a_readable_usage_error(capsys):
    assert run(["density", "--j", "1", "--kind", "packing",
                "--triangle", "0,0,1,1,2,2"]) == 2
    assert ("collinear triangle vertices: (0, 0), (1, 1), (2, 2)"
            in capsys.readouterr().err)
    assert run(["density", "--j", "1", "--kind", "covering",
                "--triangle", "1/2,0,1,-1/3,0,1/3"]) == 2
    assert ("collinear triangle vertices: (1/2, 0), (1, -1/3), (0, 1/3)"
            in capsys.readouterr().err)


def test_lattice_spec_needs_two_coordinates_per_vector(capsys):
    for spec in ("1,0;0,1,5", "1,0,3;0,1", "1;0,1", "1,0;0,1;1,1"):
        assert run(["lambda", "--j", "1", "--which", "lower",
                    "--lattice", spec]) == 2
        assert "cannot parse lattice spec" in capsys.readouterr().err


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on src."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_numpy():
    code = "import sys, stairtile; print('numpy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_import_does_not_load_dataclass_machinery():
    # compared against the interpreter's own start-up modules, which may
    # already hold some of these (site hooks import typing on some hosts)
    code = ("import sys; bare = set(sys.modules); import stairtile.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& (set(sys.modules) - bare)))")
    assert _fresh_interpreter(code) == "[]"


def test_degenerate_viewport_is_a_readable_usage_error(capsys):
    assert run(["render", "--region", "stair", "--j", "1",
                "--viewport=1,0,0,1"]) == 2
    err = capsys.readouterr().err
    assert "degenerate box (x_min, x_max, y_min, y_max) = (1, 0, 0, 1)" in err
    assert "Fraction(" not in err


def test_lambda_subcommand(capsys):
    assert run(["lambda", "--j", "1", "--which", "lower",
                "--lattice", "Z2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["lambda", "--j", "2", "--which", "upper",
                "--lattice", "packing:1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1"
    assert payload["predicate_at_value"] is True
    assert payload["predicate_above"] is False
    # a lattice spec that starts with "-" must follow "=", as --viewport=
    # does; otherwise argparse takes it for an option
    lower = ["lambda", "--j", "1", "--which", "lower", "--json"]
    assert run(lower + ["--lattice", "-1,0;0,-1"]) == 2
    capsys.readouterr()
    assert run(lower + ["--lattice=-1,0;0,-1"]) == 0
    negated = capsys.readouterr().out
    assert run(lower + ["--lattice", "Z2"]) == 0
    assert negated == capsys.readouterr().out


def test_enumerate_subcommand(capsys):
    assert run(["enumerate", "--det", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4


@pytest.mark.parametrize("argv, field", [
    (["enumerate", "--det", "3"], "lattices"),
    (["verify", "--converse", "--j", "1", "--qmax", "2"], "tilers")])
def test_plain_lattice_lines_match_the_json_payload(capsys, argv, field):
    assert run(argv + ["--json"]) == 0
    lats = json.loads(capsys.readouterr().out)[field]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lats and lines == [json.dumps(lat, sort_keys=True) for lat in lats]


def test_sj_subcommand_with_svg(tmp_path, capsys):
    out = tmp_path / "tiling.svg"
    assert run(["sj", "--j", "1", "--lattice", "covering:1", "--json",
                "--svg", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scale"] == "1"
    assert payload["stair"] == {"x_breaks": ["0", "1/3", "2/3"],
                                "heights": ["2/3", "1/3"]}
    text = out.read_text()
    assert text.startswith("<?xml") and "</svg>" in text


def test_search_subcommand(capsys):
    assert run(["search", "--j", "1", "--kind", "packing", "--qmax", "2",
                "--cmax", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_value"] == "2/3"


def test_stair_opt_subcommand(capsys):
    assert run(["stair-opt", "--j", "1", "--mode", "in", "--iters", "2000",
                "--seed", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "1/3"
    assert payload["gap"] < 1e-6


def test_render_subcommand_and_determinism(capsys):
    args = ["render", "--region", "stair", "--j", "1", "--m", "1",
            "--viewport=-3,6,-3,6", "--copies", "6"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("<?xml")
    assert first.count("<polygon") > 4


def test_render_empty_copies(capsys):
    assert run(["render", "--region", "triangle", "--j", "1",
                "--lattice", "Z2", "--viewport", "0,2,0,2",
                "--copies", "0"]) == 0
    out = capsys.readouterr().out
    # only frame and axes
    assert out.count("<polygon") == 0
    assert "<line" in out


def test_render_coverage_matches_engine():
    # rendered translates of S(1) under Lambda(1,1) cover every sampled
    # interior point exactly once
    lat = shift_lattice(1, 1)
    region = stair_region(canonical_stair(1))
    spec = RenderSpec(region, lat, Box(-3, 6, -3, 6), 8)
    document = render(spec)
    n_polygons = document.count("<polygon")
    for sx in range(-2, 5):
        for sy in range(-2, 5):
            p = Point(F(4 * sx + 1, 4), F(4 * sy + 1, 4))
            assert count_at(lat, region, p) == 1
    assert n_polygons >= 9


def test_render_rejects_degenerate_viewport():
    with pytest.raises(ValueError):
        RenderSpec(stair_region(canonical_stair(1)), shift_lattice(1, 1),
                   Box(0, 0, 0, 2), 2)


def test_scale_certificate_json_round_trip():
    cert = ScaleCertificate(F(2), True, F(3, 2), False, F(5, 2), True)
    blob = cert.to_json()
    assert blob["value"] == "2"
    assert json.loads(json.dumps(blob)) == blob


# Small rationals, a few with a zero denominator; argument values are
# passed as --opt=value so that a leading "-" is not taken for an option.
_RATIONALS = hyp.builds(lambda n, d: f"{n}/{d}", hyp.integers(-4, 4),
                        hyp.sampled_from([1, 2, 3, 4] * 3 + [0]))
_LATTICES = hyp.sampled_from(
    ["Z2", "shift:1", "shift:2", "packing:1", "covering:2", "covering:0",
     "shift:x", "1,0;0", "0.5,0;0,1"]) | hyp.builds(
         lambda a, b, c, d: f"{a},{b};{c},{d}",
         _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS)
_J = hyp.integers(0, 3)
_POSITIVE = hyp.builds(lambda n, d: f"{n}/{d}", hyp.integers(1, 4),
                       hyp.integers(1, 4))
_VIEWPORTS = hyp.builds(lambda a, b, c, d: f"-{a},{b},-{c},{d}", _POSITIVE,
                        _POSITIVE, _POSITIVE, _POSITIVE) | hyp.lists(
                            _RATIONALS, min_size=3, max_size=4).map(",".join)


def _command(name, required, optional):
    """The subcommand with each required option and a random subset of
    the optional ones, as --name=value; a strategy of None makes a flag."""
    def option(name, strategy):
        if strategy is None:
            return hyp.just([f"--{name}"])
        return strategy.map(lambda v: [f"--{name}={v}"])
    parts = [option(*item) for item in required.items()]
    parts += [hyp.just([]) | option(*item) for item in optional.items()]
    return hyp.tuples(*parts).map(
        lambda ps: [name] + [a for p in ps for a in p])


_KIND = hyp.sampled_from(["packing", "covering"] * 3 + ["both"])
_ARGV = hyp.one_of(
    _command("density", {"j": _J, "kind": _KIND},
             {"json": None, "triangle": hyp.lists(
                 _RATIONALS, min_size=6, max_size=6).map(",".join)}),
    _command("lambda", {"j": _J, "which": hyp.sampled_from(["lower",
                                                            "upper"]),
                        "lattice": _LATTICES}, {"json": None}),
    _command("sj", {"j": _J, "lattice": _LATTICES},
             {"json": None, "svg": hyp.just("tiling.svg")}),
    _command("verify", {"j": _J},
             {"stair": hyp.sampled_from(["Sj", "S"]),
              "m": hyp.integers(-1, 8),
              "expect": hyp.sampled_from(["tiling", "no-tiling"]),
              "forward": None, "converse": None,
              "qmax": hyp.integers(-1, 2), "json": None}),
    _command("enumerate", {"det": hyp.integers(-2, 30)
                           | hyp.integers(10**6, 10**18)}, {"json": None}),
    _command("phi", {"k": hyp.integers(-1, 4), "n": hyp.integers(-2, 40)},
             {"verify": None, "json": None}),
    _command("search", {"j": _J, "kind": _KIND, "qmax": hyp.integers(0, 2),
                        "cmax": hyp.integers(0, 3)}, {"json": None}),
    _command("stair-opt", {"j": _J, "mode": hyp.sampled_from(["in", "out"])},
             {"iters": hyp.integers(-1, 50), "seed": hyp.integers(0, 3),
              "json": None}),
    _command("render", {"region": hyp.sampled_from(["stair", "triangle"]),
                        "j": _J, "viewport": _VIEWPORTS},
             {"m": hyp.integers(0, 5), "lattice": _LATTICES,
              "scale": _RATIONALS, "copies": hyp.integers(-1, 3),
              "out": hyp.just("tiling.svg")}),
    # argument lists that argparse itself must refuse
    hyp.lists(hyp.sampled_from(["lambda", "--j", "1", "--bogus", "Z2",
                                "-1", "--lattice"]), max_size=4),
)


def _small_enough(argv):
    """Whether every lattice the call names has a canonical basis within
    aspect 8 and a determinant of at least 1/16; cost past that is a
    matter of the size of the problem, not of its validity."""
    j = next((int(a.split("=")[1]) for a in argv if a.startswith("--j=")),
             None)
    for arg in argv:
        if not arg.startswith("--lattice="):
            continue
        try:
            lat = _parse_lattice(arg.split("=", 1)[1], j)
        except ValueError:
            continue
        x1, _, y2 = lat.canonical_key()
        if y2 > 8 * x1 or x1 > 8 * y2 or lat.d < F(1, 16):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exit_codes(argv):
    assume(_small_enough(argv))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("tiling.svg", os.path.join(tmp, "tiling.svg"))
                for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert any(a.startswith(("--expect", "--verify")) for a in argv)
    assert "Traceback" not in err.getvalue()
    # an index past the sublattice budget is refused before any work
    if argv[:1] == ["enumerate"] and any(
            a.startswith("--det=") and int(a[6:]) >= 10**6 for a in argv):
        assert code == 2


@pytest.mark.parametrize("spec, den, expected", [
    ("100,0;0,1/100", 100,
     '{"corners": [], "extreme_corners": [["0", "1/100"], ["100", "0"]], '
     '"scale": "10001/100", "stair": {"heights": ["1/100"], '
     '"x_breaks": ["0", "100"]}}'),
    ("50,1/3;0,1/50", 150,
     '{"corners": [], "extreme_corners": [["0", "1/50"], ["50", "0"]], '
     '"scale": "2501/50", "stair": {"heights": ["1/50"], '
     '"x_breaks": ["0", "50"]}}'),
], ids=["100-by-1/100", "50-by-1/50"])
def test_sj_answers_on_wide_lattices(spec, den, expected):
    # both lattices are 1/den tall and about 100/den wide; sj once ran
    # lambda_lower on them and did not finish in 20 s
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-m", "stairtile.cli", "sj", "--j", "1",
         "--lattice", spec, "--json"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=10)
    assert (out.returncode, out.stdout.strip()) == (0, expected)
    # the point just inside the outer corner: covered once at the scale and
    # 1/(2 den) above it, not at all 1/(2 den) below
    payload = json.loads(expected)
    lat = _parse_lattice(spec, 1)
    scale = F(payload["scale"])
    corner = Point(*map(F, (payload["stair"]["x_breaks"][-1],
                            payload["stair"]["heights"][-1])))
    e = F(1, 8 * den)
    for step, count in ((-1, 0), (0, 1), (1, 1)):
        region = triangle_region(scale + F(step, 2 * den), Mode.CLOSED)
        assert count_at(lat, region, corner - Point(e, e)) == count
