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

from stairtile import (Box, Lattice, Point, RenderSpec,
                       ScaleCertificate, canonical_stair,
                       count_at, shift_lattice, render, stair_region)
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


def test_phi_subcommand(capsys):
    assert run(["phi", "--k", "2", "--n", "15"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["phi", "--k", "2", "--n", "15", "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"k": 2, "n": 15, "value": 3, "bruteforce": 3}


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
    capsys.readouterr()
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


def test_import_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, stairtile; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    spec = RenderSpec(region, lat, 1, Box(-3, 6, -3, 6), 8)
    document = render(spec)
    n_polygons = document.count("<polygon")
    for sx in range(-2, 5):
        for sy in range(-2, 5):
            p = Point(F(4 * sx + 1, 4), F(4 * sy + 1, 4))
            assert count_at(lat, region, p) == 1
    assert n_polygons >= 9


def test_render_rejects_degenerate_viewport():
    with pytest.raises(ValueError):
        RenderSpec(stair_region(canonical_stair(1)), shift_lattice(1, 1), 1,
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
    _command("enumerate", {"det": hyp.integers(-2, 30)}, {"json": None}),
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
