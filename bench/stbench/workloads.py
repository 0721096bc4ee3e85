"""The four workloads.  Each builds a fixed op list from a seed.

The seed decides the order of the ops.  It never decides which lattices,
bases or sizes are measured, so every seed costs the same amount of work and
the metrics stay comparable across seeds.  See ``bench/README.md`` for why each
workload exists.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from typing import Optional

import stairtile as st
from stairtile import cli

from . import checks
from .core import Op

# Wall-clock limit of one op.  The slowest op that finishes on the seed
# (lambda_lower on the basis "roadmap-a") takes 2 to 4 s, depending on how
# busy the machine is; the limit leaves room so that it never times out.
OP_LIMIT_S = 10.0


@dataclass(frozen=True)
class Context:
    root: str          # checkout root; the program is imported from root/src
    out_dir: str       # scratch files of the run, inside the checkout
    in_process: bool   # cli_calls: dispatch cli.run in-process (traced run)

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env


def _json(obj) -> str:
    return json.dumps(obj.to_json(), sort_keys=True)


def _lattice(u1: tuple, u2: tuple) -> st.Lattice:
    return st.Lattice(st.Point(F(u1[0]), F(u1[1])),
                      st.Point(F(u2[0]), F(u2[1])))


# ---------------------------------------------------------------- tiling

def tiling_ladder(seed: int, ctx: Context) -> list[Op]:
    ops = []
    for j in range(1, 17):
        good = set(checks.admissible(j))
        for m in range(1, 2 * j + 2):
            ops.append(Op(
                f"tiling@j{j}:m{m}",
                lambda j=j, m=m: st.is_exact_jfold_tiling(
                    st.canonical_stair(j), st.shift_lattice(m, j), j),
                json.dumps,
                lambda r, ok=(m in good): checks.expect(
                    r is ok, f"tiling answer {r}, gcd rule says {ok}")))
    for j in range(1, 8):
        for kind in (st.PACKING, st.COVERING):
            ops.append(Op(
                f"density@j{j}:{kind}",
                lambda j=j, kind=kind: st.density_result(j, kind),
                _json,
                lambda r, j=j, kind=kind: checks.check_density(r, j, kind)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- scales

def _optimal_bases() -> list[tuple[str, tuple, tuple]]:
    out = []
    for j in (1, 2):
        for m in checks.admissible(j):
            out.append((f"packing-j{j}-m{m}", (F(1, 2 * j), F(m, 2 * j)),
                        (0, F(2 * j + 1, 2 * j))))
            out.append((f"covering-j{j}-m{m}",
                        (F(1, 2 * j + 1), F(m, 2 * j + 1)), (0, 1)))
    return out


def unimodular_skew(rng: random.Random) -> tuple[int, int, int, int]:
    """A random integer matrix of determinant +-1 with small entries."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(2):
        k = rng.choice((-1, 1))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return a, b, c, d


def _aspect(u1: tuple, u2: tuple) -> F:
    """Height over width of the canonical basis ((x1, y1), (0, y2)): x1 is
    the gcd of the x-coordinates and x1 * y2 = |det|."""
    x_a, x_b = F(u1[0]), F(u2[0])
    x1 = F(gcd(x_a.numerator * x_b.denominator,
               x_b.numerator * x_a.denominator),
           x_a.denominator * x_b.denominator)
    return abs(x_a * u2[1] - u1[1] * x_b) / (x1 * x1)


def generic_ladder() -> list[tuple[str, tuple, tuple]]:
    """One generic rational basis per denominator bound D = 2..8, given
    through a unimodular change of basis.

    Drawn once from a fixed generator: how long a scale op takes depends on
    both the lattice and the basis it is given in, so drawing them from the
    seed would make the cost of a run depend on the seed.  Draws whose
    canonical basis is taller than 16 times its width are skipped: their
    ops take seconds and would sit near the op limit.  That tail is measured
    on the bases "roadmap-a" (aspect 78) and "sliver" (aspect 20352).
    """
    rng = random.Random(5096)
    out = []
    for d in range(2, 9):
        while True:
            a, b, c, e = (rng.randint(-d, d) for _ in range(4))
            q = [rng.randint(1, d) for _ in range(4)]
            u1, u2 = (F(a, q[0]), F(b, q[1])), (F(c, q[2]), F(e, q[3]))
            if a * e != b * c and (a or c) and _aspect(u1, u2) <= 16:
                break
        s11, s12, s21, s22 = unimodular_skew(rng)
        out.append((f"generic-D{d}",
                    (s11 * u1[0] + s12 * u2[0], s11 * u1[1] + s12 * u2[1]),
                    (s21 * u1[0] + s22 * u2[0], s21 * u1[1] + s22 * u2[1])))
    return out


# Bases from the ROADMAP baseline.  "sliver" has the canonical basis
# (1/221, 1907/77), (0, 1013/11); every scale op on it hangs on the seed
# (selection_stair first calls lambda_lower), so one op stands for them.
ROADMAP_A = ("roadmap-a", (F(2, 5), F(1, 7)), (F(-1, 3), F(3, 4)))
SLIVER = ("sliver", (F(7, 13), F(3, 11)), (F(-2, 17), F(5, 7)))


def _scale_op(fn_name: str, j: int, name: str, lat: st.Lattice) -> Op:
    # the function is looked up at call time, so that a traced pass calls
    # the wrapper installed in the package namespace
    call = lambda: getattr(st, fn_name)(lat, j)  # noqa: E731
    if fn_name == "selection_stair":
        return Op(f"selection_stair@j{j}:{name}", call, _json,
                  lambda r: checks.check_selection_stair(r, lat, j))
    which = "lower" if fn_name == "lambda_lower" else "upper"
    return Op(f"{fn_name}@j{j}:{name}", call, _json,
              lambda r: checks.check_certificate(r, lat, j, which))


def generic_scales(seed: int, ctx: Context) -> list[Op]:
    lattices = ([("Z2", (1, 0), (0, 1)),
                 ("theta", (F(1, 3), F(1, 3)), (0, 1))]
                + _optimal_bases() + generic_ladder())
    full = ("lambda_lower", "lambda_upper", "selection_stair")
    ops = [_scale_op(fn, j, name, _lattice(u1, u2))
           for name, u1, u2 in lattices for fn in full for j in (1, 2)]
    # the heavy-tail bases, given as in the ROADMAP table
    ops += [_scale_op(fn, 1, ROADMAP_A[0], _lattice(*ROADMAP_A[1:]))
            for fn in ("lambda_lower", "lambda_upper")]
    ops.append(_scale_op("lambda_lower", 1, SLIVER[0],
                         _lattice(*SLIVER[1:])))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- sweeps

def _check_search(report: st.SearchReport, j: int, q: int, c: int,
                  kind: str) -> Optional[str]:
    if report.best_value is None:
        return None
    for lat in report.best_lattices:
        if F(1, 2) / lat.d != report.best_value:
            return f"wrong: best lattice {lat.to_json()} has another density"
    if kind == st.PACKING:
        bound = checks.packing_closed_form(j)
        reachable = q >= 2 * j and c >= 2 * j + 1
        if report.best_value > bound:
            return f"wrong: packing density {report.best_value} > {bound}"
    else:
        bound = checks.covering_closed_form(j)
        reachable = q >= 2 * j + 1 and c >= 2 * j + 1
        if report.best_value < bound:
            return f"wrong: covering density {report.best_value} < {bound}"
    return checks.expect(not reachable or report.best_value == bound,
                         "optimal lattice in range but closed form missed")


def _check_converse(found: list[st.Lattice], j: int) -> Optional[str]:
    n = 2 * j + 1
    expected = sorted((F(1), F(m), F(n)) for m in checks.admissible(j))
    return checks.expect(
        sorted(lat.canonical_key() for lat in found) == expected,
        "tilers differ from the admissible shift family")


def _check_sublattices(lats: list[st.Lattice], n: int) -> Optional[str]:
    return checks.expect(
        len(lats) == checks.divisor_sum(n) == len(set(lats))
        and all(lat.d == n for lat in lats),
        f"not the sigma({n}) distinct index-{n} sublattices")


SUBLATTICE_INDICES = (12, 18, 24, 30, 36, 42, 48, 60, 72, 84, 90, 96, 120,
                      144, 168, 180, 210, 240, 360, 420)


TOTIENT_MODULI = (105, 231, 385, 1001, 1155, 1729, 2047, 2431, 2999, 3003)


def small_sweeps(seed: int, ctx: Context) -> list[Op]:
    ops = []
    for j in (1, 2, 3):
        for q in (1, 2, 3):
            for c in (2, 3, 4):
                for kind in (st.PACKING, st.COVERING):
                    ops.append(Op(
                        f"search_{kind}@j{j}:q{q}:c{c}",
                        lambda kind=kind, j=j, q=q, c=c: getattr(
                            st, f"search_{kind}")(j, q, c), _json,
                        lambda r, j=j, q=q, c=c, kind=kind:
                            _check_search(r, j, q, c, kind)))
            ops.append(Op(
                f"converse@j{j}:q{q}",
                lambda j=j, q=q: st.verify_stair_tiling_converse(j, q),
                lambda r: json.dumps([lat.to_json() for lat in r],
                                     sort_keys=True),
                lambda r, j=j: _check_converse(r, j)))
    for n in SUBLATTICE_INDICES:
        ops.append(Op(
            f"enumerate@n{n}",
            lambda n=n: st.enumerate_integer_sublattices(n),
            lambda r: json.dumps([lat.to_json() for lat in r],
                                 sort_keys=True),
            lambda r, n=n: _check_sublattices(r, n)))
    for k in (1, 2, 3, 4):
        for n in TOTIENT_MODULI:
            ops.append(Op(
                f"phi_k@k{k}:n{n}", lambda k=k, n=n: st.phi_k(k, n),
                json.dumps,
                lambda r, k=k, n=n: checks.expect(
                    r == checks.phi_definition(k, n),
                    "phi_k differs from the definitional count")))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    file: Optional[str]


def _encode_cli(res: CliResult) -> str:
    # stderr is left out: usage messages may be reworded freely
    text = f"exit {res.code}\n{res.stdout}"
    return text if res.file is None else f"{text}\n--- file ---\n{res.file}"


def _check_cli(res: CliResult, expected: int) -> Optional[str]:
    if "Traceback" in res.stderr:
        return f"error: exit {res.code} with a traceback"
    if res.code == expected:
        return None
    if expected == 2 and res.code != 0:
        return f"error: exit {res.code}, expected usage error 2"
    return f"wrong: exit {res.code}, expected {expected}"


def cli_cases() -> list[tuple[str, int]]:
    """(arguments, expected exit code) at the sizes the README uses.

    ``{out}`` stands for a scratch file the call writes.
    """
    cases = []
    for j in (1, 2, 3):
        for kind in ("packing", "covering"):
            cases.append((f"density --j {j} --kind {kind}", 0))
            cases.append((f"density --j {j} --kind {kind} --json", 0))
    for j in (1, 2):
        for kind in ("packing", "covering"):
            cases.append((f"density --j {j} --kind {kind} "
                          "--triangle 0,0,2,0,0,2 --json", 0))
    for spec in ("Z2", "packing:1", "covering:1", "shift:1", "1/3,1/3;0,1"):
        for j in (1, 2):
            for which in ("lower", "upper"):
                cases.append((f"lambda --j {j} --which {which} "
                              f"--lattice {spec} --json", 0))
    for spec in ("Z2", "packing:1", "covering:1"):
        for j in (1, 2):
            cases.append((f"sj --j {j} --lattice {spec} --json", 0))
    cases.append(("sj --j 1 --lattice covering:1 --json --svg {out}", 0))
    cases.append(("sj --j 2 --lattice packing:1 --json --svg {out}", 0))
    for j in (1, 2):
        good = checks.admissible(j)
        for m in range(1, 2 * j + 2):
            cases.append((f"verify --stair Sj --m {m} --j {j} "
                          "--expect tiling", 0 if m in good else 1))
    for j in (1, 2, 3):
        cases.append((f"verify --forward --j {j} --json", 0))
    for q in (1, 2):
        cases.append((f"verify --converse --j 1 --qmax {q} --json", 0))
    for det in range(1, 7):
        cases.append((f"enumerate --det {det} --json", 0))
    for k in (1, 2, 3):
        for n in (15, 21, 35):
            cases.append((f"phi --k {k} --n {n} --verify", 0))
    for kind in ("packing", "covering"):
        for q in (1, 2):
            for c in (2, 3):
                cases.append((f"search --j 1 --kind {kind} --qmax {q} "
                              f"--cmax {c} --json", 0))
    for j in (1, 2):
        for mode in ("in", "out"):
            cases.append((f"stair-opt --j {j} --mode {mode} --iters 10000 "
                          "--seed 0 --json", 0))
    for j in (1, 2):
        cases.append((f"render --region stair --j {j} --m 1 "
                      "--viewport=-3,6,-3,6 --copies 6 --out {out}", 0))
    cases.append(("render --region triangle --j 1 --lattice covering:1 "
                  "--viewport=-2,3,-2,3 --copies 4 --out {out}", 0))
    cases.append(("render --region triangle --j 2 --lattice packing:1 "
                  "--scale 3/2 --viewport=-2,3,-2,3 --copies 4 --out {out}",
                  0))
    # invalid input must be refused with a usage error
    cases += [
        ("density --triangle 0,0,1/0,0,0,1 --j 1 --kind packing", 2),
        ("density --j 0 --kind packing", 2),
        ("density --j 1 --kind packing --triangle 0,0,1,1,2,2", 2),
        ("density --j 1 --kind packing --triangle 1/2,0,1,0,0,1.5", 2),
        ("lambda --j 1 --which lower --lattice 1,2", 2),
        ("lambda --j 1 --which lower --lattice 1,0;2,0", 2),
        ("lambda --j 1 --which sideways --lattice Z2", 2),
        ("lambda --j 1 --which lower --lattice shift:0", 2),
        ("verify --stair Sx --m 1 --j 1", 2),
        ("verify --j 1", 2),
        ("enumerate --det 0", 2),
        ("phi --k 0 --n 5", 2),
        ("search --j 0 --kind packing --qmax 1 --cmax 1", 2),
        ("render --region stair --j 1 --viewport=0,0,0,1", 2),
    ]
    return cases


def _cli_op(args: str, expected: int, ctx: Context) -> Op:
    path = None
    if "{out}" in args:
        slug = "".join(ch if ch.isalnum() else "_" for ch in args)[:80]
        path = os.path.join(ctx.out_dir, "cli", f"{slug}.svg")
        args = args.replace("{out}", path)
    argv = args.split()

    def read_file() -> Optional[str]:
        if path is None:
            return None
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def remove_file() -> None:
        if path is not None and os.path.exists(path):
            os.remove(path)

    def call_subprocess() -> CliResult:
        remove_file()
        proc = subprocess.run(
            [sys.executable, "-m", "stairtile.cli", *argv], env=ctx.env(),
            cwd=ctx.root, capture_output=True, text=True, timeout=OP_LIMIT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr,
                         read_file() if proc.returncode == 0 else None)

    def call_in_process() -> CliResult:
        remove_file()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return CliResult(code, out.getvalue(), err.getvalue(),
                         read_file() if code == 0 else None)

    name = "cli:" + (args if path is None
                     else args.replace(path, "OUT.svg"))
    return Op(name, call_in_process if ctx.in_process else call_subprocess,
              _encode_cli, lambda r: _check_cli(r, expected))


def cli_calls(seed: int, ctx: Context) -> list[Op]:
    os.makedirs(os.path.join(ctx.out_dir, "cli"), exist_ok=True)
    ops = [_cli_op(args, expected, ctx) for args, expected in cli_cases()]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "tiling_ladder": tiling_ladder,
    "generic_scales": generic_scales,
    "small_sweeps": small_sweeps,
    "cli_calls": cli_calls,
}

# Ops that fail on the code this benchmark was written against.  They stay
# in their workloads: fixing them shows as a rise in ok_frac.
KNOWN_FAILURES = {
    "lambda_lower@j1:sliver": "timeout (hang in candidate_scales)",
    "cli:density --triangle 0,0,1/0,0,0,1 --j 1 --kind packing":
        "ZeroDivisionError traceback, exit 1 instead of 2",
}
