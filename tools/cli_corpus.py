"""Run a fixed, seeded corpus of inputs through the lsdecomp CLI, in process.

The corpus holds entangled and separable draws of every family,
near-threshold, rank-deficient, vertex and near-pure states, values just
past a range end, entangled one-parameter states at the sizes the draws
miss (the `line` group: Werner and isotropic at d = 6 and 7, multipartite
isotropic at (d, n) = (5, 2), (6, 2) and (7, 2)), one-parameter states at
their exact thresholds (the `threshold` group: Werner at f = -0.0 and 0.0,
isotropic at F = 1/d for d = 2..8, the 3x3 alpha state at alpha = 3, 4 and
the next float above 4, multipartite isotropic at s0 for every d^n <= 64),
malformed specs, iso-concurrence states at angles from 5e-324 to 1e-154
(the `tinytheta` group: below about 7.46e-155, sin^2(2 theta) is no
longer a normal double and every command rejects the angle), states
where a region block of the oracle's family is nearly singular at the
optimum (the `f3` group: bd23 at [0.8, 0, 0.1, 0.1, 0, 0], where the
oracle overshoots the closed form by 6.3e-7, bd23 at [0.5, 0.1, 0.3, 0.1,
0, 0], which has no closed form, and iso-concurrence at theta =
1.5577053845612294 with p_1 = 0, overshot by 2.9e-9; then iso-concurrence
at the edge angles theta = 0.001 and 1.5697963267948966, where the oracle
search does not converge, and theta = 0.01, overshot by 5.0e-9),
malformed decomposition reports (among the last ones a separable block
whose Frobenius norm overflows a double, `separable_re_40_deep`, whose
`re` block is 1.0 inside 40 lists, and `input_note_600_deep`, whose input
carries an extra key holding lists nested 600 deep, which verify echoes),
raw 2x2 matrices with entries from 8e153 to 1e200 in the corners of
|00><11| and |11><00| (the `overflow` group: the norm, or the norm of the
skew part, overflows a double), and inputs nested deeper than the JSON
reader or numpy reaches (the `nesting` group: 100000 open brackets, and a
raw spec whose `re` is 1.0 inside 40 lists).
Each spec runs through `decompose` (plain, `--oracle` and `--format
text`), `separability`, `concurrence` and `oracle`; every report that
`decompose` writes is then run through `verify`, and `selftest` runs once.
The package is imported from the `src` directory next to this script, so
the output belongs to that checkout.

Each run prints one tab-separated line:

    <run id>  <exit code>  <sha256 of stdout>  <sha256 of stdout with the
    oracle's lambda_numeric and delta masked>  <sha256 of stdout with every
    number rounded to 1e-12>  <stderr>  <every number of stdout by field,
    compressed>

Rounding is absolute, and -0.0 counts as 0.0. A number's field is the
last key before it, so the entries of a report's `re` blocks share the
field `re`. A crash (an exception escaping `cli.main`) is recorded as exit
code 1, and each warning as a `warning (<Category>): <message>` line
appended to the stderr column. The output of two checkouts can be diffed
line by line, or summarized:

    python tools/cli_corpus.py > old.txt            # at the first checkout
    python tools/cli_corpus.py > new.txt            # at the second
    python tools/cli_corpus.py --compare old.txt new.txt

`--compare` exits 1 when a run is missing from one output or differs in
exit code, stdout or stderr, and 0 when every run is identical.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import copy
import hashlib
import io
import json
import math
import re
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lsdecomp import cli  # noqa: E402

COMMANDS = (
    ("decompose",),
    ("decompose", "--oracle"),
    ("decompose", "--format", "text"),
    ("separability",),
    ("concurrence",),
    ("oracle",),
)
ORACLE_NUMBERS = re.compile(r'("?(?:lambda_numeric|delta)"?:\s*)(?:null|[-+0-9.eEinfatyN]+)')
LABEL = re.compile(r"^error \([A-Za-z]+\): ")
# a key, in JSON ("key": ) or text (key: ) output, or a number outside a word
TOKEN = re.compile(r'"?([A-Za-z_]\w*)"?:|(?<![\w/.])(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')
ROUND = 12  # decimal places kept by the rounded digest
MULTI_ISO_SIZES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (2, 6), (3, 3), (4, 3), (8, 2))
SEED = 0  # of the random draws
PER_FAMILY = 40  # random draws of each family
SHOWN = 20  # changed runs listed per kind by --compare


# --------------------------------------------------------------------------
# the corpus

def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _nested(value, depth: int):
    """`value` inside `depth` lists."""
    for _ in range(depth):
        value = [value]
    return value


def _raw(rng: np.random.Generator, dims: tuple[int, int], rank: int) -> dict:
    """A random state of the given rank: G G^dag / tr for a Gaussian G."""
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T) / np.real(np.trace(m))
    return {"family": "raw", "dims": list(dims), "re": m.real.tolist(), "im": m.imag.tolist()}


def random_specs(rng: np.random.Generator, per_family: int) -> list[tuple[str, dict]]:
    """`per_family` draws of each family; half of each one-parameter family
    is drawn from its separable range and half from its entangled range,
    the others from Dirichlet weights at alpha 1 and 0.4."""
    out = []
    for i in range(per_family):
        alpha = 1.0 if i % 2 == 0 else 0.4
        entangled = i % 2 == 1
        d = 2 + i % 4
        out.append(("bd22", {"family": "bd22", "p": _floats(rng.dirichlet([alpha] * 4))}))
        out.append(("icd", {
            "family": "icd",
            "theta": float(rng.uniform(0.05, math.pi / 2 - 0.05)),
            "p": _floats(rng.dirichlet([alpha] * 4)),
        }))
        out.append(("bd23", {"family": "bd23", "p": _floats(rng.dirichlet([alpha] * 6))}))
        out.append(("werner", {
            "family": "werner", "d": d,
            "f": float(rng.uniform(-1.0, 0.0) if entangled else rng.uniform(0.0, 1.0)),
        }))
        out.append(("isotropic", {
            "family": "isotropic", "d": d,
            "F": float(rng.uniform(1.0 / d, 1.0) if entangled else rng.uniform(0.0, 1.0 / d)),
        }))
        out.append(("horodecki33", {
            "family": "horodecki33",
            "alpha": float(rng.uniform(3.0, 5.0) if entangled else rng.uniform(2.0, 3.0)),
        }))
        md, mn = MULTI_ISO_SIZES[i % len(MULTI_ISO_SIZES)]
        s0 = 1.0 / (1.0 + md ** (mn - 1))
        out.append(("multi_iso", {
            "family": "multi_iso", "d": md, "n": mn,
            "s": float(rng.uniform(s0, 1.0) if entangled else rng.uniform(0.0, s0)),
        }))
        out.append(("raw", _raw(rng, (2, 2), 1 + i % 4)))
    out.append(("raw23", _raw(rng, (2, 3), 6)))
    return out


def edge_specs() -> list[tuple[str, dict]]:
    """Near-threshold, rank-deficient and vertex states, and the largest
    Werner and isotropic sizes on either side of the d*d <= 64 limit."""
    out = []
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for sign in (1.0, -1.0):
            e = sign * eps
            out += [
                ("near", {"family": "bd22", "p": [0.5 + e] + [(0.5 - e) / 3.0] * 3}),
                ("near", {"family": "werner", "d": 3, "f": -e}),
                ("near", {"family": "isotropic", "d": 3, "F": 1.0 / 3.0 + e}),
                ("near", {"family": "horodecki33", "alpha": 3.0 + e}),
                ("near", {"family": "multi_iso", "d": 2, "n": 3, "s": 0.2 + e}),
            ]
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    for p in ([0.9, 0.1, 0, 0], [0.7, 0.3, 0, 0], [1, 0, 0, 0], [0.5, 0.5, 0, 0]):
        out.append(("rank", {"family": "bd22", "p": p}))
    for p in ([0.8, 0.2, 0, 0], [0, 0, 0.6, 0.4], [1, 0, 0, 0]):
        out.append(("rank", {"family": "icd", "theta": 0.3, "p": p}))
    for p in ([0.8, 0.2, 0, 0, 0, 0], [0.6, 0, 0.4, 0, 0, 0]):
        out.append(("rank", {"family": "bd23", "p": p}))
    for m in (bell, product):
        out.append(("rank", {"family": "raw", "dims": [2, 2], "re": m.tolist()}))
    out += [
        ("vertex", {"family": "werner", "d": 2, "f": -1.0}),
        ("vertex", {"family": "werner", "d": 4, "f": 1.0}),
        ("vertex", {"family": "isotropic", "d": 3, "F": 1.0}),
        ("vertex", {"family": "isotropic", "d": 2, "F": 0.0}),
        ("vertex", {"family": "horodecki33", "alpha": 2.0}),
        ("vertex", {"family": "horodecki33", "alpha": 5.0}),
        ("vertex", {"family": "multi_iso", "d": 2, "n": 2, "s": 1.0}),
        ("vertex", {"family": "multi_iso", "d": 4, "n": 3, "s": 0.0}),
        ("size", {"family": "werner", "d": 8, "f": -0.5}),
        ("size", {"family": "isotropic", "d": 8, "F": 0.5}),
        ("size", {"family": "werner", "d": 9, "f": -0.5}),
        ("size", {"family": "isotropic", "d": 9, "F": 0.5}),
        ("size", {"family": "werner", "d": 10, "f": 0.5}),
        ("size", {"family": "isotropic", "d": 10, "F": 0.05}),
    ]
    return out


def malformed_inputs() -> list[tuple[str, str]]:
    """Inputs, as the text given to --input, that no command accepts."""
    quarter = (np.eye(4) / 4).tolist()
    specs = [
        {"family": "nope"}, {"family": "BD22"}, {"family": 3}, {"p": [1, 0, 0, 0]},
        {"family": "bd22"}, {"family": "bd22", "p": "x"},
        {"family": "bd22", "p": [0.9, 0.9, 0.1, 0.1]},
        {"family": "bd22", "p": [1.2, -0.2, 0, 0]},
        {"family": "bd22", "p": [0.5, 0.5, 0.0]},
        {"family": "icd", "theta": 0.0, "p": [0.7, 0.1, 0.1, 0.1]},
        {"family": "icd", "theta": 2.0, "p": [0.7, 0.1, 0.1, 0.1]},
        {"family": "bd23", "p": [0.5, 0.5, 0, 0, 0, 0.1]},
        {"family": "werner", "d": 1, "f": 0.1},
        {"family": "werner", "d": 2.7, "f": -0.5},
        {"family": "werner", "d": True, "f": -0.5},
        {"family": "werner", "d": 3, "f": 2.0},
        {"family": "isotropic", "d": 3, "F": -0.5},
        {"family": "horodecki33", "alpha": 6},
        {"family": "multi_iso", "d": 2, "n": 1, "s": 0.5},
        {"family": "multi_iso", "d": 2, "n": 7, "s": 0.5},
        {"family": "multi_iso", "d": 2, "n": 10**10, "s": 0.5},
        {"family": "raw", "dims": [2, 2], "re": (-0.1 * np.eye(4)).tolist()},
        {"family": "raw", "dims": [2, 2], "re": (np.eye(4) / 2).tolist()},
        {"family": "raw", "dims": [2, 2], "re": np.triu(np.ones((4, 4)) / 4).tolist()},
        {"family": "raw", "dims": [2, 3], "re": quarter},
        {"family": "raw", "dims": [0, 4], "re": quarter},
        {"family": "raw", "dims": [2, 2], "re": [0.25, 0.25, 0.25, 0.25]},
        {"family": "raw", "dims": [2.5, 2], "re": quarter},
        {"family": "raw", "re": quarter},
        {"family": "raw", "dims": [2, 2, 2], "re": (np.eye(8) / 8).tolist()},
    ]
    texts = [json.dumps(s) for s in specs]
    texts.append('{"family": "raw", "dims": [2, 2], "re": [[NaN, 0, 0, 0], [0, 0.25, 0, 0], '
                 '[0, 0, 0.25, 0], [0, 0, 0, 0.25]]}')
    texts += ["{not json", "[1, 2]", '"x"']
    # text and booleans where numbers belong; appended last so that the run ids above stay put
    texts += [json.dumps(s) for s in (
        {"family": "werner", "d": "2", "f": "-0.5"},
        {"family": "werner", "d": 2, "f": True},
        {"family": "bd22", "p": [True, False, False, False]},
    )]
    for one in (True, "1"):  # |00><00| with its one entry a boolean or text
        product = np.zeros((4, 4)).tolist()
        product[0][0] = one
        texts.append(json.dumps({"family": "raw", "dims": [2, 2], "re": product}))
    return [("bad", t) for t in texts]


def near_pure_specs() -> list[tuple[str, dict]]:
    """Bell-type states with 1 - p_max from 1e-14 to 1e-7, and pure 2-qubit
    states under white noise, where 1 - p_max and 1 - k_1 C cancel."""
    out = []
    for gap in (1e-14, 1e-11, 1e-9, 1e-7):
        out += [
            ("nearpure", {"family": "bd22", "p": [1.0 - gap, 0.2 * gap, 0.3 * gap, 0.5 * gap]}),
            ("nearpure", {"family": "icd", "theta": 0.4,
                          "p": [0.2 * gap, 0.3 * gap, 1.0 - gap, 0.5 * gap]}),
            ("nearpure", {"family": "bd23", "p": [1.0 - gap] + _floats(
                gap * np.array([0.1, 0.2, 0.3, 0.1, 0.3]))}),
        ]
    out += [
        ("nearpure", {"family": "bd22", "p": [0.9999999999, 3e-11, 3e-11, 4e-11]}),
        ("nearpure", {"family": "bd23", "p": [0.9999999999, 1e-11, 2e-11, 3e-11, 1e-11, 3e-11]}),
        ("nearpure", {"family": "icd", "theta": 0.4114, "p": [
            1.36e-10, 1.64e-08, 0.9999997624731297, 2.2096262285195444e-07]}),
    ]
    psi = np.array([math.cos(0.5), 0.3, 0.0, math.sin(0.5)])
    psi /= np.linalg.norm(psi)
    for eps in (1e-5, 1e-3):
        m = (1.0 - eps) * np.outer(psi, psi) + eps * np.eye(4) / 4
        out.append(("nearpure", {"family": "raw", "dims": [2, 2], "re": m.tolist()}))
    return out


def malformed_reports(report: dict) -> list[tuple[str, object]]:
    """Damaged copies of a decomposition report that has an entangled block."""

    def edit(fn):
        rep = copy.deepcopy(report)
        fn(rep)
        return rep

    def huge_corners(rep):
        rep["separable"]["re"][0][3] = rep["separable"]["re"][3][0] = 1e200

    return [
        ("lambda_null", edit(lambda r: r.update({"lambda": None}))),
        ("lambda_text", edit(lambda r: r.update({"lambda": "abc"}))),
        ("lambda_list", edit(lambda r: r.update({"lambda": [0.5]}))),
        ("lambda_shifted", edit(lambda r: r.update({"lambda": r["lambda"] + 0.01}))),
        ("no_lambda", edit(lambda r: r.pop("lambda"))),
        ("bad_schema", edit(lambda r: r.update({"schema": "other/1"}))),
        ("separable_no_re", edit(lambda r: r["separable"].pop("re"))),
        ("separable_no_dims", edit(lambda r: r["separable"].pop("dims"))),
        ("separable_dims_null", edit(lambda r: r["separable"].update({"dims": [None, 2]}))),
        ("separable_dims_text", edit(lambda r: r["separable"].update({"dims": ["a", 2]}))),
        ("separable_dims_fraction", edit(lambda r: r["separable"].update({"dims": [2.7, 2]}))),
        ("separable_text", edit(lambda r: r.update({"separable": "x"}))),
        ("separable_small", edit(lambda r: r["separable"].update(
            {"re": (np.eye(2) / 2).tolist(), "im": np.zeros((2, 2)).tolist(), "dims": [2]}))),
        ("entangled_no_im", edit(lambda r: r["entangled"].pop("im"))),
        ("entangled_text", edit(lambda r: r.update({"entangled": "x"}))),
        ("entangled_shape", edit(lambda r: r["entangled"].update(
            {"re": np.zeros((2, 2)).tolist(), "im": np.zeros((2, 2)).tolist()}))),
        ("input_unknown", edit(lambda r: r.update({"input": {"family": "nope"}}))),
        ("string", "a report"),
        ("string_with_keys", "schema, input, lambda, separable"),
        ("list", [report]),
        ("lambda_numeric_text", edit(lambda r: r.update({"lambda": str(r["lambda"])}))),
        ("lambda_bool", edit(lambda r: r.update({"lambda": True}))),
        ("separable_re_text", edit(lambda r: r["separable"].update(
            {"re": [[str(v) for v in row] for row in r["separable"]["re"]]}))),
        ("entangled_im_bool", edit(lambda r: r["entangled"]["im"][0].__setitem__(0, False))),
        # non-finite numbers, written as NaN and Infinity, which json.loads reads
        ("lambda_nan", edit(lambda r: r.update({"lambda": math.nan}))),
        ("lambda_inf", edit(lambda r: r.update({"lambda": math.inf}))),
        ("entangled_re_nan", edit(lambda r: r["entangled"]["re"][1].__setitem__(2, math.nan))),
        ("input_extra_nan", edit(lambda r: r["input"].update({"note": math.nan}))),
        ("lambda_huge", edit(lambda r: r.update({"lambda": 10**400}))),
        # finite numbers whose checks overflow
        ("entangled_re_1e200", edit(lambda r: r["entangled"]["re"][0].__setitem__(0, 1e200))),
        ("lambda_1e308", edit(lambda r: r.update({"lambda": 1e308}))),
        # an `im` block of another shape than its `re` block
        ("entangled_im_1x1", edit(lambda r: r["entangled"].update({"im": [[0.0]]}))),
        ("separable_im_row", edit(lambda r: r["separable"].update({"im": [[0.0] * 4]}))),
        ("entangled_re_1x1", edit(lambda r: r["entangled"].update({"re": [[0.0]]}))),
        # a separable block whose Frobenius norm overflows
        ("separable_corners_1e200", edit(huge_corners)),
        # nesting beyond numpy's flat iterator, and beyond the report writer's recursion
        ("separable_re_40_deep", edit(lambda r: r["separable"].update({"re": _nested(1.0, 40)}))),
        ("input_note_600_deep", edit(lambda r: r["input"].update({"note": _nested([], 599)}))),
    ]


# --------------------------------------------------------------------------
# running

def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a result too
            code = 1
            err.write(f"crash ({type(exc).__name__}): {exc}\n")
    for w in caught:
        err.write(f"warning ({w.category.__name__}): {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rounded(match: re.Match) -> str:
    if match.group(2) is None:
        return match.group(0)
    return repr(round(float(match.group(2)), ROUND) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _by_field(out: str) -> dict[str, list[float]]:
    """Every number in `out`, in order, under the last key before it."""
    fields: dict[str, list[float]] = {}
    key = "-"
    for match in TOKEN.finditer(out):
        if match.group(1) is not None:
            key = match.group(1)
        else:
            fields.setdefault(key, []).append(float(match.group(2)))
    return fields


def line(run_id: str, code: int, out: str, err: str) -> str:
    masked = ORACLE_NUMBERS.sub(lambda m: m.group(1) + "*", out)
    rounded = TOKEN.sub(_rounded, out)
    stderr = err.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")
    packed = base64.b85encode(zlib.compress(json.dumps(_by_field(out)).encode())).decode()
    return "\t".join((run_id, str(code), _sha(out), _sha(masked), _sha(rounded), stderr, packed))


def run_corpus() -> None:
    rng = np.random.default_rng(SEED)
    inputs = [(g, json.dumps(s)) for g, s in random_specs(rng, PER_FAMILY) + edge_specs()]
    inputs += malformed_inputs()
    inputs += [(g, json.dumps(s)) for g, s in near_pure_specs()]  # after, so the ids above stay put
    # |0><0| (x) I/2 has no spin-flip weight; |00><00| and a Bell state are in edge_specs
    flip_free = np.diag([0.5, 0.5, 0.0, 0.0]).tolist()
    inputs.append(("rank", json.dumps({"family": "raw", "dims": [2, 2], "re": flip_free})))
    # integers beyond float range, in a spec field, a probability and a raw entry
    huge = 10**400
    quarter = (np.eye(4) / 4).tolist()
    quarter[1][2] = huge
    inputs += [("bad", json.dumps(spec)) for spec in (
        {"family": "werner", "d": 2, "f": huge},
        {"family": "bd22", "p": [huge, 0, 0, 0]},
        {"family": "raw", "dims": [2, 2], "re": quarter},
    )]
    # 0.6|Phi+><Phi+| + 0.4|01><01| has one spin-flip weight
    one_flip = np.diag([0.3, 0.4, 0.0, 0.3])
    one_flip[0, 3] = one_flip[3, 0] = 0.3
    inputs.append(("rank", json.dumps({"family": "raw", "dims": [2, 2], "re": one_flip.tolist()})))
    # (1 - eps)|psi><psi| + eps I/4 with psi the second and fourth complex
    # Gaussian draws of default_rng(29): lam is about eps, and dividing the
    # separable part by it leaves a PPT margin of rounding far below -1e-9
    draws = np.random.default_rng(29).normal(size=(4, 2, 4))
    for k, eps in ((1, 1e-9), (1, 1e-10), (3, 1e-9)):
        psi = draws[k, 0] + 1j * draws[k, 1]
        psi /= np.linalg.norm(psi)
        m = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(4) / 4
        inputs.append(("nearpure", json.dumps(
            {"family": "raw", "dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()})))
    # 0.5|Phi+><Phi+| + 0.2|Phi-><Phi-| + 0.3|01><01|: rank 3, with a support
    # vector of no spin-flip weight; its optimal split reaches 1 - C = 0.7
    rank3 = np.diag([0.35, 0.3, 0.0, 0.35])
    rank3[0, 3] = rank3[3, 0] = 0.15
    inputs.append(("rank", json.dumps({"family": "raw", "dims": [2, 2], "re": rank3.tolist()})))
    # 1e-12 past a one-parameter family's entangled end: the range checks
    # accept it, and the state is built at that end
    inputs += [("pastend", json.dumps(spec)) for spec in (
        {"family": "werner", "d": 2, "f": -1.0 - 1e-12},
        {"family": "werner", "d": 8, "f": -1.0 - 1e-12},
        {"family": "isotropic", "d": 2, "F": 1.0 + 1e-12},
        {"family": "isotropic", "d": 8, "F": 1.0 + 1e-12},
        {"family": "multi_iso", "d": 2, "n": 3, "s": 1.0 + 1e-12},
        {"family": "multi_iso", "d": 2, "n": 6, "s": 1.0 + 1e-12},
        {"family": "horodecki33", "alpha": 5.0 + 1e-12},
    )]
    # one-parameter sizes the draws above miss
    inputs += [("line", json.dumps(spec)) for spec in (
        {"family": "werner", "d": 6, "f": -0.3},
        {"family": "werner", "d": 7, "f": -0.3},
        {"family": "isotropic", "d": 6, "F": 0.6},
        {"family": "isotropic", "d": 7, "F": 0.6},
        {"family": "multi_iso", "d": 5, "n": 2, "s": 0.6},
        {"family": "multi_iso", "d": 6, "n": 2, "s": 0.6},
        {"family": "multi_iso", "d": 7, "n": 2, "s": 0.6},
    )]
    # each one-parameter family exactly at its threshold, and the 3x3 alpha
    # state on either side of its bound entangled band's upper end
    inputs += [("threshold", json.dumps(spec)) for spec in (
        *({"family": "werner", "d": d, "f": f} for d in (2, 3) for f in (-0.0, 0.0)),
        *({"family": "isotropic", "d": d, "F": 1.0 / d} for d in range(2, 9)),
        *({"family": "horodecki33", "alpha": a} for a in (3.0, 4.0, math.nextafter(4.0, 5.0))),
        *({"family": "multi_iso", "d": d, "n": n, "s": 1.0 / (1.0 + d ** (n - 1))}
          for d in range(2, 9) for n in range(2, 7) if d**n <= 64),
    )]
    # multipartite isotropic sizes and weights outside their ranges
    inputs += [("bad", json.dumps(spec)) for spec in (
        {"family": "multi_iso", "d": 1, "n": 3, "s": 0.5},
        {"family": "multi_iso", "d": 2, "n": 3, "s": 1.5},
        {"family": "multi_iso", "d": 2, "n": 3, "s": -0.5},
    )]
    # iso-concurrence angles on either side of the smallest one whose
    # sin^2(2 theta) is a normal double, about 7.46e-155
    inputs += [("tinytheta", json.dumps({"family": "icd", "theta": theta,
                                         "p": [0.7, 0.1, 0.1, 0.1]}))
               for theta in (5e-324, 1e-300, 1e-163, 1e-161, 1e-156, 7.5e-155, 1e-154)]
    # states whose family optimum puts a region block near singular: the
    # oracle's EPS shift overshoots the closed form there, or the closed
    # form is not available
    inputs += [("f3", json.dumps(spec)) for spec in (
        {"family": "bd23", "p": [0.8, 0.0, 0.1, 0.1, 0.0, 0.0]},
        {"family": "bd23", "p": [0.5, 0.1, 0.3, 0.1, 0.0, 0.0]},
        {"family": "icd", "theta": 1.5577053845612294,
         "p": [0.0, 0.11459899488910194, 0.15087455547844814, 0.73452644963245]},
    )]
    # iso-concurrence near the angles 0 and pi/2, where the oracle search
    # does not converge (the first two) or overshoots by 5.0e-9
    inputs += [("f3", json.dumps({"family": "icd", "theta": theta, "p": p})) for theta, p in (
        (0.001, [0.2, 0.0, 0.05, 0.75]),
        (1.5697963267948966, [0.0001, 0.6365, 0.0, 0.3634]),
        (0.01, [0.2, 0.0, 0.05, 0.75]),
    )]
    # a raw matrix whose `im` part has another shape than its `re` part
    inputs.append(("bad", json.dumps({"family": "raw", "dims": [2, 2],
                                      "re": (np.eye(4) / 4).tolist(), "im": [[0.0]]})))
    # raw matrices whose norm overflows a double, or whose skew part's norm does
    for x, y in ((1e200, 1e200), (1e200, -1e200), (1e160, 1e160), (8e153, -8e153)):
        corners = np.diag([0.5, 0.0, 0.0, 0.5])
        corners[0, 3], corners[3, 0] = x, y
        inputs.append(("overflow", json.dumps({"family": "raw", "dims": [2, 2],
                                               "re": corners.tolist()})))
    # nesting deeper than the JSON reader recurses, and than numpy's flat
    # iterator reaches (32 dimensions)
    inputs += [("nesting", "[" * 100000),
               ("nesting", json.dumps({"family": "raw", "dims": [2, 2], "re": _nested(1.0, 40)}))]
    for i, (group, text) in enumerate(inputs):
        for cmd in COMMANDS:
            code, out, err = run([*cmd, "--input", text])
            print(line(f"{group}:{i} {' '.join(cmd)}", code, out, err))
            if cmd == ("decompose",) and code == 0:
                code, vout, verr = run(["verify", "--input", out])
                print(line(f"{group}:{i} verify", code, vout, verr))
    _, base, _ = run(["decompose", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'])
    for name, rep in malformed_reports(json.loads(base)):
        code, out, err = run(["verify", "--input", json.dumps(rep)])
        print(line(f"report:{name} verify", code, out, err))
    print(line("selftest", *run(["selftest"])))


# --------------------------------------------------------------------------
# comparing two outputs

def _read(path: str) -> dict[str, list[str]]:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for text in fh:
            fields = text.rstrip("\n").split("\t")
            rows[fields[0]] = fields[1:]
    return rows


def _field_changes(old: str, new: str) -> dict[str, float]:
    """The largest change of each field whose numbers changed between two
    packed number columns; inf where a field's count changed."""
    a, b = (json.loads(zlib.decompress(base64.b85decode(p))) for p in (old, new))
    out = {}
    for key in a.keys() | b.keys():
        x, y = a.get(key, []), b.get(key, [])
        change = math.inf if len(x) != len(y) else float(np.abs(np.subtract(x, y)).max(initial=0.0))
        if change:
            out[key] = change
    return out


def _changes_text(changes: dict[str, float]) -> str:
    return ", ".join(f"{key} {change:.3g}" for key, change in sorted(
        changes.items(), key=lambda kv: (-kv[1], kv[0])))


def compare(old_path: str, new_path: str) -> int:
    """Count the runs by what changed between two outputs of this script,
    and list the runs whose exit code changed or whose output changed by
    more than the rounding of its numbers, with each field's largest change.
    Return 0 when every run is in both outputs with the same exit code,
    stdout and stderr, else 1."""
    old, new = _read(old_path), _read(new_path)
    counts = {"runs": 0, "identical": 0, "oracle numbers only": 0,
              f"numbers below 1e-{ROUND} only": 0, "stderr label only": 0}
    exits: dict[str, list[str]] = {}
    other = []
    worst = 0.0
    small: dict[str, float] = {}  # field -> largest change, over the runs below the rounding
    for run_id in sorted(old.keys() | new.keys()):
        if run_id not in old or run_id not in new:
            other.append(f"{run_id}: only in {'new' if run_id in new else 'old'}")
            continue
        counts["runs"] += 1
        (c0, h0, m0, r0, e0, p0), (c1, h1, m1, r1, e1, p1) = old[run_id], new[run_id]
        if (c0, h0, e0) == (c1, h1, e1):
            counts["identical"] += 1
            continue
        if c0 != c1:
            exits.setdefault(f"{c0} -> {c1}", []).append(run_id)
            continue
        if h0 != h1 and m0 == m1:
            counts["oracle numbers only"] += 1
            worst = max([worst, *_field_changes(p0, p1).values()])
        elif h0 != h1 and r0 == r1:
            counts[f"numbers below 1e-{ROUND} only"] += 1
            for key, change in _field_changes(p0, p1).items():
                small[key] = max(small.get(key, 0.0), change)
        elif h0 != h1:
            other.append(f"{run_id}: stdout changed: {_changes_text(_field_changes(p0, p1))}")
        if e0 != e1:
            if LABEL.sub("", e0) == LABEL.sub("", e1):
                counts["stderr label only"] += 1
            else:
                other.append(f"{run_id}: stderr {e0!r} -> {e1!r}")
    for key, value in counts.items():
        print(f"{key}: {value}")
    print(f"largest oracle number change: {worst:.3g}")
    print(f"largest change per field below 1e-{ROUND}: {_changes_text(small) or '-'}")
    for key, ids in sorted(exits.items()):
        print(f"exit {key}: {len(ids)}")
        for run_id in ids[:SHOWN]:
            print(f"  {run_id}")
    print(f"other changes: {len(other)}")
    for text in other[:SHOWN]:
        print(f"  {text}")
    return 0 if counts["identical"] == len(old.keys() | new.keys()) else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="summarize the changes between two outputs instead")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    run_corpus()


if __name__ == "__main__":
    main()
