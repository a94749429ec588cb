"""The golden corpus: input documents, the calls made on them, and their reports.

inputs.json holds every input document, by name: the baseline parametric
laws, the laws of the near-tie crossing failure, and explicit pmfs. Most
explicit pmfs were drawn once with perfbench's ``random_weights`` (numpy
``default_rng(22)``, nine sizes from 2 to 120 atoms per structural class);
the rest are written out by hand: interior zeros, a Dirac mass, equal masses,
a far offset, masses whose squares underflow, and the matching failures.
They are stored, not generated, so a change to a generator cannot move them.
The large explicit pmfs (5,000 to 70,001 atoms) are stated by a formula
instead, perfbench's log-weights ``log w_i = -a i - c i**2``, which
``load_inputs`` expands (see ``expand``); one of them has the weights of
geometric 0.999 (``a = -log 0.999``, ``c = 0``), so that explicit weights
equal to a parametric law's are in the corpus too.

A call is one ``lclc.cli.run`` (every subcommand, in CSV and in JSON) or one
library certificate the CLI does not reach (``convex_order_check`` and
``fold_symmetric``). Its report is its exit code, its stdout, its stderr and
the warnings it raised. ``reports/<group>.json`` maps each call's key to its
report, one group per subcommand plus ``library``.

Run ``python tests/golden/corpus.py`` to rewrite the reports from the code
in ``src/``. Rewriting them is a logged act: it goes with the output of
``diff.py`` in CHANGES.md, and never makes a changed verdict pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from lclc import cli, lattice, majorization, matching  # noqa: E402
from lclc.report import FAIL, PASS, CheckReport  # noqa: E402

INPUTS = HERE / "inputs.json"
REPORTS = HERE / "reports"
FORMATS = ("csv", "json")
PMF_COMMANDS = ("verify", "entropy", "varentropy", "phi", "crossing", "match",
                "concentration", "epi")
# the matching failures at extreme orders (ROADMAP item 12)
EXTRA_PMF_CALLS = (("three_masses", "verify", {"p": 0.01}),
                   ("three_masses", "match", {"p": 0.01}),
                   ("geometric_0.999", "verify", {"p": 1e4}))
NO_PMF_CALLS = (("constants", {"which": "vs"}),
                ("constants", {"which": "gap", "p": 2.0, "q": 1.0}),
                ("constants", {"which": "c", "p": 2.0, "q": 1.0}),
                ("counterexample", {}),
                ("counterexample", {"lam": 0.5, "gamma": 2.0}))
# the matched orders of the convex-order certificates: p = 2 compares the
# level counts, p = 3 their power transforms U**2
CONVEX_ORDERS = (2.0, 3.0)


def load_inputs() -> dict[str, dict]:
    with open(INPUTS, encoding="utf-8") as fh:
        return {name: expand(doc) for name, doc in json.load(fh).items()}


def expand(doc: dict) -> dict:
    """The input document a stored one states. A document with log_weights
    {shape, atoms, a, c} stands for the explicit pmf whose weights are
    exp(-a i - c i**2): over i = 0, ..., atoms - 1 for a decreasing shape,
    the same reversed for an increasing one, and over i = |j - (atoms - 1) / 2|
    for a symmetric one of odd atoms. Any other document is itself."""
    if "log_weights" not in doc:
        return doc
    spec = doc["log_weights"]
    i = np.arange(spec["atoms"], dtype=np.float64)
    if spec["shape"] == "symmetric":
        i = np.abs(i - (spec["atoms"] - 1) // 2)
    weights = np.exp(-spec["a"] * i - spec["c"] * i**2)
    if spec["shape"] == "increasing":
        weights = weights[::-1]
    return {"offset": doc["offset"], "weights": weights.tolist()}


def _key(*parts) -> str:
    return " ".join(str(p) for p in parts if p)


def _flags(params: dict) -> str:
    return " ".join(f"--{k} {v!r}" for k, v in params.items())


def _captured(fn) -> dict:
    """Exit code, stdout, stderr and warnings of fn(stdout), which returns
    the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = fn(out)
    report = {"exit": code, "out": out.getvalue(), "err": err.getvalue()}
    if caught:
        report["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return report


def _cli_call(command: str, params: dict, fmt: str, doc: dict | None, workdir: Path):
    def fn(out):
        parameters = dict(params)
        input_path = None
        if doc is not None and "law" in doc:
            parameters.update(law=doc["law"], lam=doc["lambda"])
        elif doc is not None:
            input_path = workdir / "input.json"
            input_path.write_text(json.dumps(doc), encoding="utf-8")
        config = cli.RunConfig(command, input_path=input_path and str(input_path),
                               parameters=parameters, output_format=fmt)
        return cli.run(config, out)
    return fn


def _report_call(make_report, fmt: str):
    """A library call written as the CLI writes its rows: exit 0 on pass,
    1 on fail, 2 with the error on stderr when it raises."""
    def fn(out):
        try:
            report = make_report()
        except Exception as exc:  # the corpus records a raise as its report
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        cli._emit([report], cli.RunConfig("library", output_format=fmt), out)
        return 1 if report.verdict == FAIL else 0
    return fn


def _convex_order(doc: dict, p: float):
    def make_report():
        x = lattice.pmf_from_json(doc)
        lam = matching.match_geometric(x, p).lam
        z = lattice.materialize(lattice.ParametricLaw.geometric(lam))
        u, v = majorization.level_count(x), majorization.level_count(z)
        if p != 2.0:
            u = majorization.power_transform_density(u, p - 1.0)
            v = majorization.power_transform_density(v, p - 1.0)
        return majorization.convex_order_check(u, v)
    return make_report


def _fold(doc: dict):
    def make_report():
        fold = majorization.fold_symmetric(lattice.pmf_from_json(doc))
        verdict = PASS if fold.max_violation == 0 else FAIL
        return CheckReport("fold_symmetric", fold.center_mass, 0.0,
                           -float(fold.max_violation), verdict,
                           {"full_levels": int(fold.full.breakpoints.size),
                            "half_levels": int(fold.half.breakpoints.size)})
    return make_report


def _monotone_names(inputs: dict[str, dict]) -> list[str]:
    return ([n for n in inputs if n.startswith(("decreasing_", "increasing_"))]
            + ["geometric_0.99", "deep_geometric"])


def _symmetric_names(inputs: dict[str, dict]) -> list[str]:
    return ([n for n in inputs if n.startswith("integer_symmetric_")]
            + ["symmetric_geometric_0.999", "far_offset", "interior_zero_symmetric",
               "dirac", "equal_masses"])


def calls(inputs: dict[str, dict], workdir: Path):
    """(group, key, fn) for every call of the corpus, in a fixed order. The
    format alternates over the inputs and the subcommands, so every
    subcommand and every input is written in both."""
    pmf_calls = [(name, cmd, {}) for name in inputs for cmd in PMF_COMMANDS]
    no_pmf_calls = [(None, cmd, params) for cmd, params in NO_PMF_CALLS]
    for i, (name, cmd, params) in enumerate(pmf_calls + list(EXTRA_PMF_CALLS) + no_pmf_calls):
        fmt = FORMATS[(i + i // len(PMF_COMMANDS)) % 2]
        doc = inputs[name] if name else None
        yield cmd, _key(name, cmd, _flags(params), fmt), _cli_call(cmd, params, fmt, doc, workdir)
    library = ([(name, "convex_order", p) for name in _monotone_names(inputs)
                for p in CONVEX_ORDERS]
               + [(name, "fold_symmetric", None) for name in _symmetric_names(inputs)])
    for i, (name, kind, p) in enumerate(library):
        fmt = FORMATS[(i + i // len(CONVEX_ORDERS)) % 2]
        if p is None:
            make_report, key = _fold(inputs[name]), _key(name, kind, fmt)
        else:
            make_report, key = _convex_order(inputs[name], p), _key(name, kind, f"p={p!r}", fmt)
        yield "library", key, _report_call(make_report, fmt)


def run_all() -> dict[str, dict[str, dict]]:
    """Every call's report, by group and key, from the code in src/."""
    groups: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group, key, fn in calls(load_inputs(), Path(tmp)):
            groups.setdefault(group, {})[key] = _captured(fn)
    return groups


def rows(report: dict, fmt: str) -> list[dict]:
    """The rows a report wrote, as the JSON format writes them; a number
    cell of the CSV format is read as a float, an empty one as None."""
    if fmt == "json":
        return json.loads(report["out"]) if report["out"] else []
    lines = list(csv.reader(io.StringIO(report["out"])))
    return [{"check_name": name, "lhs": _cell(lhs), "rhs": _cell(rhs),
             "margin": _cell(margin), "verdict": verdict, "params": json.loads(params)}
            for name, lhs, rhs, margin, verdict, params in lines[1:]]


def _cell(text: str) -> float | None:
    return float(text) if text else None


def load_reports() -> dict[str, dict[str, dict]]:
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(REPORTS.glob("*.json"))}


def write_reports(groups: dict[str, dict[str, dict]]) -> None:
    """One file per group, one call per line, in key order."""
    REPORTS.mkdir(exist_ok=True)
    for group, reports in groups.items():
        lines = [f"{json.dumps(key)}: {json.dumps(reports[key], sort_keys=True)}"
                 for key in sorted(reports)]
        (REPORTS / f"{group}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                               encoding="utf-8")


if __name__ == "__main__":
    write_reports(run_all())
