import contextlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lclc import inequalities, lyapunov, matching
from lclc.cli import (DEFAULT_T_GRID, FLAGS, VIEWS, RunConfig, classify,
                      main, run)
from lclc.errors import NoBracketError, UnclassifiedError
from lclc.lattice import Direction, materialize, normalize, ParametricLaw, pmf_from_json
from support import random_monotone_log_concave, random_symmetric_log_concave


def _run(argv, tmp_path=None):
    """Invoke the CLI via main() and capture stdout through --out."""
    out = tmp_path / "rows.csv" if tmp_path else None
    if out is not None:
        argv = argv + ["--out", str(out)]
    code = main(argv)
    text = out.read_text() if out is not None else ""
    return code, text


def _write_dist(tmp_path, doc, name="dist.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_geometric(self):
        c = classify(materialize(ParametricLaw.geometric(0.5)))
        assert c.log_concave and c.direction is Direction.DECREASING
        assert c.symmetry is None

    def test_fair_coin(self):
        c = classify(normalize([1, 1]))
        assert c.log_concave and c.direction is Direction.BOTH
        assert c.symmetry == 0.5 and c.half_integer_symmetric

    def test_symmetric_peak(self):
        c = classify(normalize([2, 6, 2], -1))
        assert c.log_concave and c.direction is Direction.NEITHER
        assert c.integer_symmetric and c.symmetry == 0.0


class TestVerifyCommand:
    def test_geometric_law_passes(self, tmp_path):
        path = _write_dist(tmp_path, {"law": "geometric", "lambda": 0.5})
        code, text = _run(["verify", "--input", path], tmp_path)
        assert code == 0
        header = text.splitlines()[0]
        assert header == "check_name,lhs,rhs,margin,verdict,params"
        assert "fail" not in text

    def test_weights_file_with_symmetric_peak(self, tmp_path):
        path = _write_dist(tmp_path, {"offset": -1, "weights": [0.2, 0.6, 0.2]})
        code, text = _run(["verify", "--input", path], tmp_path)
        assert code == 0
        assert "renyi_dominance" in text
        assert "n/a" in text  # monotone-only checks skipped, not failed

    def test_non_log_concave_input_skips_structural_checks(self, tmp_path):
        doc = {"offset": 0, "weights": [0.5] + [0.0625] * 8}
        path = _write_dist(tmp_path, doc)
        code, text = _run(["verify", "--input", path], tmp_path)
        assert code == 0
        for name in ("renyi_gap", "epi_reversal", "varentropy_bound"):
            assert any(line.startswith(name) and ",n/a," in line
                       for line in text.splitlines()), name

    def test_genuine_violation_exits_one(self, tmp_path):
        # monotone but far from log-concave: the difference law genuinely
        # violates the entropy-power reversal at order infinity, which must
        # surface as a failing row and exit code 1
        doc = {"offset": 0, "weights": [0.3] + [0.7 / 64] * 64}
        path = _write_dist(tmp_path, doc)
        code, text = _run(["epi", "--input", path, "--alpha", "inf"], tmp_path)
        assert code == 1
        assert any(line.startswith("epi_reversal") and ",fail," in line
                   for line in text.splitlines())

    def test_law_flags_instead_of_file(self, tmp_path):
        code, _ = _run(["verify", "--law", "geometric", "--lambda", "0.5"],
                       tmp_path)
        assert code == 0

    def test_deterministic_output(self, tmp_path):
        path = _write_dist(tmp_path, {"law": "symmetric_geometric", "lambda": 0.4})
        _, first = _run(["verify", "--input", path], tmp_path)
        _, second = _run(["verify", "--input", path], tmp_path)
        assert first == second


class TestOtherCommands:
    def test_constants_vs(self, tmp_path):
        code, text = _run(["constants", "--which", "vs"], tmp_path)
        assert code == 0
        row = text.splitlines()[2]
        assert row.startswith("V_S,")
        assert float(row.split(",")[1]) == pytest.approx(1.16923, abs=1e-3)

    def test_constants_gap_requires_orders(self, tmp_path, capsys):
        assert main(["constants", "--which", "gap"]) == 2
        code, text = _run(["constants", "--which", "gap", "--p", "inf",
                           "--q", "1"], tmp_path)
        assert code == 0
        assert float(text.splitlines()[1].split(",")[1]) == pytest.approx(-1.0)

    def test_counterexample(self, tmp_path):
        code, text = _run(["counterexample", "--lambda", "0.1", "--gamma", "1"],
                          tmp_path)
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(4.8)
        assert float(row[2]) == pytest.approx(7.32)
        assert row[4] == "violated"

    def test_entropy_summary_and_order(self, tmp_path):
        path = _write_dist(tmp_path, {"law": "geometric", "lambda": 0.5})
        code, text = _run(["entropy", "--input", path], tmp_path)
        assert code == 0 and "shannon_entropy" in text
        code, text = _run(["entropy", "--input", path, "--p", "2"], tmp_path)
        value = float(text.splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.log(3.0), abs=1e-9)

    def test_phi_and_epi_and_match(self, tmp_path):
        path = _write_dist(tmp_path, {"law": "geometric", "lambda": 0.5})
        for argv in (["phi", "--input", path, "--t-grid", "0.5,1,2"],
                     ["epi", "--input", path, "--alpha", "2"],
                     ["match", "--input", path, "--p", "3"],
                     ["crossing", "--input", path, "--p", "2"],
                     ["concentration", "--input", path, "--t-grid", "0.5,1"]):
            code, text = _run(argv, tmp_path)
            assert code == 0, (argv, text)

    def test_varentropy_command(self, tmp_path):
        path = _write_dist(tmp_path, {"offset": 0, "weights": [1, 1, 1, 1]})
        code, text = _run(["varentropy", "--input", path], tmp_path)
        assert code == 0
        assert float(text.splitlines()[1].split(",")[1]) == 0.0

    def test_json_format(self, tmp_path):
        path = _write_dist(tmp_path, {"law": "geometric", "lambda": 0.5})
        out = tmp_path / "rows.json"
        code = main(["entropy", "--input", path, "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert {row["check_name"] for row in rows} == {
            "shannon_entropy", "min_entropy", "varentropy"}


_GOOD = {"offset": 0, "weights": [0.6, 0.3, 0.1]}  # monotone log-concave

# (id, command, JSON document or None, extra argv, RunConfig parameters):
# inputs outside the accepted formats, each of which must exit 2
MALFORMED = [
    ("empty_weights", "verify", {"offset": 0, "weights": []}, [], {}),
    ("non_numeric_weights", "verify", {"offset": 0, "weights": ["a", 0.5]}, [], {}),
    ("nan_weights", "verify", {"offset": 0, "weights": [0.5, math.nan]}, [], {}),
    ("top_level_array", "verify", [0.5, 0.5], [], {}),
    ("law_without_lambda", "verify", {"law": "geometric"}, [], {}),
    ("fractional_offset", "verify", {"offset": 1.5, "weights": [0.5, 0.3, 0.2]}, [], {}),
    ("negative_t_grid", "phi", _GOOD, ["--t-grid", "-1"], {"t_grid": (-1.0,)}),
    ("negative_t_grid_concentration", "concentration", _GOOD, ["--t-grid", "-1"],
     {"t_grid": (-1.0,)}),
    ("empty_t_grid", "phi", _GOOD, ["--t-grid", ","], {"t_grid": ()}),
    ("negative_counterexample_lambda", "counterexample", None, ["--lambda", "-1"],
     {"lam": -1.0}),
    ("varentropy_law_without_lambda", "varentropy", None, ["--law", "geometric"],
     {"law": "geometric"}),
]

_LAW_ARGV = ["--law", "geometric", "--lambda", "0.5"]
_LAW_PARAMS = {"law": "geometric", "lam": 0.5}

MALFORMED += [
    ("boolean_weights", "verify", {"offset": 0, "weights": [True, False]}, [], {}),
    ("support_above_limit", "verify", None, ["--law", "geometric", "--lambda", "0.999999"],
     {"law": "geometric", "lam": 0.999999}),
    ("text_lambda", "verify", {"law": "geometric", "lambda": "abc"}, [], {}),
    ("list_lambda", "verify", {"law": "geometric", "lambda": [0.5]}, [], {}),
    ("null_lambda", "verify", {"law": "geometric", "lambda": None}, [], {}),
    ("null_offset", "verify", {"offset": None, "weights": [0.5, 0.5]}, [], {}),
    ("text_offset", "verify", {"offset": "3", "weights": [0.5, 0.5]}, [], {}),
    ("infinite_offset", "verify", {"offset": 1e400, "weights": [0.5, 0.5]}, [], {}),
]

# an offset whose float overflows: the symmetry center and the mean are floats
for _command in ("verify", "entropy"):
    MALFORMED.append((f"{_command}_offset_beyond_float", _command,
                      {"offset": 10**400, "weights": [0.2, 0.6, 0.2]}, [], {}))

# counterexample needs finite --lambda and --gamma whose comparison does
# not overflow
for _flag, _key in (("--lambda", "lam"), ("--gamma", "gamma")):
    for _text in ("1e200", "inf"):
        MALFORMED.append((f"counterexample_{_key}_{_text}", "counterexample", None,
                          [_flag, _text], {_key: float(_text)}))

# a zero the user passes is used, never replaced by the flag's default, so
# each of these is refused downstream
for _command, _flag, _key in (("verify", "--p", "p"), ("verify", "--q", "q"),
                              ("verify", "--alpha", "alpha"),
                              ("verify", "--tail-tol", "tail_tol"),
                              ("crossing", "--p", "p"), ("match", "--p", "p"),
                              ("epi", "--alpha", "alpha")):
    MALFORMED.append((f"{_command}_{_key}_zero", _command, None,
                      _LAW_ARGV + [_flag, "0"], {**_LAW_PARAMS, _key: 0.0}))

# a flag the subcommand does not read, or a RunConfig parameter or input
# path it does not read, is refused rather than ignored
MALFORMED += [
    ("verify_gamma", "verify", None, _LAW_ARGV + ["--gamma", "1"],
     {**_LAW_PARAMS, "gamma": 1.0}),
    ("constants_input", "constants", _GOOD, [], {}),
    ("counterexample_tail_tol", "counterexample", None, ["--tail-tol", "5"],
     {"tail_tol": 5.0}),
    ("epi_p", "epi", None, _LAW_ARGV + ["--p", "2"], {**_LAW_PARAMS, "p": 2.0}),
]

# argv that argparse itself refuses: a value that does not parse or a
# bad choice; main returns 2 like any other bad input
UNPARSABLE = [
    ["entropy"] + _LAW_ARGV + ["--p", "abc"],
    ["verify", "--law", "poisson", "--lambda", "0.5"],
    ["verify"] + _LAW_ARGV + ["--format", "xml"],
    ["phi"] + _LAW_ARGV + ["--t-grid", "abc"],
]

# a single-check subcommand refuses an order its check does not cover
for _command, _flag, _text, _value in (("match", "--p", "1", 1.0),
                                       ("crossing", "--p", "inf", math.inf),
                                       ("epi", "--alpha", "1", 1.0)):
    MALFORMED.append((f"{_command}_{_flag[2:]}_{_text}", _command, None,
                      _LAW_ARGV + [_flag, _text],
                      {**_LAW_PARAMS, _flag[2:]: _value}))


def _assert_usage_error(code, capsys):
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.endswith("\n") and err.count("\n") == 1, err


class TestUsageErrors:
    @pytest.mark.parametrize("name, command, doc, argv, params", MALFORMED,
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_input_via_main(self, tmp_path, capsys, name, command,
                                      doc, argv, params):
        if doc is not None:
            argv = ["--input", _write_dist(tmp_path, doc)] + argv
        _assert_usage_error(main([command] + argv), capsys)

    @pytest.mark.parametrize("name, command, doc, argv, params", MALFORMED,
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_input_via_run(self, tmp_path, capsys, name, command,
                                     doc, argv, params):
        path = _write_dist(tmp_path, doc) if doc is not None else None
        config = RunConfig(command, input_path=path, parameters=params)
        _assert_usage_error(run(config, io.StringIO()), capsys)

    def test_empty_constant_name_via_run(self, capsys):
        config = RunConfig("constants", parameters={"which": ""})
        _assert_usage_error(run(config, io.StringIO()), capsys)

    def test_integral_offset_accepted(self, tmp_path):
        path = _write_dist(tmp_path, {"offset": 2.0, "weights": [0.5, 0.3, 0.2]})
        code, text = _run(["entropy", "--input", path], tmp_path)
        assert code == 0 and "shannon_entropy" in text

    def test_missing_distribution(self, capsys):
        assert main(["verify"]) == 2
        assert "no distribution" in capsys.readouterr().err

    def test_bad_input_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--input", str(path)]) == 2

    def test_bad_law_parameter(self, capsys):
        assert main(["verify", "--law", "geometric", "--lambda", "1.5"]) == 2

    @pytest.mark.parametrize("argv", UNPARSABLE, ids=" ".join)
    def test_unparsable_argv_exits_two(self, capsys, argv):
        _assert_usage_error(main(argv), capsys)

    def test_unknown_command_exits_two(self, capsys):
        _assert_usage_error(main(["frobnicate"]), capsys)
        _assert_usage_error(run(RunConfig("frobnicate"), io.StringIO()), capsys)

    def test_no_command_exits_two(self, capsys):
        _assert_usage_error(main([]), capsys)

    def test_message_with_a_newline_stays_one_line(self, capsys):
        _assert_usage_error(main(["verify", "stray\nargument"]), capsys)

    @pytest.mark.parametrize("command", tuple(VIEWS))
    def test_help_lists_the_view_parameters(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = {FLAGS[key][0] for key in VIEWS[command][2]} | {"--out", "--format"}
        listed = {word.rstrip(",") for line in capsys.readouterr().out.splitlines()
                  for word in line.split() if word.startswith("--")}
        assert listed - {"--help"} == flags

    def test_run_config_roundtrip(self):
        config = RunConfig(command="counterexample",
                           parameters={"lam": 0.1, "gamma": 1.0})
        stream = io.StringIO()
        assert run(config, stream) == 0
        assert "violated" in stream.getvalue()


def _rows(argv, capsys):
    """Exit code and (check_name, verdict, n/a reason) per row of one run,
    or the error line of a refused run."""
    code = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    if code == 2:
        return code, err
    return code, [(r["check_name"], r["verdict"],
                   r["params"]["reason"] if r["verdict"] == "n/a" else None)
                  for r in json.loads(out)]


class TestPerCheckOrders:
    """A positive order one check does not cover marks only that check's
    rows n/a, with the check's own reason."""

    @pytest.mark.parametrize("law", ["geometric", "symmetric_geometric"])
    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_match_order(self, capsys, law, p):
        argv = ["verify", "--law", law, "--lambda", "0.5"]
        _, default = _rows(argv, capsys)
        code, rows = _rows(argv + ["--p", p], capsys)
        assert code == 0
        reason = f"matching order must be finite, positive and != 1, got {float(p)}"
        matching = ("match_lambda", "crossing_pattern", "renyi_dominance")
        start = [r[0] for r in default].index("match_lambda")
        assert [r[0] for r in default[start:]][-1] == "renyi_dominance"
        assert all(r[0] in matching for r in default[start:])
        assert rows[start:] == [("renyi_dominance", "n/a", reason)]
        unchanged = [r for r in rows[:start] if r[0] != "renyi_gap"]
        assert unchanged == [r for r in default[:start] if r[0] != "renyi_gap"]
        gap = [r for r in rows if r[0] == "renyi_gap"]
        if law == "symmetric_geometric":
            assert gap == [("renyi_gap", "n/a", "asserted for monotone pmfs")]
        elif p == "1":
            assert gap == [("renyi_gap", "n/a", "needs p > q, got p=1.0, q=1.0")]
        else:
            assert gap == [("renyi_gap", "pass", None)]

    def test_epi_order(self, capsys):
        _, default = _rows(["verify"] + _LAW_ARGV, capsys)
        code, rows = _rows(["verify"] + _LAW_ARGV + ["--alpha", "1.5"], capsys)
        assert code == 0
        reason = "the reversal is asserted for alpha >= 2, got 1.5"
        assert rows == [("epi_reversal", "n/a", reason) if r[0] == "epi_reversal"
                        else r for r in default]
        assert ("epi_reversal", "pass", None) in default


# Row contract: exit code and (check_name, verdict, n/a reason) rows of
# verify and of every subcommand that reads a pmf, or the error line of a
# refusal, one structural class per test. The expectations follow from each
# check's hypotheses, and a refusal names the entry and gives verify's
# reason for the hypothesis that failed.
LOG_CONCAVE = "requires a log-concave pmf"
LC_CLASSIFIED = "requires monotone or symmetric log-concave"
LC_MONOTONE = "requires monotone log-concave"
PHI_CLASS = "asserted for monotone or half-integer-symmetric pmfs"
MONOTONE_ONLY = "asserted for monotone pmfs"
UNCLASSIFIED = "pmf is neither monotone nor symmetric"
NOT_MATCHABLE = "needs a monotone or integer-symmetric pmf"
DEGENERATE = "matching needs a non-degenerate pmf"

HEAD = [("classification", "info", None), ("h2_hinf_identity", "pass", None),
        ("cake_layer", "pass", None)]
CONCENTRATION = [(f"concentration_{side}", "pass", None)
                 for _ in DEFAULT_T_GRID for side in ("upper", "lower")]
PHI = [("phi", "info", None)] * len(DEFAULT_T_GRID)
ENTROPY = [("shannon_entropy", "info", None), ("min_entropy", "info", None),
           ("varentropy", "info", None)]
PASS = {name: (name, "pass", None) for name in (
    "mean_mode", "phi_concavity", "varentropy_bound", "renyi_gap", "epi_reversal",
    "crossing_pattern", "renyi_dominance")}


def _na(name, reason):
    return (name, "n/a", reason)


def _refused(entry, reason):
    return (2, f"error: {entry}: {reason}\n")


def _monotone_contract():
    match = ("match_lambda", "info", None)
    return {
        "verify": (0, HEAD + [PASS["mean_mode"], PASS["phi_concavity"],
                              PASS["varentropy_bound"]] + CONCENTRATION
                   + [PASS["renyi_gap"], PASS["epi_reversal"], match,
                      PASS["crossing_pattern"], PASS["renyi_dominance"]]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None), PASS["varentropy_bound"]]),
        "phi": (0, PHI + [PASS["phi_concavity"]]),
        "crossing": (0, [match, ("crossing_interval_lo", "info", None),
                         PASS["crossing_pattern"]]),
        "match": (0, [match]),
        "concentration": (0, CONCENTRATION),
        "epi": (0, [PASS["epi_reversal"]]),
    }


ROW_CONTRACT = {
    "decreasing": ({"offset": 0, "weights": [0.5, 0.3, 0.15, 0.05]},
                   _monotone_contract()),
    "increasing": ({"offset": 3, "weights": [0.05, 0.15, 0.3, 0.5]},
                   _monotone_contract()),
    "integer_symmetric": ({"offset": -2, "weights": [0.05, 0.2, 0.5, 0.2, 0.05]}, {
        "verify": (0, HEAD + [PASS["mean_mode"], _na("phi_concavity", PHI_CLASS),
                              PASS["varentropy_bound"]] + CONCENTRATION
                   + [_na("renyi_gap", MONOTONE_ONLY), _na("epi_reversal", MONOTONE_ONLY),
                      ("match_lambda", "info", None), PASS["renyi_dominance"]]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None), PASS["varentropy_bound"]]),
        "phi": (0, PHI),
        "crossing": _refused("crossing", MONOTONE_ONLY),
        "match": (0, [("match_lambda", "info", None)]),
        "concentration": (0, CONCENTRATION),
        "epi": _refused("epi_reversal", MONOTONE_ONLY),
    }),
    "half_integer_symmetric": ({"offset": -1, "weights": [0.1, 0.4, 0.4, 0.1]}, {
        "verify": (0, HEAD + [PASS["mean_mode"], PASS["phi_concavity"],
                              PASS["varentropy_bound"]] + CONCENTRATION
                   + [_na("renyi_gap", MONOTONE_ONLY), _na("epi_reversal", MONOTONE_ONLY),
                      _na("renyi_dominance", NOT_MATCHABLE)]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None), PASS["varentropy_bound"]]),
        "phi": (0, PHI + [PASS["phi_concavity"]]),
        "crossing": _refused("crossing", MONOTONE_ONLY),
        "match": _refused("match", NOT_MATCHABLE),
        "concentration": (0, CONCENTRATION),
        "epi": _refused("epi_reversal", MONOTONE_ONLY),
    }),
    "asymmetric_log_concave": ({"offset": 1, "weights": [0.1, 0.4, 0.3, 0.15, 0.05]}, {
        "verify": (0, HEAD + [PASS["mean_mode"], _na("phi_concavity", PHI_CLASS),
                              _na("varentropy_bound", UNCLASSIFIED),
                              _na("concentration", UNCLASSIFIED),
                              _na("renyi_gap", MONOTONE_ONLY),
                              _na("epi_reversal", MONOTONE_ONLY),
                              _na("renyi_dominance", NOT_MATCHABLE)]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None),
                           _na("varentropy_bound", UNCLASSIFIED)]),
        "phi": (0, PHI),
        "crossing": _refused("crossing", MONOTONE_ONLY),
        "match": _refused("match", NOT_MATCHABLE),
        "concentration": _refused("concentration", UNCLASSIFIED),
        "epi": _refused("epi_reversal", MONOTONE_ONLY),
    }),
    # renyi_gap comes before concentration here, after it when log-concave
    "non_log_concave": ({"offset": 0, "weights": [0.4, 0.1, 0.3, 0.2]}, {
        "verify": (0, HEAD + [_na("mean_mode", LOG_CONCAVE),
                              _na("phi_concavity", LC_CLASSIFIED),
                              _na("varentropy_bound", LC_CLASSIFIED),
                              _na("renyi_gap", LC_MONOTONE),
                              _na("concentration", LC_CLASSIFIED),
                              _na("epi_reversal", LC_MONOTONE),
                              _na("renyi_dominance", LC_CLASSIFIED)]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None),
                           _na("varentropy_bound", LC_CLASSIFIED)]),
        "phi": (0, PHI),
        "crossing": _refused("crossing", LC_MONOTONE),
        "match": _refused("match", NOT_MATCHABLE),
        "concentration": _refused("concentration", LC_CLASSIFIED),
        "epi": _refused("epi_reversal", MONOTONE_ONLY),
    }),
    # monotone, log-concave and symmetric, but no comparator matches it
    "point_mass": ({"offset": 4, "weights": [1.0]}, {
        "verify": (0, HEAD + [PASS["mean_mode"], PASS["phi_concavity"],
                              PASS["varentropy_bound"]] + CONCENTRATION
                   + [PASS["renyi_gap"], PASS["epi_reversal"],
                      _na("renyi_dominance", DEGENERATE)]),
        "entropy": (0, ENTROPY),
        "varentropy": (0, [("varentropy", "info", None), PASS["varentropy_bound"]]),
        "phi": (0, PHI + [PASS["phi_concavity"]]),
        "crossing": _refused("crossing", DEGENERATE),
        "match": _refused("match", DEGENERATE),
        "concentration": (0, CONCENTRATION),
        "epi": (0, [PASS["epi_reversal"]]),
    }),
}


# weights far from the origin read as their class does near it (the first
# is the half_integer_symmetric entry's, 10**20 further out): the symmetry
# class comes from the support's length, not from a float center that
# loses its half, and the mean is summed relative to the offset, so its
# fraction survives for mean_mode
ROW_CONTRACT["half_integer_symmetric_far"] = (
    {"offset": 10**20, "weights": [0.1, 0.4, 0.4, 0.1]},
    ROW_CONTRACT["half_integer_symmetric"][1])
ROW_CONTRACT["integer_symmetric_far"] = (
    {"offset": 1e20, "weights": [0.2, 0.6, 0.2]}, ROW_CONTRACT["integer_symmetric"][1])

# an interior zero breaks monotonicity as any other rise does, so these
# read as non_log_concave: neither monotone nor symmetric, and epi and match
# refuse them
ROW_CONTRACT["interior_zero_rising"] = (
    {"offset": 0, "weights": [0.1, 0.0, 0.9]}, ROW_CONTRACT["non_log_concave"][1])
ROW_CONTRACT["interior_zero_decreasing"] = (
    {"offset": 0, "weights": [0.5, 0.0, 0.3, 0.2]}, ROW_CONTRACT["non_log_concave"][1])


@pytest.mark.parametrize("klass", ROW_CONTRACT)
def test_row_contract(tmp_path, capsys, klass):
    doc, contract = ROW_CONTRACT[klass]
    path = _write_dist(tmp_path, doc)
    for command, expected in contract.items():
        code, rows = _rows([command, "--input", path], capsys)
        assert (code, rows) == expected, command


def _weights(klass):
    return normalize(ROW_CONTRACT[klass][0]["weights"])


# the library's check functions refuse a row-contract class with the error
# and the words verify writes for it; the hypothesis comes before the order
LIBRARY_REFUSALS = {
    "renyi_gap": (lambda: inequalities.check_renyi_gap(
        _weights("integer_symmetric"), 1.0, 1.0), MONOTONE_ONLY),
    "epi_reversal": (lambda: inequalities.epi_reversal_check(
        _weights("half_integer_symmetric"), 1.5), MONOTONE_ONLY),
    "varentropy_not_log_concave": (lambda: inequalities.check_varentropy(
        _weights("non_log_concave")), LC_CLASSIFIED),
    "varentropy_unclassified": (lambda: inequalities.check_varentropy(
        _weights("asymmetric_log_concave")), UNCLASSIFIED),
    "mean_mode": (lambda: inequalities.mean_mode_check(_weights("non_log_concave")),
                  LOG_CONCAVE),
    "match_comparator": (lambda: matching.match_comparator(
        _weights("half_integer_symmetric"), 2.0), NOT_MATCHABLE),
    "match_geometric": (lambda: matching.match_geometric(_weights("point_mass"), 1.0),
                        DEGENERATE),
    "renyi_dominance": (lambda: matching.renyi_dominance_report(
        _weights("point_mass"), 2.0), DEGENERATE),
}


@pytest.mark.parametrize("check", LIBRARY_REFUSALS)
def test_library_refusal_reads_as_verify(check):
    call, reason = LIBRARY_REFUSALS[check]
    with pytest.raises(UnclassifiedError) as exc:
        call()
    assert str(exc.value) == reason


# (module, function) pairs whose calls one verify must make exactly once
COUNTED = (("lattice", "is_log_concave"), ("lattice", "monotonicity"),
           ("lattice", "symmetry_center"), ("lattice", "difference"),
           ("lattice", "level_steps"), ("matching", "match_geometric"),
           ("matching", "match_symmetric_geometric"))


def _count_calls(monkeypatch):
    """Rebind every lclc module's binding of each COUNTED function to a
    counting wrapper, as perfbench's tracer does; returns the counts."""
    counts = {}
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "lclc" or name.startswith("lclc."))]
    for module_name, name in COUNTED:
        original = getattr(sys.modules[f"lclc.{module_name}"], name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize("source, family", [
    ({"law": "geometric", "lam": 0.999}, "match_geometric"),
    ({"law": "symmetric_geometric", "lam": 0.999}, "match_symmetric_geometric"),
    ("increasing", "match_geometric"),
])
def test_verify_decides_each_fact_once(tmp_path, monkeypatch, source, family):
    if source == "increasing":
        weights = (0.99 ** np.arange(2000.0))[::-1].tolist()
        config = RunConfig("verify", input_path=_write_dist(
            tmp_path, {"offset": 0, "weights": weights}))
    else:
        config = RunConfig("verify", parameters=source)
    counts = _count_calls(monkeypatch)
    assert run(config, io.StringIO()) == 0
    expected = {name: 1 for _, name in COUNTED}
    expected[({"match_geometric", "match_symmetric_geometric"} - {family}).pop()] = 0
    # the subject's level count: a law that materialize built reads its
    # steps off its record and sorts nothing, explicit weights sort once;
    # the crossing check reads those steps and the stored comparator
    # values, and sorts nothing
    expected["level_steps"] = 1 if source == "increasing" else 0
    assert counts == expected


def test_verify_logs_the_masses_once_and_sums_each_order_once(monkeypatch):
    # symmetric geometric 0.99: one level count, read off the law's record
    # with no sort, gives the mass table its (n + 1) / 2 distinct masses,
    # logged once; h2/h-inf, the layer cake
    # and the match at p = 2 share one order-2 sum, and the dominance grid
    # adds 0.5, 1.5, 3 and 5 (its orders 1 and inf take no power sum), each
    # over the table with its counts; classification tests its blocks in
    # place, with out=, and makes no log table
    from lclc import entropy

    n = len(materialize(ParametricLaw.symmetric_geometric(0.99)))
    orders, logged = [], []
    power_sum_of_logs, log = entropy.log_power_sum_of_logs, np.log

    def counted_sum(logs, t, counts=None):
        orders.append(t)
        assert logs.size == (n + 1) // 2 and counts.sum() == n
        return power_sum_of_logs(logs, t, counts)

    def counted_log(x, *args, **kwargs):
        if np.size(x) >= (n + 1) // 2 and "out" not in kwargs:
            logged.append(np.size(x))
        return log(x, *args, **kwargs)

    monkeypatch.setattr(entropy, "log_power_sum_of_logs", counted_sum)
    monkeypatch.setattr(np, "log", counted_log)
    counts = _count_calls(monkeypatch)
    config = RunConfig("verify", parameters={"law": "symmetric_geometric", "lam": 0.99})
    assert run(config, io.StringIO()) == 0
    assert logged == [(n + 1) // 2]
    assert sorted(orders) == [0.5, 1.5, 2.0, 3.0, 5.0]
    assert counts["level_steps"] == 0


def _verify_bytes(argv, blas_threads):
    """stdout of lclc verify in a fresh interpreter whose BLAS runs that
    many threads; a BLAS library reads its thread count at load time."""
    import os
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "lclc.cli", "verify", *argv],
                          capture_output=True, env=env, check=True)
    return done.stdout


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a threaded BLAS reduction sums in an order that depends on its thread
    # count; no row may go through one
    n = 20_000
    i = np.arange(n, dtype=np.float64)
    weights = np.exp(-0.021 * i - 4.5e-7 * i**2).tolist()
    explicit = _write_dist(tmp_path, {"offset": 3, "weights": weights})
    for argv in (["--law", "symmetric_geometric", "--lambda", "0.999"],
                 ["--input", explicit]):
        one = _verify_bytes(argv, 1)
        assert one.startswith(b"check_name,") and len(one.splitlines()) > 20
        assert _verify_bytes(argv, 2) == one


# Exit contract over drawn inputs. Flags take ordinary values, except at
# most one "wild" flag, which takes any float: +-1e308, inf and nan
# included. A law's lambda above 0.999 and a --tail-tol below 1e-20 are
# left out, so no example materializes much more than 10**5 atoms.
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, math.inf, math.nan]))
LAMBDA = st.floats(0.0, 0.999, exclude_min=True)
WILD_LAMBDA = ANY_FLOAT.filter(lambda v: not 0.999 < v < 1.0)
ORDER = st.floats(0.1, 10.0)
# flag: (ordinary values, wild values)
VALUES = {"--lambda": (LAMBDA, WILD_LAMBDA), "--gamma": (st.floats(0.01, 10.0), ANY_FLOAT),
          "--p": (ORDER, ANY_FLOAT), "--q": (ORDER, ANY_FLOAT),
          "--alpha": (st.floats(1.0, 10.0), ANY_FLOAT),
          "--tail-tol": (st.floats(1e-20, 1e-6),
                         ANY_FLOAT.filter(lambda v: not 0.0 < v < 1e-20)),
          "--t-grid": (st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4),
                       st.lists(ANY_FLOAT, max_size=4))}
WEIGHTS = st.one_of(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
    st.lists(st.one_of(ANY_FLOAT, st.integers(-3, 3), st.booleans(), st.text(max_size=2)),
             max_size=50))
DOCUMENT = st.one_of(
    st.fixed_dictionaries({"weights": WEIGHTS},
                          optional={"offset": st.one_of(st.integers(), ANY_FLOAT)}),
    st.fixed_dictionaries({"law": st.sampled_from(["geometric", "symmetric_geometric",
                                                   "poisson"])},
                          optional={"lambda": WILD_LAMBDA}),
    st.lists(ANY_FLOAT, max_size=3),
)


# a text each flag parses, to add it to a subcommand that does not read it
PARSES = {"--input": "dist.json", "--law": "geometric", "--which": "vs"}
UNIFORM_10 = {"weights": [0.1] * 10}


@st.composite
def _argv(draw):
    """A subcommand and flags drawn from the parameters its view reads: its
    distribution (a drawn document, a law or none) if it reads one, and its
    orders, grid and constants. Sometimes one flag it does not read, or a
    value that does not parse, is added, which makes the argv a usage
    error. Returns (argv, document to write out, whether misused)."""
    command = draw(st.sampled_from(tuple(VIEWS)))
    reads = [FLAGS[key][0] for key in VIEWS[command][2]]
    argv, doc = [command], None
    source = "none"
    if "--input" in reads:
        source = draw(st.sampled_from(["document", "law", "law", "none"]))
    if source == "document":
        doc = draw(DOCUMENT)
    elif source == "law":
        argv += ["--law", draw(st.sampled_from(["geometric", "symmetric_geometric"]))]
    own = [flag for flag in VALUES if flag in reads]
    wild = draw(st.sampled_from([None] * len(own) + own))
    for flag in own:
        if flag == wild or draw(st.booleans()) or (flag == "--lambda" and source == "law"):
            value = draw(VALUES[flag][1] if flag == wild else VALUES[flag][0])
            text = ",".join(map(repr, value)) if flag == "--t-grid" else repr(value)
            argv.append(f"{flag}={text}")  # '=' keeps '-1e+308' a value
    if "--which" in reads:
        argv += ["--which", draw(st.sampled_from(["vs", "gap", "c"]))]
    misuse = draw(st.sampled_from([None] * 6 + ["foreign", "unparsable"]))
    if misuse == "foreign":
        foreign = [flag for flag, _ in FLAGS.values()
                   if flag not in reads and flag not in ("--out", "--format")]
        flag = draw(st.sampled_from(foreign))
        argv += [flag, PARSES.get(flag, "1")]
    elif misuse == "unparsable":
        flag = draw(st.sampled_from([f for f in reads if f not in ("--input", "--law")]))
        argv.append(f"{flag}=abc")
    return argv, doc, misuse is not None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_argv())
# inputs the drawing found, each of which once raised
@example((["counterexample", "--gamma=1e+308"], None, False))
@example((["constants", "--which", "gap", "--p=1.0", "--q=1e-300"], None, False))
@example((["verify", "--law", "geometric", "--lambda=0.125", "--p=1e+308"], None, False))
# orders at which t * log x overflows, each of which once warned
@example((["epi", "--alpha=1e+308"], UNIFORM_10, False))
@example((["entropy", "--p=1e+308"], UNIFORM_10, False))
@example((["phi", "--t-grid=1e+308"], UNIFORM_10, False))
@example((["verify", "--law", "geometric", "--lambda=0.5", "--alpha=1e+308"], None, False))
# a t whose square underflows, which once warned
@example((["phi", "--law", "geometric", "--lambda=0.5", "--t-grid=1e-320"], None, False))
# a symmetric law's tail threshold tail_tol * (1 + lam) / 2 that underflows
# to 0, which once raised a math domain error
@example((["verify", "--law", "symmetric_geometric", "--lambda=1e-06", "--tail-tol=5e-324"],
          None, False))
def test_exit_contract_on_drawn_inputs(tmp_path_factory, drawn):
    argv, doc, misused = drawn
    if doc is not None:
        path = tmp_path_factory.mktemp("doc") / "dist.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code == 2 if misused else code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:"), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()


# inputs at which the comparator solver finds no match, each of which once
# ended verify with exit 2: (the distribution document, --p or None)
TINY_TAIL = {"weights": [1, 1e-320]}
NO_MATCH = [
    (TINY_TAIL, None),
    ({"weights": [0.5, 0.3, 0.15]}, 0.01),
    ({"weights": [5e-324, 1, 5e-324]}, None),
    ({"law": "geometric", "lambda": 0.125}, 1e308),
]


@pytest.mark.parametrize("doc, p", NO_MATCH)
def test_a_failed_match_marks_only_the_matching_rows_n_a(tmp_path, capsys, doc, p):
    """verify writes the one renyi_dominance n/a row with the solver's
    message as its reason, as an order the match does not cover does."""
    argv = ["verify", "--input", _write_dist(tmp_path, doc)]
    if p is not None:
        argv += ["--p", repr(p)]
    with pytest.raises(NoBracketError) as solver:
        matching.match_comparator(classify(pmf_from_json(doc)), 2.0 if p is None else p)
    code, rows = _rows(argv, capsys)
    assert code == 0
    assert rows[-1] == ("renyi_dominance", "n/a", str(solver.value))
    assert not {"match_lambda", "crossing_pattern"} & {name for name, _, _ in rows}


def test_a_failed_match_refuses_match_and_crossing(tmp_path, capsys):
    path = _write_dist(tmp_path, TINY_TAIL)
    for command in ("match", "crossing"):
        code, err = _rows([command, "--input", path], capsys)
        assert code == 2
        assert err.startswith(f"error: {command}: no sign change on ["), err


@pytest.mark.parametrize("p", [1e-310, 1e-320, 5e-324])
@pytest.mark.parametrize("doc", [
    {"law": "geometric", "lambda": 0.9},
    {"law": "symmetric_geometric", "lambda": 0.9},
    {"weights": [0.5, 0.3, 0.15, 0.05]},
])
def test_a_subnormal_order_finds_no_match(tmp_path, capsys, doc, p):
    """At orders where p log lam is subnormal or 0 near lam = 1, the
    comparator's power sum takes log(1 - lam**p) as log p + log(-log lam):
    match and crossing exit 2 with one line, and verify marks
    renyi_dominance n/a and exits 0."""
    path = _write_dist(tmp_path, doc)
    monotone = doc.get("law") != "symmetric_geometric"
    for command in ("match", "crossing"):
        code = main([command, "--input", path, "--p", repr(p)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1, err
        if monotone or command == "match":
            assert err.startswith(f"error: {command}: no sign change on ["), err
    code, rows = _rows(["verify", "--input", path, "--p", repr(p)], capsys)
    assert code == 0
    assert rows[-1][:2] == ("renyi_dominance", "n/a")
    assert rows[-1][2].startswith("no sign change on [")


def test_verify_never_exits_2_at_a_drawn_order(tmp_path, capsys):
    """verify at orders log-uniform in [1e-3, 1e6] on monotone and
    integer-symmetric log-concave pmfs of 2 to 40 atoms."""
    rng = np.random.default_rng(1300)
    path = tmp_path / "dist.json"
    for k in range(400):
        x = (random_monotone_log_concave(rng, max_support=40) if k % 2 else
             random_symmetric_log_concave(rng, max_half=19))
        path.write_text(json.dumps({"offset": x.offset, "weights": x.weights.tolist()}))
        p = float(10.0 ** rng.uniform(-3.0, 6.0))
        code = main(["verify", "--input", str(path), "--p", repr(p)])
        out, err = capsys.readouterr()
        assert code != 2 and err == "", (p, x, err)


@pytest.mark.parametrize("doc", [
    {"law": "geometric", "lambda": 0.999},
    {"law": "symmetric_geometric", "lambda": 0.9},
    {"offset": 3, "weights": [0.5, 0.3, 0.15, 0.05]},
    {"offset": -2, "weights": [1, 4, 6, 4, 1]},
    UNIFORM_10,
])
def test_phi_rows_are_the_per_t_values(tmp_path, capsys, doc):
    """phi evaluates its t-grid in one pass per quantity; each row's phi and
    phi'' keep the bits of phi and phi_second_derivative at its t alone,
    limit rows included."""
    grid = (1e-320, 0.1, 0.25, 1.0, 4.0, 40.0, 1e300, 1e308)
    path = _write_dist(tmp_path, doc)
    argv = ["phi", "--input", path, "--t-grid", ",".join(map(repr, grid)), "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)[:len(grid)]
    x = pmf_from_json(doc)
    for t, row in zip(grid, rows):
        assert row["check_name"] == "phi" and row["params"]["t"] == t
        assert float(row["lhs"]) == lyapunov.phi(x, t)
        assert float(row["params"]["phi2"]) == lyapunov.phi_second_derivative(x, t)


def test_extreme_orders_take_their_limits(tmp_path, capsys):
    """At orders where t * log x overflows, H_p and the epi rows take their
    p -> inf limits and phi its -inf limit, and at a t whose square
    underflows phi'' takes its t -> 0 limit, with no warning: exit 0."""
    path = _write_dist(tmp_path, UNIFORM_10)
    log_10 = -math.log(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows = _rows(["entropy", "--input", path, "--p", "1e308"], capsys)
        assert code == 0 and rows == [("renyi_entropy", "info", None)]
        assert main(["entropy", "--input", path, "--p", "1e308", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["lhs"] == log_10
        assert main(["epi", "--input", path, "--alpha", "1e308", "--format", "json"]) == 0
        epi = json.loads(capsys.readouterr().out)[0]
        assert epi["verdict"] == "pass" and epi["lhs"] == log_10
        assert main(["phi", "--input", path, "--t-grid", "1e308", "--format", "json"]) == 0
        phi = json.loads(capsys.readouterr().out)[0]
        assert phi["lhs"] == "-inf" and phi["params"]["phi2"] == 0.0
        assert main(["phi"] + _LAW_ARGV + ["--t-grid", "1e-320", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["params"]["phi2"] == "-inf"
        # CSV writes an infinite cell bare, as it writes a finite one
        assert main(["phi", "--input", path, "--t-grid", "1e308"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("phi,-inf,,,info,")
        assert main(["verify"] + _LAW_ARGV + ["--alpha", "1e308"]) == 0
