import io
import json
import math

import pytest

from lclc.cli import RunConfig, classify, main, run
from lclc.lattice import Direction, materialize, normalize, ParametricLaw


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
        _, first = _run(["verify", "--input", path, "--seed", "7"], tmp_path)
        _, second = _run(["verify", "--input", path, "--seed", "7"], tmp_path)
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

# a zero the user passes is used, never replaced by the flag's default, so
# each of these is refused downstream
for _command, _flag, _key in (("verify", "--p", "p"), ("verify", "--q", "q"),
                              ("verify", "--alpha", "alpha"),
                              ("verify", "--tail-tol", "tail_tol"),
                              ("crossing", "--p", "p"), ("match", "--p", "p"),
                              ("epi", "--alpha", "alpha")):
    MALFORMED.append((f"{_command}_{_key}_zero", _command, None,
                      _LAW_ARGV + [_flag, "0"], {**_LAW_PARAMS, _key: 0.0}))


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

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_config_roundtrip(self):
        config = RunConfig(command="counterexample",
                           parameters={"lam": 0.1, "gamma": 1.0})
        stream = io.StringIO()
        assert run(config, stream) == 0
        assert "violated" in stream.getvalue()
