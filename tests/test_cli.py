import json
import math

import numpy as np
import pytest

from besselvisc import cli
from besselvisc.cli import _emit, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZeros:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "zeros", "--order", "0", "--count", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,j,j_squared"
        n, j, jsq = lines[1].split(",")
        assert int(n) == 1
        assert float(j) == pytest.approx(2.404825557695773, abs=1e-10)
        assert float(jsq) == pytest.approx(float(j) ** 2, rel=1e-15)

    def test_reference_first_zero_row(self, capsys):
        # printed-precision reproduction for order 1
        code, out, _ = run(capsys, "zeros", "--order", "1", "--count", "1")
        assert code == 0
        _, j, jsq = out.strip().splitlines()[1].split(",")
        assert abs(float(j) - 3.83) <= 0.005
        assert abs(float(jsq) - 14.68) <= 0.005

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "zeros", "--order", "0.5", "--count", "3",
                           "--format", "json")
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2, 3]
        assert rows[0]["j"] == pytest.approx(math.pi, rel=1e-12)


class TestCurveAndEval:
    def test_eval_single_row(self, capsys):
        code, out, _ = run(capsys, "eval", "--function", "relax_modulus",
                           "--order", "0.5", "--t", "0.2")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "t,value,provenance"
        t, v, prov = row.split(",")
        assert prov == "series"
        assert 0.0 < float(v) < 1.0

    def test_curve_monotone_and_provenance(self, capsys):
        code, out, _ = run(capsys, "curve", "--kind", "relax_modulus",
                           "--order", "0.5", "--grid", "log", "1e-3", "10", "20")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(r.split(",")[2] == "series" for r in rows)

    def test_explicit_times(self, capsys):
        code, out, _ = run(capsys, "curve", "--kind", "creep_compliance",
                           "--order", "0", "--times", "0.0,0.5,1.0")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "curve", "--kind", "creep_rate", "--order", "1",
                             "--grid", "log", "0.01", "5", "25",
                             "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestAsymptoteCompare:
    def test_best_branch_flips(self, capsys):
        code, out, _ = run(capsys, "asymptote-compare", "--kind", "relax_rate",
                           "--order", "1", "--grid", "log", "1e-4", "10", "12")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,series,short,long,best_branch"
        branches = [r.split(",")[-1] for r in rows[1:]]
        assert branches[0] == "short_time"
        assert branches[-1] == "long_time"


class TestOracleCheck:
    def test_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--order", "1", "--t", "0.1")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            fields = row.split(",")
            assert float(fields[4]) <= 1e-6
            assert fields[5] == "true"

    # The six points of the perfbench oracle fault slice, which failed under the
    # old series-quotient ratio, plus two higher orders.
    @pytest.mark.parametrize("order,t", [
        (12, 0.3), (12, 1.0), (15, 0.3), (15, 1.0), (20, 0.3), (20, 1.0),
        (30, 0.1), (30, 0.3), (60, 0.05), (60, 0.1)])
    def test_high_orders_pass(self, capsys, order, t):
        code, out, _ = run(capsys, "oracle-check", "--order", str(order), "--t", str(t))
        assert code == 0
        assert [row.split(",")[5] for row in out.strip().splitlines()[1:]] == ["true", "true"]

    def test_relaxation_rate_below_double_range(self, capsys):
        # phi(60, 0.3) ~ exp(-0.3 j_{60,1}^2) underflows in the series and the
        # inversion alike, so the check compares 0.0 with 0.0.
        code, out, _ = run(capsys, "oracle-check", "--order", "60", "--t", "0.3",
                           "--function", "relax_rate")
        assert code == 0
        assert out.strip().splitlines()[1] == "relax_rate,0.3,0.0,0.0,0.0,true"


class TestParserCache:
    SEQUENCE = [
        ["zeros", "--order", "0", "--count", "3"],
        ["curve", "--kind", "relax_modulus", "--order", "0.5", "--grid", "log", "1e-3", "10", "5"],
        ["curve", "--kind", "no_such_kind", "--order", "1", "--times", "0.1"],
        ["oracle-check", "--order", "1", "--t", "0.1"],
    ]

    def _run_sequence(self, capsys):
        results = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv itself
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_cached_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        cached = self._run_sequence(capsys)
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self._run_sequence(capsys)
        assert [code for code, _, _ in cached] == [0, 0, 2, 0]
        assert cached == fresh


class TestRespond:
    def test_step_history_roundtrip(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        hist.write_text("time,value\n0.0,1.0\n2.0,1.0\n")
        code, out, _ = run(capsys, "respond", "--mode", "strain", "--order", "0",
                           "--history", str(hist), "--times", "0.0,0.5,1.0")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        from besselvisc.timedomain import creep_compliance

        for row in rows:
            t, v, _ = row.split(",")
            assert float(v) == pytest.approx(creep_compliance(0.0, float(t)), rel=1e-10)

    def test_headerless_history(self, capsys, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text("0.0,0.0\n1.0,1.0\n")
        code, out, _ = run(capsys, "respond", "--mode", "stress", "--order", "0.5",
                           "--history", str(hist))
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestErrors:
    def test_invalid_order_is_machine_readable(self, capsys):
        code, out, err = run(capsys, "zeros", "--order", "-2", "--count", "3")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "order" in record["message"]

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "curve", "--kind", "creep_rate", "--order", "0",
                           "--grid", "log", "5", "1", "10")
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    def test_non_finite_min_time(self, capsys):
        code, out, err = run(capsys, "curve", "--kind", "creep_rate", "--order", "1",
                             "--times", "1e-7,0.1", "--min-time", "nan")
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError" and "min_time" in record["message"]

    def test_missing_history_file(self, capsys):
        code, _, err = run(capsys, "respond", "--mode", "strain", "--order", "0",
                           "--history", "/nonexistent/h.csv")
        assert code == 2

    @pytest.mark.parametrize("row", ["1", "0.5,0,5"], ids=["one_field", "three_fields"])
    def test_history_row_without_two_fields(self, capsys, tmp_path, row):
        hist = tmp_path / "h.csv"
        hist.write_text(f"time,value\n0.0,0.0\n{row}\n1.0,1.0\n")
        code, out, err = run(capsys, "respond", "--mode", "strain", "--order", "0",
                             "--history", str(hist))
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError" and "line 3" in record["message"]

    @pytest.mark.parametrize("history,times", [
        ("time,value\n0.0,1.0\n1.0,nan\n", "0.0,0.5"),
        ("time,value\n0.0,1.0\n1.0,1.0\n", "0.0,nan"),
    ], ids=["nan_history_value", "nan_eval_time"])
    def test_non_finite_respond_input(self, capsys, tmp_path, history, times):
        hist = tmp_path / "h.csv"
        hist.write_text(history)
        code, out, err = run(capsys, "respond", "--mode", "strain", "--order", "0",
                             "--history", str(hist), "--times", times)
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError" and "finite" in record["message"]


def _cell_by_cell(x) -> str:
    """The per-cell formatting that column-wise CSV output must reproduce."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class TestEmit:
    ROWS = [
        {"b": True, "nb": np.bool_(False), "i": 3, "ni": np.int64(-7), "f": -0.0,
         "nf": np.float64(1e-300), "f32": np.float32(0.1), "s": "series", "mixed": 1},
        {"b": False, "nb": np.bool_(True), "i": -12, "ni": np.int32(0), "f": 1e-300,
         "nf": np.float64(-0.0), "f32": np.float32(-2.5), "s": "asymptotic_short",
         "mixed": 0.5},
        {"b": True, "nb": np.bool_(True), "i": 0, "ni": np.int64(10**12), "f": 0.1 + 0.2,
         "nf": np.float64(math.pi), "f32": np.float32(3.0), "s": "x", "mixed": np.bool_(True)},
    ]

    def test_csv_bytes_match_cell_by_cell(self, tmp_path):
        columns = list(self.ROWS[0])
        path = tmp_path / "out.csv"
        _emit(self.ROWS, columns, "csv", str(path))
        expected = "\n".join([",".join(columns)] + [
            ",".join(_cell_by_cell(row[c]) for c in columns) for row in self.ROWS]) + "\n"
        assert path.read_text() == expected
        assert "-0.0" in expected and "1e-300" in expected

    def test_json_bytes_unchanged(self, tmp_path):
        path = tmp_path / "out.json"
        _emit(self.ROWS, list(self.ROWS[0]), "json", str(path))
        assert path.read_text() == json.dumps(self.ROWS, indent=2, default=_cell_by_cell) + "\n"

    def test_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        _emit([], ["t", "value"], "csv", str(path))
        assert path.read_text() == "t,value\n"
