"""CLI and CSV loader tests."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.loader import load_csv, save_csv
from repro.errors import DataError


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "tstamp,ticker,price\n"
        "0,ACME,10.0\n"
        "1,ACME,11.5\n"
        "2,ACME,12.0\n"
        "0,OTHR,5.0\n"
        "1,OTHR,4.0\n"
        "2,OTHR,3.5\n")
    return str(path)


class TestLoader:
    def test_load_types(self, csv_file):
        table = load_csv(csv_file)
        assert table.column("price").dtype == np.float64
        assert table.column("ticker").dtype == object
        assert len(table) == 6

    def test_column_selection(self, csv_file):
        table = load_csv(csv_file, columns=["tstamp", "price"])
        assert table.column_names == ["price", "tstamp"]

    def test_missing_column(self, csv_file):
        with pytest.raises(DataError):
            load_csv(csv_file, columns=["volume"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataError):
            load_csv(str(path))

    def test_round_trip(self, csv_file, tmp_path):
        table = load_csv(csv_file)
        out = tmp_path / "copy.csv"
        save_csv(table, str(out))
        again = load_csv(str(out))
        assert np.allclose(again.column("price"),
                           table.column("price"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        table = load_csv(str(path))
        assert len(table) == 2


class TestCLI:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "sp500" in out and "weather" in out

    def test_templates_command(self, capsys):
        assert main(["templates"]) == 0
        out = capsys.readouterr().out
        assert "cld_wave" in out

    def test_query_with_template(self, capsys):
        code = main(["query", "--dataset", "sp500", "--template", "v_shape",
                     "--param", "down_r2_max=-0.7",
                     "--param", "up_r2_min=0.7",
                     "--param", "total_window_size=30",
                     "--series", "3", "--length", "60", "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches over" in out

    def test_query_with_csv(self, csv_file, capsys):
        code = main(["query", "--csv", csv_file,
                     "--query",
                     "PARTITION BY ticker ORDER BY tstamp PATTERN (UP) "
                     "DEFINE SEGMENT UP AS last(UP.price) > first(UP.price)"
                     " AND window(1, 2)",
                     "--limit", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ACME" in out

    def test_query_from_file(self, csv_file, tmp_path, capsys):
        query_path = tmp_path / "q.sql"
        query_path.write_text(
            "PARTITION BY ticker ORDER BY tstamp PATTERN (DN) "
            "DEFINE SEGMENT DN AS last(DN.price) < first(DN.price) "
            "AND window(1, :max)")
        code = main(["query", "--csv", csv_file, "--query-file",
                     str(query_path), "--param", "max=2"])
        assert code == 0
        assert "OTHR" in capsys.readouterr().out

    def test_explain_command(self, capsys):
        code = main(["explain", "--dataset", "sp500", "--template",
                     "v_shape", "--param", "down_r2_max=-0.7",
                     "--param", "up_r2_min=0.7",
                     "--param", "total_window_size=30",
                     "--series", "3", "--length", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Logical plan" in out and "Physical plan" in out

    def test_explain_analyze_command(self, capsys):
        code = main(["explain", "--analyze", "--dataset", "sp500",
                     "--template", "v_shape",
                     "--param", "down_r2_max=-0.7",
                     "--param", "up_r2_min=0.7",
                     "--param", "total_window_size=30",
                     "--series", "2", "--length", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Physical plan (analyzed)" in out
        assert "time=" in out and "self=" in out
        assert "matches over" in out

    def test_explain_analyze_json(self, capsys):
        import json
        code = main(["explain", "--analyze", "--json", "--dataset",
                     "sp500", "--template", "v_shape",
                     "--param", "down_r2_max=-0.7",
                     "--param", "up_r2_min=0.7",
                     "--param", "total_window_size=30",
                     "--series", "2", "--length", "50"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "plan" in data and "operators" in data

    def test_json_without_analyze_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "--json", "--dataset", "sp500",
                  "--template", "v_shape"])

    def test_error_reported_not_raised(self, capsys):
        code = main(["query", "--dataset", "sp500",
                     "--query", "PATTERN (((", "--series", "2",
                     "--length", "30"])
        # Syntax errors map to a distinct exit code (docs/ROBUSTNESS.md).
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "sp500"])

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "sp500", "--template", "v_shape",
                  "--param", "oops"])


REPO = Path(__file__).resolve().parents[1]

#: ``python -m repro <sub>``, ``repro <sub>`` and the subprocess form
#: ``"-m", "repro", "<sub>"``; ``from repro import ...`` is not a command.
_INVOCATION = re.compile(
    r'''(?:(?<!from )\brepro\s+|"-m",\s*"repro",\s*")([a-z][\w-]*)''')


def test_documented_commands_exist():
    """Every command the docs, CI and tools spell out is a real one."""
    sub = next(action for action in build_parser()._actions
               if action.dest == "command")
    files = [REPO / "README.md", *sorted((REPO / "docs").rglob("*.md")),
             REPO / ".github" / "workflows" / "ci.yml",
             *sorted((REPO / "tools").glob("*.py")),
             REPO / ".claude" / "skills" / "verify" / "SKILL.md"]
    stale = []
    for path in files:
        if not path.exists():
            continue
        text = path.read_text()
        for match in _INVOCATION.finditer(text):
            if match.group(1) not in sub.choices:
                line = text.count("\n", 0, match.start()) + 1
                stale.append(f"{path.relative_to(REPO)}:{line}: "
                             f"{match.group(0)!r}")
    assert not stale, "unknown repro subcommands:\n" + "\n".join(stale)
