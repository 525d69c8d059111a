"""The CLI output comparison in tools/cli_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "cli_outputs", Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)

_CONTENT = {
    ".csv": "policy,kl\ndense,0.5\n",
    ".json": '{"policy": "dense", "kl": 0.5}\n',
    ".jsonl": '{"policy": "dense", "kl": 0.5}\n',
}


def _matrix(root: Path) -> Path:
    root.mkdir()
    (root / "dumps").mkdir()
    for name in cli_outputs.file_names():
        (root / name).write_text(_CONTENT[Path(name).suffix])
    return root


def test_matrix_file_count():
    names = cli_outputs.file_names()
    assert len(names) == len(set(names)) == 41


@pytest.mark.parametrize("a_text, b_text, code, verdict", [
    (_CONTENT[".csv"], "policy,kl\ndense,0.5\n", 0, "identical"),
    (_CONTENT[".csv"], "policy,kl\ndense,0.5000000000000001\n", 0,
     "floats differ, max |delta| 1.11e-16"),
    (_CONTENT[".csv"], "policy,kl\ndense,0.5000001\n", 1,
     "floats differ, max |delta| 1e-07 > 1e-12"),
    (_CONTENT[".csv"], "policy,kl\nsink,0.5\n", 1,
     "non-float field differs at /1/0: 'dense' != 'sink'"),
    (_CONTENT[".csv"], "policy,kl\ndense,0.5\nsink,0.5\n", 1,
     "non-float field differs at /: length 2 != 3"),
    ("policy,kl,ce\ndense,0.5,0.25\n", "policy,kl,ce\ndense,0.5,nan\n", 1,
     "floats differ, max |delta| inf > 1e-12"),
    ("policy,kl,ce\ndense,0.5,nan\n", "policy,kl,ce\ndense,0.5000000000000001,NaN\n", 0,
     "floats differ, max |delta| 1.11e-16"),
], ids=["same", "rounding", "beyond-tolerance", "label", "extra-row", "nan-on-one-side",
        "nan-on-both-sides"])
def test_compare_verdicts(tmp_path, capsys, a_text, b_text, code, verdict):
    a, b = _matrix(tmp_path / "a"), _matrix(tmp_path / "b")
    (a / "bench-synthetic.csv").write_text(a_text)
    (b / "bench-synthetic.csv").write_text(b_text)
    assert cli_outputs.main(["--compare", str(a), str(b)]) == code
    assert f"bench-synthetic.csv: {verdict}" in capsys.readouterr().out


def test_compare_reports_a_missing_file(tmp_path, capsys):
    a, b = _matrix(tmp_path / "a"), _matrix(tmp_path / "b")
    (b / "train-model.json").unlink()
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 1
    assert "train-model.json: missing" in capsys.readouterr().out


def test_json_int_and_float_are_different_fields():
    with pytest.raises(ValueError, match="/steps: 1 != 1.0"):
        cli_outputs.max_float_delta({"steps": 1}, {"steps": 1.0})
