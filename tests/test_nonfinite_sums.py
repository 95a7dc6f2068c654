"""Finite fields whose sum overflows, and an inf beside a -inf, read
without a numpy warning.

The dataset and trace-log readers first test a whole numeric block by
its sum, which is finite only when each value is.  That sum overflows
on two values near the float64 limit, and is nan on inf plus -inf; the
exact per-row check decides then, and neither case may warn.  The CLI
runs here in a fresh interpreter with Python's default warning filters,
where a warning would reach stderr beside the one ``error:`` line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from carlab.core import DataFormatError, load_trace_log

import oracles

SRC = Path(__file__).resolve().parents[1] / "src"

# Two finite features whose sum is past float64, and -inf beside inf.
BIG = "id,f1,f2,class\na,1e308,1e308,0\nb,0.0,1.0,1\n"
INF = "id,f1,f2,class\na,0.0,0.0,0\no1,-inf,1e400,1\n"
TRACES = "id,step,timestamp,f1,f2,class,action\no1,0,0.0,{},{},1,a\no1,1,1.0,0.0,0.0,0,\n"


def _carlab(tmp_path, *argv):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "carlab", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_a_trace_log_with_inf_beside_minus_inf_raises_the_oracles_message(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text(TRACES.format("-inf", "1e400"), encoding="utf-8")
    with pytest.raises(DataFormatError) as expected:
        oracles.trace_log_oracle(path)
    assert expected.value.args[0] == f"{path}:2: non-finite value for 'o1'"
    with pytest.raises(DataFormatError) as raised:
        load_trace_log(path)
    assert raised.value.args == expected.value.args


def test_finite_states_whose_sum_overflows_read(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text(TRACES.format("1e308", "1e308"), encoding="utf-8")
    assert load_trace_log(path).state.tolist()[0] == [1e308, 1e308]


def test_the_cli_reads_finite_fields_whose_sum_overflows_with_nothing_on_stderr(tmp_path):
    (tmp_path / "big.csv").write_text(BIG, encoding="utf-8")
    (tmp_path / "traces.csv").write_text(TRACES.format("1e308", "1e308"), encoding="utf-8")
    for argv in (["mine", "--data", "big.csv"], ["fit-mdp", "--traces", "traces.csv"]):
        result = _carlab(tmp_path, *argv, "--out", "out.json")
        assert (result.returncode, result.stderr) == (0, ""), argv


def test_the_cli_refuses_inf_beside_minus_inf_in_one_stderr_line(tmp_path):
    (tmp_path / "inf.csv").write_text(INF, encoding="utf-8")
    (tmp_path / "traces.csv").write_text(TRACES.format("-inf", "1e400"), encoding="utf-8")
    runs = {"inf.csv:3": ["mine", "--data", "inf.csv"], "traces.csv:2": ["fit-mdp", "--traces", "traces.csv"]}
    for path, argv in runs.items():
        result = _carlab(tmp_path, *argv, "--out", "out.json")
        assert (result.returncode, result.stderr) == (1, f"error: {path}: non-finite value for 'o1'\n"), argv
