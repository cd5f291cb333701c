"""Smoke test: every workload and the traced run, end to end, at tiny size.

    python3 -m pytest perfbench

Runs `run.py --workload all --size tiny` twice (untraced, then traced)
in a subprocess, as the benchmark is run, and checks the result lines
against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(trace: int) -> tuple[int, list[str]]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_every_workload_reports_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run(trace)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] > 0
        expected = {f"{w}.{m['name']}": m["unit"] for w in workloads for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for key, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), key
        if trace == 0:
            # the named quality figures are printed with their units
            for name in ("breath_f1", "pipeline_auprc", "pipeline_eer", "breath_auprc", "error_rate"):
                assert any(f": {name} = " in line for line in lines), name


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "detect_long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
