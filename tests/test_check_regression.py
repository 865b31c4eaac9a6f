"""The perf regression gate compares a fresh artifact with its baseline
only when both were timed on the same default kernel backend."""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "check_regression.py")

#: One gated artifact timed on the default backend, and the one that
#: times every backend itself.
ARTIFACTS = {
    "BENCH_batch.json": {"speedup": 40.0},
    "BENCH_kernels.json": {"end_to_end": {"batch_lookup": {
        "best_speedup": 3.0}}},
}


def _gate(tmp_path, name: str, base_backend: str, fresh_backend: str):
    for role, backend in (("baseline", base_backend),
                          ("fresh", fresh_backend)):
        directory = tmp_path / role
        directory.mkdir(exist_ok=True)
        artifact = dict(ARTIFACTS[name], meta={
            "cpu_count": 2, "default_kernel_backend": backend})
        (directory / name).write_text(json.dumps(artifact))
    return subprocess.run(
        [sys.executable, SCRIPT, "--baseline-dir", str(tmp_path / "baseline"),
         "--fresh-dir", str(tmp_path / "fresh"), "--files", name],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_same_backend_is_gated(tmp_path, name):
    out = _gate(tmp_path, name, "numpy", "numpy")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "— ok" in out.stdout


def test_backend_mismatch_fails_naming_both(tmp_path):
    out = _gate(tmp_path, "BENCH_batch.json", "numpy", "cffi")
    assert out.returncode == 1
    assert "BACKEND MISMATCH" in out.stderr
    assert "cffi" in out.stderr and "numpy" in out.stderr


def test_kernel_bench_is_exempt(tmp_path):
    out = _gate(tmp_path, "BENCH_kernels.json", "numpy", "cffi")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "— ok" in out.stdout
