"""Self-test of the benchmark: schema check plus a tiny-size smoke of every path.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The smokes run every workload at ``--size tiny``, untraced and traced,
through the same command line the benchmark is driven with.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from measure import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _session_members(session: int) -> list:
    """Command lines of the processes, zombies included, in session ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # Fields after the parenthesised command: state, ppid, pgrp, session.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session:
                members.append((entry / "cmdline").read_text().replace("\0", " ") or fields[0])
        except (OSError, IndexError):  # the process ended while being read
            pass
    return members


class SchemaTest(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_command_and_paths(self) -> None:
        self.assertEqual(set(self.spec), SPEC_KEYS)
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)

    def test_names_exactly_the_benchmarks(self) -> None:
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, PER_LAYER)

    def test_bounds(self) -> None:
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()), bounds)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))


class SmokeTest(unittest.TestCase):
    def _result(self, trace: int) -> dict:
        proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-4000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _check(self, result: dict, units: dict) -> None:
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2 * len(WORKLOADS))
        expected = {f"{w}/{m}": u for w in WORKLOADS for m, u in units.items()}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_untraced_every_workload(self) -> None:
        self._check(self._result(0), END_TO_END)

    def test_traced_every_workload(self) -> None:
        result = self._result(1)
        self._check(result, PER_LAYER)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Each workload reaches the layer only it exercises.
        self.assertGreater(metrics["ucf101-lstm-majority/partial.reduce_ms.n"], 0)
        self.assertEqual(metrics["ucf101-lstm-sync/partial.reduce_ms.n"], 0)
        self.assertGreater(metrics["cifar-mlp-zero1/sharding.reduce_scatter_ms.p50"], 0)
        self.assertEqual(metrics["ucf101-lstm-sync/sharding.reduce_scatter_ms.p50"], 0)

    def test_leaves_no_process_behind(self) -> None:
        # Its own session, so every process it starts can be found after it exits.
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "cifar-mlp-zero1",
             "--seed", "4", "--seconds", "1", "--trace", "0", "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        _out, err = proc.communicate(timeout=170)
        self.assertEqual(proc.returncode, 0, err[-4000:])
        self.assertEqual(_session_members(proc.pid), [])

    def test_fails_without_program_sources(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("--workload", "cifar-mlp-zero1", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
