"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and requires every
metric named in BENCHMARK.json to be present and every output to pass its
checks.  Then feeds corrupted copies of real outputs (an unmarked hit index,
an exhausted trial, a bad residual, a missing norm line, a skewed hit rate,
a flipped byte in a rerun's --out) to the checks and requires each to be
rejected, so the correctness gate is not vacuous; lets a command outlive
its timeout to see it fail; and traces a function that does not exist to see
it listed as missing.  Exits nonzero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run
import traced
import workloads
from workloads import CheckFailed, Command


def _expect_rejected(what: str, check, stdout: str, out: bytes) -> str:
    try:
        check(stdout, out)
    except CheckFailed as exc:
        print(f"ok: rejected {what}: {exc}")
        return str(exc)
    raise AssertionError(f"the check accepted {what}")


def tiny_runs(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(run.END_TO_END_UNITS) != end_to_end or set(run.per_layer_units()) != per_layer:
        raise AssertionError("BENCHMARK.json does not list the metrics run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json does not list the workloads run.py defines")
    for name in workloads.WORKLOADS:
        for trace_mode, wanted in ((0, end_to_end), (1, per_layer)):
            result = run.run(name, 7, 0, trace_mode, scale="tiny")
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{name} trace {trace_mode} failed: {result}")
            absent = wanted - set(result["metrics"])
            if absent:
                raise AssertionError(f"{name} trace {trace_mode} lacks {sorted(absent)}")
            print(f"ok: {name} trace {trace_mode}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} commands")


def corrupted_outputs() -> None:
    workdir = run.OUT / "work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner("selftest", workdir)
        outputs = {}
        for name in workloads.WORKLOADS:
            work = workloads.build(name, 11, workdir, "tiny")
            for i, cmd in enumerate(work.commands):
                sample = runner.execute(cmd, f"{name}-{i}")
                if sample.error:
                    raise AssertionError(f"{name} command {i}: {sample.error}")
                stdout = (workdir / f"{name}-{i}.stdout").read_text("utf-8")
                outputs[name, i] = (cmd, stdout, cmd.out.read_bytes())

        cmd, stdout, out = outputs["loop_small", 0]
        marked = cmd.check.keywords["marked"]
        unmarked = next(k for k in range(16) if k not in marked)
        lines = out.decode().splitlines()
        trial, reps, _ = lines[3].split(",")
        lines[3] = f"{trial},{reps},{unmarked}"
        _expect_rejected("an unmarked hit index", cmd.check, stdout, "\n".join(lines).encode())
        skewed = cmd.check.keywords | {"j": 1}
        _expect_rejected("a hit rate off the analytic law", lambda s, o: workloads.check_search(
            s, o, **skewed), stdout, out)

        cmd, stdout, out = outputs["loop_exact", 0]
        _expect_rejected("an exhausted trial", cmd.check,
                         stdout.replace("exhausted=0", "exhausted=1"), out)

        cmd, stdout, out = outputs["circuit_dense", 0]
        _expect_rejected("a missing norm line", cmd.check,
                         "\n".join(ln for ln in stdout.splitlines() if not ln.startswith("norm")),
                         out)
        lines = stdout.splitlines()
        lines[5] += "x"
        _expect_rejected("an amplitude that does not parse", cmd.check, "\n".join(lines), out)

        cmd, stdout, out = outputs["circuit_dense", 2]
        text = out.decode()
        residual = next(ln for ln in text.splitlines() if ln.startswith("residual "))
        _expect_rejected("a residual above 1e-9", cmd.check,
                         stdout.replace(residual.split()[1], "2e-9"),
                         text.replace(residual, "residual 2e-9").encode())

        cmd, stdout, out = outputs["loop_exact", 0]
        flipped = bytearray(out)
        flipped[2] ^= 0x01  # inside the '# seed=' comment, which the content check skips
        error = _expect_rejected("a flipped byte in a rerun's --out",
                                 lambda s, o: runner.verify(cmd, s, o), stdout, bytes(flipped))
        if "rerun" not in error:
            raise AssertionError("the flipped byte was caught by the content check, not the rerun")

        # A command still running at its timeout is killed and counts as failed.
        runner.deadline = time.monotonic() + 0.01
        sample = runner.execute(Command(None), "timeout")
        if not (sample.error or "").startswith("timed out"):
            raise AssertionError(f"a command past its timeout was not failed: {sample.error}")
        print(f"ok: failed a command past its timeout: {sample.error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def missing_function() -> None:
    """A traced name that no longer exists is listed as missing, and its metrics dropped."""
    sys.path.insert(0, str(run.ROOT / "src"))
    traced.LAYER_FUNCTIONS += (("search", "removed_function"),)
    missing = traced.Tracer().install()
    if missing != ["search.removed_function"]:
        raise AssertionError(f"expected only the removed function to be missing, got {missing}")
    if run._dropped(set(missing)) != {"search.removed_function.calls",
                                      "search.removed_function.self_s"}:
        raise AssertionError("the removed function's metrics were not dropped")
    print("ok: a removed function is listed as missing and its metrics dropped")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny_runs(spec)
    corrupted_outputs()
    missing_function()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
