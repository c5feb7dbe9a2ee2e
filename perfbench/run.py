"""The ffcount benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

The program is used from source: every command is `python3 -m ffcount ...`
in a fresh interpreter with PYTHONPATH=src, run one at a time (a closed
loop with one client), started from the small launcher spawn.py so that
its max-RSS is its own.  The generated command list is repeated until the
time measured is as near to --seconds as whole repetitions bring it (at
least two repetitions); a command's time is its median over the
repetitions, and set-up time is probed before and after every repetition.
Answers are checked after the timed loop, and every report must be
byte-identical across repetitions.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
repetitions with traced ones, which run each command through traced.py,
and reports the per-layer metrics of layers.py.  --workload all runs every
workload in turn.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the generated argv lists and every
sample are saved under .perfbench_out/.  The exit code is 1 when a check of
an answer fails and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

CMD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


@dataclass(slots=True)
class Sample:
    """One command execution: times, peak memory, exit code and report."""

    cid: str
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    out: bytes
    err: bytes


class Launcher:
    """Runs commands through spawn.py, so max-RSS is the command's own."""

    def __init__(self, work_dir: str):
        self.out = os.path.join(work_dir, "stdout")
        self.err = os.path.join(work_dir, "stderr")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cid: str, argv: list[str]) -> Sample:
        req = {"argv": argv, "env": self.env, "cwd": ROOT, "out": self.out, "err": self.err,
               "timeout": CMD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        with open(self.out, "rb") as out, open(self.err, "rb") as err:
            return Sample(cid, res["wall"], res["cpu"], res["rss_kb"], res["rc"],
                          out.read(), err.read())

    def setup(self) -> float:
        """Wall time of a fresh interpreter plus `import ffcount.cli`."""
        return self.run("setup", [sys.executable, "-c", "import ffcount.cli"]).wall

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _repetition(launcher: Launcher, cmds, spans_dir: str | None) -> dict:
    samples = []
    setup = [launcher.setup()]
    start = time.perf_counter()
    for c in cmds:
        if spans_dir is None:
            argv = [sys.executable, "-m", "ffcount", *c.argv]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced.py"),
                    os.path.join(spans_dir, c.cid + ".jsonl"), c.cid, *c.argv]
        samples.append(launcher.run(c.cid, argv))
    rep = {"traced": spans_dir is not None, "wall": time.perf_counter() - start,
           "samples": samples, "setup": setup + [launcher.setup()]}
    if spans_dir is not None:
        records = []
        for c in cmds:
            path = os.path.join(spans_dir, c.cid + ".jsonl")
            if os.path.exists(path):  # absent when the command was killed
                with open(path) as fh:
                    records.extend(json.loads(line) for line in fh)
        rep["layers"] = layers.layer_metrics(records, sum(len(s.out) for s in samples))
    return rep


def _measure(cmds, seconds: float, trace: bool, work_dir: str) -> list[dict]:
    """Repetitions until their total is nearest to `seconds`; at least two."""
    launcher = Launcher(work_dir)
    try:
        launcher.setup()  # compiles the package's bytecode once, as an install has it
        return _repeat(launcher, cmds, seconds, trace, work_dir)
    finally:
        launcher.close()


def _repeat(launcher: Launcher, cmds, seconds: float, trace: bool, work_dir: str):
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(_repetition(launcher, cmds, work_dir if traced else None))
        elapsed = time.perf_counter() - start
        # stop when another repetition as long as the last would overshoot
        # `seconds` by more than stopping now falls short of it
        if len(reps) >= 2 and elapsed + reps[-1]["wall"] / 2 > seconds:
            return reps


def _verify(cmds, reps) -> tuple[list[tuple[str, str]], set[str]]:
    """(problems, ids of commands whose report is wrong or disagrees)."""
    checker = check.Checker()
    for c, s in zip(cmds, reps[0]["samples"]):
        if s.rc == 0:
            checker.check(c, s.out.decode())
    for i, c in enumerate(cmds):
        seen = {(r["samples"][i].rc, hashlib.sha256(r["samples"][i].out).hexdigest())
                for r in reps}
        if len(seen) > 1:
            checker.problems.append((c.cid, "report or exit code differs between repetitions"))
    return checker.problems, {cid for cid, _ in checker.problems} | checker.disagreeing


def _list_time(reps, attr: str) -> float:
    """Sum over the command list of each command's median across repetitions."""
    return sum(statistics.median(getattr(r["samples"][i], attr) for r in reps)
               for i in range(len(reps[0]["samples"])))


def _end_to_end(reps, attempted: int, failed: int) -> dict:
    plain = [r for r in reps if not r["traced"]]
    deciles = statistics.quantiles([s.wall for r in plain for s in r["samples"]],
                                   n=10, method="inclusive")
    return {
        "setup_s": statistics.median(t for r in reps for t in r["setup"]),
        "wall_s": _list_time(plain, "wall"),
        "cpu_s": _list_time(plain, "cpu"),
        "cmd_p50_s": deciles[4],
        "cmd_p90_s": deciles[8],
        "peak_rss_mb": max(s.rss_kb for r in plain for s in r["samples"]) / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def _per_layer(reps) -> dict:
    traced = [r for r in reps if r["traced"]]
    out = {m: statistics.median(r["layers"][m] for r in traced)
           for m in traced[0]["layers"]}
    plain = [r for r in reps if not r["traced"]]
    out["trace_overhead_frac"] = _list_time(traced, "wall") / _list_time(plain, "wall") - 1
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    cmds = workloads.generate(name, seed)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        reps = _measure(cmds, seconds, trace, work_dir)
    problems, wrong = _verify(cmds, reps)
    samples = [s for r in reps for s in r["samples"]]
    failed = sum(1 for s in samples if s.rc != 0 or s.cid in wrong)
    if trace:
        values, units = _per_layer(reps), {m: u for m, u, _ in layers.PER_LAYER}
    else:
        values, units = _end_to_end(reps, len(samples), failed), dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    _save(name, seed, trace, cmds, reps, problems, result)
    lat_n = sum(len(r["samples"]) for r in reps if not r["traced"])
    print(f"# {name} seed={seed} trace={int(trace)}: {len(cmds)} commands x {len(reps)} "
          f"repetitions; {lat_n} latency samples, {lat_n - 1 - int(0.9 * (lat_n - 1))} "
          f"beyond p90; fail_frac = {failed}/{len(samples)} = {failed / len(samples):.4f} ratio")
    for m, v in result["metrics"].items():
        print(f"{name} {m} = {v['value']:.6g} {v['unit']}")
    for s in {s.cid: s for s in reversed(samples) if s.rc != 0}.values():
        print(f"# exit {s.rc}: {s.cid}: {s.err.decode().strip()[-160:]}")
    for cid, msg in problems:
        print(f"WRONG ANSWER {cid}: {msg}", file=sys.stderr)
    return result, not problems


def _save(name, seed, trace, cmds, reps, problems, result) -> None:
    doc = {
        "workload": name, "seed": seed, "trace": int(trace), "python": sys.version,
        "cpu_count": os.cpu_count(),
        "commands": [{"cid": c.cid, "argv": ["ffcount", *c.argv]} for c in cmds],
        "repetitions": [
            {"traced": r["traced"], "wall": r["wall"], "setup": r["setup"],
             "samples": [{"cid": s.cid, "wall": s.wall, "cpu": s.cpu, "rss_kb": s.rss_kb,
                          "rc": s.rc, "bytes": len(s.out)} for s in r["samples"]]}
            for r in reps],
        "problems": problems, "result": result,
    }
    path = os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result, good = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and good
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "ffcount", "cli.py")):
        print(f"perfbench: no ffcount source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import check  # noqa: E402  (needs src on the path)
    import layers  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())
