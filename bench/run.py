"""Serial benchmark of the ``oswec`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; nothing needs installing. Each
round runs one ``oswec`` command in a fresh interpreter (``child.py``) with
``--workers 1`` and single-threaded BLAS, then checks every output against
the benchmark's own frequency-domain solution (``oracle.py``) and against
properties the method must have (``checks.py``). Rounds repeat while the
next one still fits in S seconds (at least one). Before each round of an
untraced run, three set-up-only processes time interpreter start,
``import oswec`` and the parsing of the arguments, configuration and JPD.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end medians over the rounds; with ``--trace 1`` rounds
alternate untraced and traced, and the metrics are the per-layer medians of
the traced rounds plus ``trace.overhead_s``. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from oracle import FlapModel  # noqa: E402

CONFIG = "configs/reference.json"
JPD = "data/sample_jpd.csv"
REQUIRED = ("src/oswec/cli.py", CONFIG, JPD)
SETUP_PROBES = 3  # set-up-only processes before each round of an untraced run
VERIFY_CASES = 20
# ``verify_oracle`` keeps the config seed at 0 whatever the workload seed:
# at some seeds a randomized case fails the program's own energy-balance
# check, and the work varies by +-20% between seeds (see README.md)
VERIFY_CONFIG_SEED = 0
RUN_LIMIT_S = 170.0  # the whole run ends within this, every child included
WAVE_PERIODS = tuple(7.5 + 0.5 * i for i in range(9))
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fmt_list(values) -> str:
    return ",".join(format(float(v), "g") for v in values)


def _write_config(run_dir, seed: int, out_dir) -> tuple[str, dict]:
    with open(os.path.join(ROOT, CONFIG), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seed"] = seed
    cfg["output_dir"] = out_dir
    path = os.path.join(run_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path, cfg


class AepSite:
    """``oswec aep`` on the sample JPD with all but ``heights`` of its fully
    populated Hs rows zeroed, the rows chosen by the seed.

    A linear system converges in the same number of periods at any wave
    height, so every choice of rows costs the same. The rows and columns
    are shuffled by the seed too.
    """

    name = "aep_site"

    def __init__(self, distances=(10.0,), heights=3, jpd=JPD):
        self.distances = tuple(distances)
        self.heights = heights
        self.jpd_source = os.path.join(ROOT, jpd)

    def prepare(self, run_dir, seed: int, out_dir) -> list[str]:
        config_path, cfg = _write_config(run_dir, seed, out_dir)
        self.model = FlapModel.from_config(cfg)
        self.steps_per_period = cfg["integration"]["steps_per_period"]
        with open(self.jpd_source, newline="", encoding="utf-8") as fh:
            header, *body = [r for r in csv.reader(fh) if r]
        rng = random.Random(seed)
        full = [r[0] for r in body if all(float(c) > 0.0 for c in r[1:])]
        keep = set(rng.sample(full, self.heights))
        body = [r if r[0] in keep else [r[0]] + ["0"] * (len(r) - 1) for r in body]
        cols = list(range(1, len(header)))
        rng.shuffle(cols)
        rng.shuffle(body)
        self.jpd_path = os.path.join(run_dir, "jpd.csv")
        with open(self.jpd_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in [header] + body:
                writer.writerow([row[0]] + [row[c] for c in cols])
        nonzero = sum(1 for occ in checks.read_jpd(self.jpd_path).values() if occ > 0.0)
        self.items = nonzero * (1 + len(self.distances))
        return [config_path, "--workers", "1", "--out", out_dir, "aep", "--jpd", self.jpd_path,
                "--distances", _fmt_list(self.distances)]

    def check(self, out_dir, stdout_text: str, rc: int) -> checks.Outcome:
        if rc != 0:
            return checks.Outcome(self.items, [f"oswec aep exited {rc}"])
        return checks.check_aep(out_dir, self.jpd_path, self.model, self.distances)


class WaveSweep:
    """``oswec sweep --study wave`` at one height, axes shuffled by the seed."""

    name = "wave_sweep"

    def __init__(self, distances=(10.0, 33.0, 70.0), periods=WAVE_PERIODS, height=1.75):
        self.distances = tuple(distances)
        self.periods = tuple(periods)
        self.height = height
        self.items = len(self.distances) * len(self.periods)

    def prepare(self, run_dir, seed: int, out_dir) -> list[str]:
        config_path, cfg = _write_config(run_dir, seed, out_dir)
        self.model = FlapModel.from_config(cfg)
        self.steps_per_period = cfg["integration"]["steps_per_period"]
        rng = random.Random(seed)
        distances = rng.sample(self.distances, len(self.distances))
        periods = rng.sample(self.periods, len(self.periods))
        return [config_path, "--workers", "1", "--out", out_dir, "sweep", "--study", "wave",
                "--heights", _fmt_list([self.height]), "--distances", _fmt_list(distances),
                "--periods", _fmt_list(periods)]

    def check(self, out_dir, stdout_text: str, rc: int) -> checks.Outcome:
        if rc != 0:
            return checks.Outcome(self.items, [f"oswec sweep exited {rc}"])
        return checks.check_wave_sweep(out_dir, self.model, self.distances, self.periods, self.height)


class VerifyOracle:
    """``oswec verify`` on the reference configuration with seed ``VERIFY_CONFIG_SEED``."""

    name = "verify_oracle"
    items = VERIFY_CASES

    def prepare(self, run_dir, seed: int, out_dir) -> list[str]:
        config_path, cfg = _write_config(run_dir, VERIFY_CONFIG_SEED, out_dir)
        self.steps_per_period = cfg["integration"]["steps_per_period"]
        return [config_path, "--workers", "1", "verify", "--cases", str(self.items)]

    def check(self, out_dir, stdout_text: str, rc: int) -> checks.Outcome:
        return checks.check_verify(stdout_text, rc, self.items)


WORKLOADS = {w.name: w for w in (AepSite, WaveSweep, VerifyOracle)}


class Runner:
    """Spawns the child processes of one benchmark run inside its run directory."""

    def __init__(self, run_dir, argv: list[str], deadline: float):
        self.run_dir = run_dir
        self.argv = argv
        self.deadline = deadline
        self.env = dict(os.environ, **CHILD_ENV)
        self.count = 0

    def spawn(self, mode: str) -> tuple[dict, int, str, str]:
        """Run ``child.py`` once; returns its timing, exit code, stdout and trace path."""
        self.count += 1
        base = os.path.join(self.run_dir, f"{self.count:03d}-{mode}")
        timing_path, trace_path = base + ".timing.json", base + ".spans.json"
        with open(base + ".out", "w+", encoding="utf-8") as out, open(base + ".err", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), timing_path, mode, trace_path,
                 "--", *self.argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"{mode} process overran the run's time limit") from None
            finally:
                if proc.poll() is None:  # timed out, interrupted or terminated
                    proc.kill()
                    proc.wait()
            out.seek(0)
            stdout_text = out.read()
        if rc != 0:
            with open(base + ".err", encoding="utf-8") as fh:
                raise RuntimeError(f"child process exited {rc}: {fh.read()[-2000:]}")
        with open(timing_path, encoding="utf-8") as fh:
            timing = json.load(fh)
        return timing, timing.get("rc", 0), stdout_text, trace_path


def run(workload, seed: int, seconds: float, trace: bool, run_dir) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the problems found."""
    start = time.monotonic()
    out_dir = os.path.join(run_dir, "out")
    argv = workload.prepare(run_dir, seed, out_dir)
    runner = Runner(run_dir, argv, start + RUN_LIMIT_S)

    runner.spawn("setup")  # warm-up: bytecode caches and the file cache, not counted

    modes = ("run", "trace") if trace else ("run",)
    probes = 0 if trace else SETUP_PROBES
    setups: list[float] = []
    timings = {mode: [] for mode in modes}
    traces = []
    problems: list[str] = []
    failed = attempted = cycles = 0
    t0 = time.monotonic()
    while True:
        # spread over the run, so that the set-up median sees the same quiet
        # and busy spells of the host as the rounds do
        setups += [runner.spawn("setup")[0]["setup_s"] for _ in range(probes)]
        for mode in modes:
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            timing, rc, stdout_text, trace_path = runner.spawn(mode)
            outcome = workload.check(out_dir, stdout_text, rc)
            attempted += workload.items
            failed += outcome.failed
            problems += outcome.problems
            timings[mode].append(timing)
            if mode == "trace":
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        cycles += 1
        now = time.monotonic()
        step = (now - t0) / cycles
        if now - t0 + step > seconds or now + step > runner.deadline:
            break

    def median(mode, key):
        return statistics.median(t[key] for t in timings[mode])

    if trace:
        import spans

        overhead = median("trace", "wall_s") - median("run", "wall_s")
        metrics = spans.per_layer_metrics(traces, workload.items, workload.steps_per_period, overhead)
    else:
        setups += [t["setup_s"] for t in timings["run"]]
        metrics = {
            "cpu_s": {"value": median("run", "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("run", "peak_rss_mb"), "unit": "MiB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    absent = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if absent:
        print(f"bench: not a source checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result, problems = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                               bool(args.trace), run_dir)
    except RuntimeError as exc:
        print(f"bench: {exc} (files kept in {run_dir})", file=sys.stderr)
        return 1
    for problem in problems[:50]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if problems:
        print(f"bench: outputs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
