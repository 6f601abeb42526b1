"""Cold-process benchmark for porcfield.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A closed loop with one client: every input of the seeded workload runs as
its own cold `python -m porcfield.cli ...` process, one at a time, imports
included, all on one core.  Passes over the workload repeat until --seconds
is used up.  A short speed probe on that core just before and just after
every process scales its times to the reference core speed, and each
process counts with its fastest scaled run.  Every output then goes
through the correctness gate (outside the timed region).

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs the same
inputs in this process through `porcfield.cli.main`, alternating untraced
and traced passes, and reports the per-layer metrics of `spans.py` plus the
tracing overhead.  `--workload all` runs every workload in turn.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md
for the workloads, the metric map and the known gaps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checkout import ROOT, SRC, use_checkout_source
from workloads import SETUP_JOB, WORKLOAD_NAMES, tail_jobs, workload_jobs

#: Cold set-up processes before every pass; setup_s is the median of them all.
SETUP_PER_PASS = 4
#: Cold `import porcfield.cli` probes per traced run; cli.import_s is their median.
IMPORT_REPEATS = 3
#: A cold process or in-process call running longer than this is killed and fails.
PROCESS_TIMEOUT = 60.0

# Children always cache bytecode (in the checkout's src/), as an installed
# package would, whatever the caller's environment says.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}
#: Seconds that speed_probe() takes on a quiet core of the reference sandbox
#: (2 vCPU Xeon at 2.1 GHz, Python 3.11.7); scaled times are at that speed.
PROBE_REFERENCE_S = 0.011

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import porcfield.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Proc:
    """One finished cold process, with its own rusage from wait4."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    #: PROBE_REFERENCE_S over the speed probes around the process: below 1
    #: when the core was slower than the reference
    speed: float = 1.0


def run_cold(command) -> Proc:
    """Run one child to completion; time it and read its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    captured = {}

    def drain(key, stream):
        captured[key] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    killer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here, so Popen must not wait for it again
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    if code != 0 and captured["err"]:
        sys.stderr.write(captured["err"].decode(errors="replace")[-2000:])
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kilobytes
        code=code,
        stdout=captured["out"].decode(),
    )


def speed_probe() -> float:
    """Seconds a fixed pure-Python workload takes on this core right now.

    Other tenants of the host slow a core by up to half, in spells from
    seconds to minutes.  The probe sees the same slowdown as a child just
    before or after it on that core, and it shares no code with porcfield,
    so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    acc, table = 1, {}
    for i in range(40_000):
        acc = (acc * 1_000_003 + i) % 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF61
        table[i & 255] = acc >> 9
    return time.perf_counter() - t0


def run_probed(command) -> Proc:
    """run_cold, with the core's speed probed just before and just after."""
    before = speed_probe()
    proc = run_cold(command)
    after = speed_probe()
    return dataclasses.replace(proc, speed=2 * PROBE_REFERENCE_S / (before + after))


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "porcfield.cli", *argv]


class Tally:
    """Gate every output once and count attempts and failures."""

    def __init__(self, check_output):
        self._check = check_output
        self._verdicts: dict = {}
        self.attempted = 0
        self.failed = 0

    def record(self, job, code: int, stdout: str) -> None:
        key = (job.argv, code, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(job, code, stdout)
            if self._verdicts[key] is not None:
                print(f"FAIL {job.kind} {job.name}: {self._verdicts[key]}", file=sys.stderr)
        self.attempted += 1
        self.failed += self._verdicts[key] is not None


def timed_passes(seconds: float, one_pass):
    """Repeat one_pass() until another pass would overrun `seconds`; at least once."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return results


def sample_jobs(seconds: float, jobs, run_job, before_pass) -> list[list]:
    """Run the jobs in passes until the next run would overrun `seconds`.

    Returns each job's results in job order.  The first pass runs every job
    once, always in full; after it, sampling stops at the first run that no
    longer fits.  The error in a job's fastest run grows with its length, so
    later passes run each job round(sqrt(length / median length)) times, at
    least once, the repeats at the end of the pass: for a fixed time budget
    that spread of runs gives the smallest error in the sum.
    """
    start = time.perf_counter()
    samples = [[] for _ in jobs]
    last = [0.0] * len(jobs)
    order = list(range(len(jobs)))
    while True:
        for n, i in enumerate(order):
            if samples[i] and time.perf_counter() - start + last[i] > seconds:
                return samples
            if n == 0:
                before_pass()
            t0 = time.perf_counter()
            samples[i].append(run_job(jobs[i]))
            last[i] = time.perf_counter() - t0
        typical = statistics.median(last)
        repeats = [max(1, round(math.sqrt(t / typical))) for t in last]
        order = [i for r in range(max(repeats)) for i in range(len(jobs)) if repeats[i] > r]


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    jobs = workload_jobs(workload, seed)
    setup_command = cli_command(SETUP_JOB.argv)
    run_cold(setup_command)  # compiles bytecode; not counted
    setup = []

    def before_pass():
        # set-up samples are spread over the run, a few before every pass
        setup.extend(run_probed(setup_command) for _ in range(SETUP_PER_PASS))

    samples = sample_jobs(seconds, jobs, lambda j: run_probed(cli_command(j.argv)), before_pass)
    for p in setup:
        tally.record(SETUP_JOB, p.code, p.stdout)
    for job, runs in zip(jobs, samples):
        for p in runs:
            tally.record(job, p.code, p.stdout)

    # Every run is scaled to the reference core speed.  What load the probes
    # miss only ever adds time, so each process counts with its fastest run.
    wall = [min(p.wall * p.speed for p in runs) for runs in samples]
    cpu = [min(p.cpu * p.speed for p in runs) for runs in samples]
    rss = [statistics.median(p.rss_mb for p in runs) for runs in samples]
    every = [p for runs in samples for p in runs]
    print(f"# {workload} unscaled: wall_s {sum(min(p.wall for p in runs) for runs in samples):.4f}, "
          f"setup_s {statistics.median(p.wall for p in setup):.4f}, "
          f"median core speed {statistics.median(p.speed for p in every):.3f}")
    return {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "slowest_s": (max(wall), "s"),
        "setup_s": (statistics.median(p.wall * p.speed for p in setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "passes": (min(len(runs) for runs in samples), "count"),
    }


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import spans

    jobs = workload_jobs(workload, seed)
    probe = [sys.executable, "-c", IMPORT_PROBE]
    run_cold(probe)  # compiles bytecode; not counted
    import_s = [float(run_cold(probe).stdout) for _ in range(IMPORT_REPEATS)]

    # the shared tail jobs warm lazy state (sympy's prime sieve, oracle
    # caches) so that neither side of the first pair pays for it alone
    spans.run_pass(tail_jobs(), None, PROCESS_TIMEOUT)
    untraced, traced = [], []

    def run_untraced():
        untraced.append(spans.run_pass(jobs, None, PROCESS_TIMEOUT))

    def run_traced():
        rec = spans.Recorder()
        seconds_traced, results = spans.run_pass(jobs, rec, PROCESS_TIMEOUT)
        traced.append((seconds_traced, results, spans.layer_metrics(rec)))

    def pair():
        # alternate which side goes first, so drift does not favour one
        first, second = (run_untraced, run_traced) if len(traced) % 2 else (run_traced, run_untraced)
        first()
        second()

    timed_passes(seconds, pair)
    for _, results in untraced:
        for job, (code, out) in zip(jobs, results):
            tally.record(job, code, out)
    for _, results, _ in traced:
        for job, (code, out) in zip(jobs, results):
            tally.record(job, code, out)

    med = statistics.median
    metrics = {"cli.import_s": (med(import_s), "s")}
    for name, (_, unit) in traced[0][2].items():
        metrics[name] = (med(layers[name][0] for _, _, layers in traced), unit)
    untraced_s = med(s for s, _ in untraced)
    metrics["cli.main_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (med(s for s, _, _ in traced) / untraced_s, "ratio")
    metrics["passes"] = (len(traced), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    use_checkout_source()
    # the host's load slows each core on its own, so the children and the
    # speed probes that scale their times all run on one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from gate import check_output

    tally = Tally(check_output)
    measure = per_layer if args.trace else end_to_end
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    report = {}
    for workload in workloads:
        metrics = measure(workload, args.seed, args.seconds, tally)
        passes = metrics.pop("passes")[0]
        print(f"# {workload} seed={args.seed} trace={args.trace} passes={passes}")
        for name, (value, unit) in metrics.items():
            print(f"{workload:<14} {name:<38} {value:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            report[key] = {"value": value, "unit": unit}
    print(f"fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
