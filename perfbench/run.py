"""cfkit benchmark: four user-path workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload is run untraced, repeatedly, for
about S seconds of wall time and the end-to-end metrics are reported.  Times
are the CPU time (user + system) of the child processes, which a busy shared
host does not inflate the way it inflates wall time, scaled to a reference
host speed that ``speed_probe.py`` measures during the run.  With ``--trace 1``
untraced and traced runs alternate, and the per-layer metrics of the traced
runs are reported.  Every output is checked against ``reference.py``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a readable
report.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
from tracer import summarize

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
SPEED_PROBE = str(HERE / "speed_probe.py")

# Input sizes, chosen so that one workload run takes about a second or two.
BATCH_ROWS = 10_000
CLINIC_ASSESSMENTS = 250
STUDY_TRIALS = 3_000

# Median CPU time of speed_probe.py on the reference host (a shared host with
# 2 CPUs, Python 3.11.7, numpy 2.4.6).  Every time metric is scaled by this
# over the probe's median in the run, so it reads as CPU time on that host
# at the speed it had when this was measured.
PROBE_REF_S = 0.50
MIN_REPS = 3
# A child that runs this long is killed, so that a hung program cannot hold
# the benchmark past its own time limit.
CHILD_TIMEOUT_S = 60
FIGURE_FILES = ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig7.csv", "fig8.csv")


@dataclass
class Job:
    """What one run of a workload executes, and how its outputs are checked."""

    entry: str
    argv: list
    traced_argv: list
    outputs: list
    # output records (operations) of one run
    records: int
    # check(texts, fails) adds the records that fail the reference check
    check: object
    props: dict
    latencies: Path | None = None


@dataclass
class Measured:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    setup_cpus: list = field(default_factory=list)
    setup_walls: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    traced_cpus: list = field(default_factory=list)
    layer_runs: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _cli_job(cli_args, work, outputs, records, check, props):
    return Job(
        entry="cfkit.cli",
        argv=["-m", "cfkit.cli", *cli_args],
        traced_argv=[CHILD, "--spans", str(work / "spans.json"), "cli", *cli_args],
        outputs=outputs,
        records=records,
        check=check,
        props=props,
    )


def batch_distance(seed, work):
    pairs, text, props = inputs.batch_pairs(seed, BATCH_ROWS)
    src = work / "pairs.csv"
    src.write_text(text)
    out = work / "distances.txt"
    args = ["distance", "--measure", "c", "--p", "3", "--lambda", "0.5",
            "--batch", str(src), "--out", str(out)]

    def check(texts, fails):
        reference.check_batch(pairs, texts[out.name], 3, 0.5, fails)

    return _cli_job(args, work, [out], len(pairs), check, props)


def pain_clinic(seed, work):
    stream, props = inputs.clinic_stream(seed, CLINIC_ASSESSMENTS)
    src = work / "stream.json"
    src.write_text(json.dumps(stream))
    out = work / "solutions.csv"
    lat = work / "latencies.txt"
    args = ["clinic", str(src), str(out), str(lat)]

    def check(texts, fails):
        reference.check_clinic(stream, texts[out.name], fails)

    return Job("cfkit", [CHILD, *args], [CHILD, "--spans", str(work / "spans.json"), *args],
               [out], len(stream), check, props, latencies=lat)


def simulate_study(seed, work):
    pair, props = inputs.study_pair(seed)
    out = work / "study.csv"
    args = ["simulate", "--pair", *(",".join(map(repr, f)) for f in pair),
            "--trials", str(STUDY_TRIALS), "--seed", str(seed % 2**32)]
    args += [x for p in inputs.STUDY_ORDERS for x in ("--p", str(p))]
    args += [x for lam in inputs.STUDY_LAMBDAS for x in ("--lambda", repr(lam))]
    args += ["--out", str(out)]
    props["trials"] = STUDY_TRIALS
    props["rows"] = STUDY_TRIALS * len(inputs.STUDY_ORDERS) * len(inputs.STUDY_LAMBDAS)

    def check(texts, fails):
        reference.check_study(pair, STUDY_TRIALS, inputs.STUDY_ORDERS, inputs.STUDY_LAMBDAS,
                              texts[out.name], fails)

    return _cli_job(args, work, [out], props["rows"], check, props)


def paper_figures(seed, work):
    out_dir = work / "figures"
    args = ["export-figures", str(out_dir), "--seed", str(seed % 2**32)]

    props = {"rows": reference.FIGURE_ROWS, "files": len(FIGURE_FILES)}
    return _cli_job(args, work, [out_dir / f for f in FIGURE_FILES], reference.FIGURE_ROWS,
                    reference.check_figures, props)


WORKLOADS = {
    "batch-distance": batch_distance,
    "pain-clinic": pain_clinic,
    "simulate-study": simulate_study,
    "paper-figures": paper_figures,
}


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child_timeout(signum, frame):
    raise TimeoutError(f"a child ran longer than {CHILD_TIMEOUT_S} s")


def spawn(argv, env, log):
    """Run the interpreter with ``argv``, its stderr going to ``log``.

    Returns (wall s, CPU s, peak RSS MB, exit code); CPU time is the child's
    user plus system time and RSS its peak, both from its own ``os.wait4``
    rusage.
    """
    with open(log, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, _child_timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = (time.perf_counter_ns() - start) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def probe(env):
    """Import the program once (filling the bytecode cache) and describe it."""
    code = (
        "import json, sys, numpy, cfkit, cfkit.cli, cfkit.backends as b\n"
        "name = getattr(b, 'backend_name', None)\n"
        "print(json.dumps({'cfkit': cfkit.__file__, 'python': sys.version.split()[0],"
        " 'numpy': numpy.__version__, 'backend': name() if name else None}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"cannot import cfkit from {SRC}:\n{out.stderr}")
    info = json.loads(out.stdout)
    if not Path(info["cfkit"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cfkit imported from {info['cfkit']}, not from {SRC}")
    info["nproc"] = os.cpu_count()
    info["machine"] = platform.machine()
    return info


def spawn_checked(argv, env, work):
    """Run a child that is not the workload; return its (wall s, CPU s)."""
    wall, cpu, _, code = spawn(argv, env, work / "aside.log")
    if code != 0:
        raise SystemExit(f"{argv} failed:\n{(work / 'aside.log').read_text()}")
    return wall, cpu


def invoke(job, traced, env, work, m):
    """Run the workload once, check its outputs and record what was measured."""
    for path in job.outputs:
        path.unlink(missing_ok=True)
    log = work / "stderr.log"
    wall, cpu, rss, code = spawn(job.traced_argv if traced else job.argv, env, log)
    if traced:
        m.traced_cpus.append(cpu)
    else:
        m.walls.append(wall)
        m.cpus.append(cpu)
        m.rss_mb.append(rss)
    m.attempted += job.records
    if code != 0:
        m.failed += job.records
        m.problems.append(f"exit code {code}: {log.read_text()[-2000:]}")
        return wall

    texts = {p.name: p.read_bytes() for p in job.outputs}
    digest = hashlib.sha256(b"".join(hashlib.sha256(texts[p.name]).digest()
                                     for p in job.outputs)).hexdigest()
    if digest not in m.digests:
        fails = reference.Failures()
        job.check({name: data.decode() for name, data in texts.items()}, fails)
        m.digests[digest] = (min(fails.count, job.records),
                             {n: (len(d), hashlib.sha256(d).hexdigest()) for n, d in texts.items()})
        m.problems += fails.messages
        if len(m.digests) > 1:
            m.problems.append("output bytes differ between runs of the same inputs")
    # Every run repeats the same inputs, so any output other than the first
    # one seen is not byte-identical and fails as a whole.
    m.failed += m.digests[digest][0] if digest == next(iter(m.digests)) else job.records

    if traced:
        with open(work / "spans.json") as fh:
            metrics, facts = summarize(json.load(fh))
        if job.entry == "cfkit.cli":
            metrics["cli.out_bytes"] = sum(map(len, texts.values()))
        m.layer_runs.append((metrics, facts))
    elif job.latencies is not None:
        m.latencies_ns += [int(x) for x in job.latencies.read_text().split()]
    return wall


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(args, spec, work):
    env = child_env()
    info = probe(env)
    job = WORKLOADS[args.workload](args.seed, work)

    m = Measured()
    # One warm-up run fills the file cache; it is checked but not timed.
    invoke(job, False, env, work, m)
    m.walls.clear()
    m.cpus.clear()
    m.rss_mb.clear()
    m.latencies_ns.clear()
    traced_modes = (False, True) if args.trace else (False,)
    cycles = []
    # Only the children's wall time counts towards --seconds.  The host's
    # speed drifts over minutes, so every cycle runs the speed probe and one
    # set-up (interpreter start and import of the entry module) right before
    # the workload, and the probe's median over the run sets the scale.
    while len(cycles) < MIN_REPS or sum(cycles) + statistics.median(cycles) < args.seconds:
        probe_wall, probe_cpu = spawn_checked([SPEED_PROBE], env, work)
        setup_wall, setup_cpu = spawn_checked(["-c", f"import {job.entry}"], env, work)
        m.probes.append(probe_cpu)
        m.setup_cpus.append(setup_cpu)
        m.setup_walls.append(setup_wall)
        cycles.append(probe_wall + setup_wall
                      + sum(invoke(job, traced, env, work, m) for traced in traced_modes))

    scale = PROBE_REF_S / statistics.median(m.probes)
    cpu_s = statistics.median(m.cpus) * scale
    # Per-assessment latencies for pain-clinic; per-invocation for the CLI.
    lat = m.latencies_ns or [c * 1e9 for c in m.cpus]
    values = {
        "setup_s": statistics.median(m.setup_cpus) * scale,
        "cpu_s": cpu_s,
        "records_per_cpu_s": job.records / cpu_s,
        "peak_rss_mb": statistics.median(m.rss_mb),
        "latency_cpu_ms_p50": percentile(lat, 50) * scale / 1e6,
        "latency_cpu_ms_p95": percentile(lat, 95) * scale / 1e6,
    }
    facts = []
    if m.layer_runs:
        for name in {k for metrics, _ in m.layer_runs for k in metrics}:
            values[name] = statistics.median(metrics.get(name, 0) for metrics, _ in m.layer_runs)
        traced_cpu = statistics.median(m.traced_cpus)
        values["trace.overhead_frac"] = traced_cpu / statistics.median(m.cpus) - 1.0
        facts = [f for _, f in m.layer_runs]
        for f in facts:
            if not f["nested"] or abs(f["self_sum_s"] - f["top_level_s"]) > 1e-6:
                m.problems.append(f"span self times do not add up to the top-level span: {f}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {w["name"]: {"value": float(values.get(w["name"], 0.0)), "unit": w["unit"]}
               for w in wanted}
    absent = sorted({a for f in facts for a in f["absent"]})
    correct = m.failed == 0 and not m.problems

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(m.walls)} traced_runs={len(m.traced_cpus)} measured_s={sum(cycles):.2f}")
    print("machine: " + json.dumps(info))
    print("input: " + json.dumps(job.props))
    for _, outputs in m.digests.values():
        for name, (size, sha) in outputs.items():
            print(f"output: {name} bytes={size} sha256={sha}")
    print("cpus_s: " + " ".join(f"{c:.3f}" for c in m.cpus))
    print("walls_s: " + " ".join(f"{w:.3f}" for w in m.walls))
    print(f"unscaled (not metrics): run median {statistics.median(m.cpus):.6f} s CPU, "
          f"{statistics.median(m.walls):.6f} s wall; setup median "
          f"{statistics.median(m.setup_cpus):.6f} s CPU, {statistics.median(m.setup_walls):.6f} s wall")
    print(f"speed probe: median {statistics.median(m.probes):.6f} s CPU over {len(m.probes)} runs, "
          f"scale {scale:.6f} = {PROBE_REF_S} / median")
    print(f"latency samples: {len(lat)} {'assessments' if m.latencies_ns else 'invocations'}")
    if facts:
        f = facts[0]
        print(f"trace (first traced run): spans={f['spans']} top_level_s={f['top_level_s']:.6f} "
              f"self_sum_s={f['self_sum_s']:.6f} errors={f['errors']} absent={absent}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'failed_frac':<44} {m.failed / max(m.attempted, 1):>16.6f} fraction")
    for problem in m.problems[:10]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cfkit" / "__init__.py").is_file():
        sys.exit(f"no cfkit sources under {SRC}; run from the root of a cfkit checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
