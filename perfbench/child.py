"""Child-process entry points of the benchmark.

    python perfbench/child.py [--spans FILE] clinic STREAM OUT LATENCIES
    python perfbench/child.py --spans FILE cli ARG...

``clinic`` is the pain-clinic client: one closed loop that takes the next
assessment only after the previous one is answered.  Each assessment goes
``PainAssessment`` -> ``solve_programming1`` -> ``interpret``; the results go
to OUT, one line each, and the per-assessment latencies in nanoseconds to
LATENCIES; a latency is the CPU time of the process during that assessment.
``cli`` runs ``cfkit.cli.main`` in this process, which the
untraced benchmark runs as ``python -m cfkit.cli`` instead.  With ``--spans``
the run is traced and the spans are written to FILE at the end.
"""

from __future__ import annotations

import json
import sys
import time


def clinic(stream_path, out_path, latency_path, tracer=None):
    import cfkit

    with open(stream_path) as fh:
        stream = json.load(fh)

    def assess(a):
        assessment = cfkit.PainAssessment(a["items"], a["u"], a["v"])
        p = cfkit.CHEBYSHEV if a["p"] == "inf" else a["p"]
        solution = cfkit.solve_programming1(
            assessment.sim_to_scale0,
            assessment.sim_to_scale10,
            assessment.patient_pain,
            cfkit.DistanceParams(p=p, lam=a["lambda"]),
        )
        return solution, cfkit.interpret(solution)

    if tracer is not None:
        assess = tracer.wrap("clinic.assessment", assess)
    clock = time.process_time_ns
    lines, latencies = [], []
    for i, a in enumerate(stream):
        if tracer is not None:
            tracer.run = i
        start = clock()
        solution, verdict = assess(a)
        latencies.append(clock() - start)
        lines.append(
            f"{solution.j_opt!r},{solution.s_opt!r},{solution.confusion_ratio!r},"
            f"{verdict.recommendation},{verdict.final_pain_score!r}\n"
        )
    with open(out_path, "w") as fh:
        fh.writelines(lines)
    with open(latency_path, "w") as fh:
        fh.write("\n".join(map(str, latencies)) + "\n")
    return 0


def main(argv):
    tracer = None
    spans_path = None
    if argv[:1] == ["--spans"]:
        from tracer import Tracer

        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    mode, args = argv[0], argv[1:]
    if mode == "clinic":
        code = clinic(*args, tracer=tracer)
    elif mode == "cli" and tracer is not None:
        import cfkit.cli

        code = cfkit.cli.main(args)
    else:
        raise SystemExit(f"usage: {__doc__}")
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
