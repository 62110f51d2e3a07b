"""Benchmark of the pommaret CLI on seeded ideal ladders.

    python3 perfbench/run.py --workload betti-n6 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  One run builds the workload's
ladder from --seed (see ladders.py), then, in this one process and until
--seconds have passed and at least three passes are done, imports pommaret
afresh, writes the ideal files and times a pass of
``pommaret.cli.main(argv)`` over them.  Every command is
checked: exit code, the verdict of ``verify``, and a sha256 of its output
against the reference digests in reference.json (against the first pass at
seeds without a reference).  On betti-n6 each Betti table is also compared,
outside every timed metric, with ``oracle_betti`` wherever the ideal has at
most 10 generators.

setup_s and pass_s are wall times scaled to the machine's speed during the
run, which probe() measures between commands (README.md § Machine speed).
--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced passes and prints the per-layer metrics (tracer.py).  The last line
of stdout is the result JSON; the lines before it give every metric with its
unit, the provenance and the samples behind each median.  README.md explains
the workloads and which layer metric should move which end-to-end metric.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ladders import Rung, build_ladder, ideal_text  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 3   # set-up repetitions before each pass
MIN_PASSES = 3
MIN_TRACED = 2
ORACLE_MAX_GENS = 10
REFERENCE_SEEDS = 32  # reference.json holds ladder digests for seeds 0..31
PROBES_PER_PASS = 16  # machine-speed probes per pass, spread over its commands
PROBE_REF_S = 0.001   # probe time that setup_s and pass_s are scaled to


@dataclass(frozen=True)
class Workload:
    argv: tuple       # command and flags; the ideal file follows the command
    rungs: tuple
    verdict: str = None   # output format whose verdict must read ok
    oracle: bool = False  # compare Betti tables with oracle_betti


def _sweep_rungs():
    # the `random-test` recipe: case c of --seed 0 draws
    # random_quasi_stable(c, n_c, 5, count_c); the band drops the rare n=4
    # draws that cost a hundred times the median
    rungs = []
    for c in range(150):
        n = 2 + (c * 7919 + 11) % 3
        count = (c * 104729 + 3) % 5
        lo, hi = {2: (1, 64), 3: (1, 48), 4: (40, 96)}[n]
        rungs.append(Rung(n, 5, count, lo, hi, c))
    return tuple(rungs)


# README.md says why each workload exists and which layer leads on it.  The
# ladders are sized to passes of about 2 s at seed 0, so that a run of 25 s
# holds about ten passes; the bands keep the cost of a ladder similar from
# seed to seed (cells-n8: every ideal in its band has two class-1 elements,
# which set its cost).
WORKLOADS = {
    "betti-n6": Workload(
        ("betti", "--format", "json"),
        tuple(Rung(6, 4, 8, 320, 400, b) for b in range(10))
        + tuple(Rung(6, 6, 10, 320, 400, b) for b in range(10, 20)),
        oracle=True),
    "verify-n5": Workload(
        ("verify", "--format", "json"),
        tuple(Rung(5, 6, 8, 100, 150, b) for b in range(24)),
        verdict="json"),
    "cells-n8": Workload(
        ("cellular", "--format", "json"),
        (Rung(8, 2, 2, 440, 512, 5), Rung(8, 2, 3, 440, 512, 11))),
    "sweep-small": Workload(("verify",), _sweep_rungs(), verdict="text"),
}

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("symbols_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# per-layer metrics: a ".s" metric is the self time of the span of that
# name ("cli" for cli.self.s), the others are tracer counters or ratios
PER_LAYER = (
    ("cli.parse_ideal.s", "s"), ("cli.self.s", "s"),
    ("ideals.pommaret_basis.s", "s"), ("ideals.basis_size", "count"),
    ("ideals.build_p_graph.s", "s"), ("ideals.edges", "count"),
    ("resolution.ps_complex.s", "s"), ("resolution.symbols", "count"),
    ("resolution.nnz", "count"), ("resolution.taylor_complex.s", "s"),
    ("cellular.build_cell_complex.s", "s"), ("cellular.cells", "count"),
    ("cellular.chain_vertices.calls", "count"),
    ("cellular.supports_check.s", "s"),
    ("morse.build_matching_V.s", "s"), ("morse.pairs", "count"),
    ("morse.is_morse_matching.s", "s"), ("morse.minimize.s", "s"),
    ("morse.fill_in", "count"), ("morse.safety_net", "count"),
    ("morse.kept_ratio", "ratio"),
    ("verify.check_complex.s", "s"), ("verify.check_exactness.s", "s"),
    ("verify.strands", "count"), ("verify.exact_rank.s", "s"),
    ("verify.exact_rank.calls", "count"), ("verify.rank_nnz", "count"),
    ("verify.homological_invariants.s", "s"),
    ("verify.oracle_betti.s", "s"),
    ("monomials.constructed", "count"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)


def _summary(samples):
    """Median, quartiles and count of a sample list."""
    q = (statistics.quantiles(samples, n=4) if len(samples) > 1
         else [samples[0]] * 3)
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2],
            "n": len(samples)}


def _git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fresh_cli():
    """Import pommaret.cli from the checkout, dropping any earlier import,
    so that every set-up repetition pays the import a CLI start pays."""
    for name in [m for m in sys.modules
                 if m == "pommaret" or m.startswith("pommaret.")]:
        del sys.modules[name]
    cli = importlib.import_module("pommaret.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("pommaret imported from %s, not from this checkout"
                          % cli.__file__)
    return cli


class Gate:
    """Correctness checks on every command of a run."""

    def __init__(self, workload, seed, ladder, ref):
        self.workload = workload
        self.ladder = ladder
        self.expected = dict(ref.get("outputs", {})) if seed == 0 else {}
        self.ladder_digest = ref.get("ladders", {}).get(str(seed))
        self.ladder_bad = False
        self.first = {}
        self.last_output = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ideal, rc, data):
        self.attempted += 1
        digest = hashlib.sha256(data).hexdigest()
        why = None
        if rc != 0:
            why = "exit code %s" % rc
        elif self.workload.verdict and not _verdict_ok(
                self.workload.verdict, data):
            why = "verdict is not ok"
        elif digest != self.expected.get(ideal.name, digest):
            why = "output differs from the reference digest"
        elif digest != self.first.setdefault(ideal.name, digest):
            why = "output differs from the first pass"
        elif self.ladder_bad:
            why = "ladder digest differs from the reference"
        if self.workload.oracle:
            self.last_output[ideal.name] = data
        self._fail(ideal, why)

    def _fail(self, ideal, why):
        if why:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("%s: %s" % (ideal.name, why))

    def after_first_pass(self):
        """Compare the whole first pass with the ladder digest, where the
        reference holds one for this seed.  The outputs do not change from
        pass to pass, so a mismatch fails every command of the run."""
        if self.ladder_digest and self.ladder_digest != ladder_digest(
                [(i.name, self.first.get(i.name)) for i in self.ladder]):
            self.ladder_bad = True
            self.failed = self.attempted
            self.reasons.append("ladder digest differs from the reference")

    def oracle(self, cli):
        """Betti tables of betti-n6 against the Taylor-route oracle."""
        from pommaret.verify import oracle_betti
        checked = 0
        for ideal in self.ladder:
            if len(ideal.gens) > ORACLE_MAX_GENS:
                continue
            try:
                got = json.loads(self.last_output[ideal.name])["betti"]
            except (ValueError, KeyError):
                got = None  # the command failed; its output has no table
            want = oracle_betti(cli.parse_ideal(ideal_text(ideal)))
            want = {"%d,%d" % k: v for k, v in want.by_degree.items()}
            checked += 1
            self.attempted += 1
            self._fail(ideal, None if got == want
                       else "Betti table differs from oracle_betti")
        return checked


def _verdict_ok(fmt, data):
    if fmt == "json":
        return json.loads(data).get("ok") is True
    return data.decode().rstrip().endswith("verdict: ok")


def ladder_digest(named_digests):
    text = "".join("%s %s\n" % nd for nd in named_digests)
    return hashlib.sha256(text.encode()).hexdigest()


def probe():
    """Wall time of a fixed pure-Python loop of tuple, dict and list work,
    the kind of work the program does: a measure of how fast the machine
    runs Python at this moment."""
    t0 = time.perf_counter()
    table, recent = {}, []
    for i in range(3000):
        t = ((i * 7) % 1013, i & 15, i >> 4)
        table[t[0]] = table.get((i * 13) % 1013, 0) + t[1]
        recent.append(t)
        if len(recent) > 64:
            recent = [x for x in recent if x[2] & 1][:16]
    return time.perf_counter() - t0


def write_ladder(ladder, work):
    """Write one ideal file per ideal; returns the (ideal, path) pairs."""
    files = []
    for ideal in ladder:
        path = work / (ideal.name + ".txt")
        path.write_text(ideal_text(ideal))
        files.append((ideal, path))
    return files


def run_pass(cli, workload, files, out, gate, tracer=None, probes=None):
    """One pass over the ladder; returns the summed command wall time.
    With a `probes` list, probe() runs before every command, outside the
    timed region, and its times are appended to the list."""
    wall = 0.0
    per_command = -(-PROBES_PER_PASS // len(files))
    for ideal, path in files:
        if probes is not None:
            probes.extend(probe() for _ in range(per_command))
        argv = [workload.argv[0], str(path), *workload.argv[1:],
                "--out", str(out)]
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli", cli.main, argv)
        except Exception as e:
            # an exception escaping the CLI fails this command only
            rc = "%s: %s" % (type(e).__name__, e)
        wall += time.perf_counter() - t0
        gate.check(ideal, rc, out.read_bytes() if out.exists() else b"")
    return wall


def _layer_metrics(tracer):
    """Per-layer metrics of one traced pass, except trace.overhead."""
    times = tracer.layer_times()
    counts = tracer.counts
    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".s"):
            span = "cli" if name == "cli.self.s" else name[:-2]
            out[name] = times.get(span, (0, 0.0, 0.0))[2]
        elif name in counts:
            out[name] = counts[name]
    offered = counts["morse.symbols_in"]
    out["morse.kept_ratio"] = (counts["morse.symbols_kept"] / offered
                               if offered else 0.0)
    out["trace.coverage"] = tracer.coverage("cli")
    return out, times


def measure(workload, ladder, work, gate, seconds, traced):
    """Set-ups and passes until `seconds` have gone by; returns the probe,
    set-up and pass samples and the CLI module of the last set-up.

    Every pass starts from a fresh import, as a CLI start does, and the
    set-up repetitions are spread over the run like the passes, so that
    setup_s sees the same machine as pass_s.  The plain passes collect the
    machine-speed probes."""
    probes, setup, plain, traced_runs = [], [], [], []
    out = work / "out"
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            cli = _fresh_cli()
            files = write_ladder(ladder, work)
            setup.append(time.perf_counter() - t0)
        plain.append(run_pass(cli, workload, files, out, gate,
                              probes=probes))
        if len(plain) == 1:
            gate.after_first_pass()
        if traced:  # from a fresh import too, like the plain pass
            cli = _fresh_cli()
            tracer = Tracer(cli).install()
            try:
                wall = run_pass(cli, workload, files, out, gate, tracer)
            finally:
                tracer.uninstall()
            traced_runs.append((wall, tracer))
        done = time.perf_counter() - start >= seconds
        if done and len(plain) >= (MIN_TRACED if traced else MIN_PASSES):
            break
    return probes, setup, plain, traced_runs, cli


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rungs", type=int, default=None,
                   help="use only the first RUNGS rungs (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be at least 0")
    workload = WORKLOADS[args.workload]
    rungs = workload.rungs[:args.rungs] if args.rungs else workload.rungs

    if not (ROOT / "src" / "pommaret" / "cli.py").is_file():
        sys.stderr.write("error: no pommaret sources under %s\n"
                         % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, rungs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(args, workload, rungs, work):
    # the ladder is the benchmark's own work, so it is built once and kept
    # out of setup_s, which times what a CLI start pays: the import of
    # pommaret and the ideal files it reads
    t0 = time.perf_counter()
    ladder = build_ladder(rungs, args.seed)
    ladder_s = time.perf_counter() - t0
    symbols = sum(i.symbols for i in ladder)
    ref = json.loads((HERE / "reference.json").read_text())
    ref = ref["workloads"].get(args.workload, {})
    if len(rungs) < len(workload.rungs):  # ladder digests cover all rungs
        ref = {"outputs": ref.get("outputs", {})}
    gate = Gate(workload, args.seed, ladder, ref)

    probes, setup, plain, traced, cli = measure(
        workload, ladder, work, gate, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    oracle_checked = gate.oracle(cli) if workload.oracle else 0

    # wall times are scaled by PROBE_REF_S / the run's mean probe, which
    # takes out the machine's speed during the run (README.md § Machine
    # speed); the mean, not the median, because the machine switches
    # between a fast and a slow state and a pass pays for the time it
    # spends in each
    samples = {"probe_s": _summary(probes), "setup_wall_s": _summary(setup),
               "pass_wall_s": _summary(plain)}
    probe_mean = statistics.fmean(probes)
    scale = PROBE_REF_S / probe_mean
    pass_wall = samples["pass_wall_s"]["median"]
    pass_s = pass_wall * scale
    units = dict(END_TO_END)
    if args.trace:
        per_pass = [_layer_metrics(t) for _, t in traced]
        samples["traced_pass_s"] = _summary([w for w, _ in traced])
        metrics = {}
        for name, _unit in PER_LAYER:
            if name == "trace.overhead":  # over the run, not pass by pass
                metrics[name] = (samples["traced_pass_s"]["median"]
                                 / pass_wall - 1)
                continue
            values = [m[name] for m, _ in per_pass]
            samples[name] = _summary(values)
            metrics[name] = statistics.median(values)
        units = dict(PER_LAYER)
        spans = {name: {"calls": c, "total_s": t, "self_s": s}
                 for name, (c, t, s) in sorted(per_pass[-1][1].items())}
    else:
        metrics = {"setup_s": samples["setup_wall_s"]["median"] * scale,
                   "pass_s": pass_s,
                   "symbols_per_s": symbols / pass_s,
                   "peak_rss_mb": peak_rss_mb}
        spans = None

    failed_frac = gate.failed / gate.attempted
    for name, value in list(metrics.items()) + [("failed_frac",
                                                 failed_frac)]:
        print("%-34s %14.6g %s" % (name, value, units.get(name, "ratio")))
    detail = {
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "argv": list(workload.argv),
            "rungs": sorted({(r.n, r.max_deg, r.count, r.lo, r.hi)
                             for r in rungs}),
            "ideals": len(ladder), "symbols": symbols,
        },
        "ladder_s": ladder_s,
        "probe_mean_s": probe_mean, "scale": scale,
        "ladder": [[i.name, i.seed, len(i.gens), i.basis, i.symbols]
                   for i in ladder],
        "samples": samples,
        "failed_frac": failed_frac,
        "oracle_checked": oracle_checked,
        "failures": gate.reasons,
        "spans": spans,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
