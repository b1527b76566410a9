"""zigzag-pca benchmark: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run generates the workload's model and spec files
from the seed, runs the workload's fixed command list once untimed, then
calls ``zigzag_pca.cli.main(argv)`` in this process for each command of the
list, back to back, and repeats the list until the next command would end
after ``--seconds``.  Every command's
exit code, verdict and output files are checked; a mismatch or a raised
exception counts as failed.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, measured with tracing off; each command also runs on a frozen copy
of the package (see ``NOTES.md``), and pass time is reported relative to it.
The peak memory is read after the warm-up pass, which runs only the package
under test.  With ``--trace 1`` untraced and traced
passes alternate; the last line carries the per-layer metrics of the traced
passes and the tracing overhead.  Lines before it print every metric by name
and unit, including per-command timings; the full result, with provenance
and, when traced, every span, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import provenance
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
SETUP_PAIRS = 4
# Median set-up time of the frozen reference on the machine that defined this
# benchmark (2-vCPU Xeon VM, see NOTES.md); setup_s is the package's set-up
# time relative to the reference's, in these seconds.
SETUP_REFERENCE_S = 0.46

END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
# byte-identical copy of src/zigzag_pca as of the commit that defined this
# benchmark, under another package name
REFERENCE = os.path.join(HERE, "reference")
COMMAND_KINDS = ("check", "solve", "verify", "simulate")


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def summarize(samples: list[float]) -> dict:
    """Median, the highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it, and the sample count."""
    import numpy as np
    out = {"median": median(samples), "n": len(samples), "tail": None}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - p / 100) >= 10:
            out["tail"] = {"p": p, "value": float(np.percentile(samples, p))}
            break
    return out


def balanced_ratio(pairs) -> float:
    """Ratio of the package's times to the reference's over (package seconds,
    reference seconds, package ran first) pairs.  Whichever runs second
    tends to be faster, so this is the geometric mean of the median ratio
    when the package ran first and the median ratio when the reference did."""
    by_order = [[c / r for c, r, first in pairs if first is order] for order in (True, False)]
    return math.sqrt(median(by_order[0]) * median(by_order[1]))


class SetUp:
    """Set-up samples, each timed in a fresh interpreter, in pairs: one
    imports the package under test, the other the frozen reference, and
    which goes first alternates.  Load from outside the process hits both
    alike and cancels in their ratio.  The run takes pairs at the start and
    between passes, so that they cover the whole measured window rather than
    a burst of load at its start.  Also keeps the digests of the files each
    sample wrote."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.args = [workload, str(seed)]
        self.workdir = workdir
        self.pairs = []          # (seconds, reference seconds, package ran first)
        self.digests = set()

    def _probe(self, package: str) -> float:
        workdir = os.path.join(self.workdir, f"setup{len(self.pairs)}-{package}")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), package]
                              + self.args + [workdir],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.digests.add(doc["digest"])
        return doc["setup_s"]

    def sample(self):
        """Takes one more pair, unless there are ``SETUP_PAIRS`` already."""
        if len(self.pairs) >= SETUP_PAIRS:
            return
        first = len(self.pairs) % 2 == 0
        if first:
            own = self._probe("zigzag_pca")
        ref = self._probe("zigzag_pca_ref")
        if not first:
            own = self._probe("zigzag_pca")
        self.pairs.append((own, ref, first))

    def seconds(self) -> float:
        """The package's set-up time at the reference's speed on the
        defining machine."""
        return SETUP_REFERENCE_S * balanced_ratio(self.pairs)


def run_command(cli, cmd) -> tuple[int | None, str, str, float, str | None]:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raised exception is a counted failure, not a crash
        rc, raised = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed, raised


def check_outcome(cmd, rc: int, out: str, err: str) -> str | None:
    """Why the command's outcome differs from the expected one, or None."""
    if rc != cmd.exit:
        return f"exit {rc}, expected {cmd.exit}: {err.strip()[-300:]}"
    if err:
        return f"unexpected stderr: {err.strip()[-300:]}"
    if cmd.kind == "simulate":
        return None
    if cmd.kind == "solve" and rc == 0:
        with open(cmd.out) as fh:
            kind = json.load(fh).get("type")
        return None if kind == cmd.spec else f"spec type {kind!r}, expected {cmd.spec!r}"
    doc = json.loads(out)
    reports = {r["condition"]: r for r in doc["reports"]}
    failed = {c for c, r in reports.items() if not r["passed"]}
    if doc["passed"] != (rc == 0) or (rc == 0 and failed):
        return f"exit {rc} disagrees with failed conditions {sorted(failed)}"
    if not failed.issuperset(cmd.fails) or (cmd.fails_exact and failed != set(cmd.fails)):
        return f"failed conditions {sorted(failed)}, expected {sorted(cmd.fails)}"
    for cond in cmd.passes:
        rep = reports.get(cond)
        if rep is None or not rep["residual"] <= rep["tolerance"]:
            return f"{cond} missing or residual above tolerance: {rep}"
    for cond, text in cmd.notes.items():
        if reports.get(cond, {}).get("notes") != text:
            return f"{cond} notes {reports.get(cond, {}).get('notes')!r}, expected {text!r}"
    return None


def check_diagram(cmd) -> tuple[str | None, int, str]:
    """Checks a simulate's output files; returns (error, live cells, .bin digest)."""
    import numpy as np
    prefix = cmd.out
    width, steps = cmd.shape
    with open(prefix + ".bin", "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    header = np.frombuffer(raw[4:16], dtype="<u4").tolist()
    if raw[:4] != b"ZPD1" or header != [1, width, steps] or len(raw) != 16 + 8 * (steps + 1) * width:
        return f".bin header {raw[:4]!r} {header} or size {len(raw)} wrong", 0, digest
    cells = int(np.count_nonzero(~np.isnan(np.frombuffer(raw, dtype="<f8", offset=16))))
    expected = sum(width - t for t in range(steps + 1))
    if cells != expected:
        return f"{cells} live cells in .bin, expected {expected}", cells, digest
    with open(prefix + ".csv", "rb") as fh:
        rows = fh.read().count(b"\n")
    if rows != steps + 1:
        return f"{rows} rows in .csv, expected {steps + 1}", cells, digest
    with open(prefix + ".summary.json") as fh:
        if "final_line" not in json.load(fh):
            return "summary lacks final_line", cells, digest
    return None, cells, digest


def remove_diagram(cmd):
    """Deletes a simulate's output files, so that the kernel drops their
    dirty pages instead of writing them back while later commands run."""
    for ext in (".csv", ".bin", ".summary.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(cmd.out + ext)


class Run:
    """State of one benchmark run: command records, errors, .bin digests.

    Once ``reference`` is set (the frozen package's cli module and its own
    copy of the command list) each command also runs on the frozen package,
    right before or after the package under test, alternating; both then see
    the same load from outside the process, which cancels in their ratio.
    """

    def __init__(self, cli, commands, tracer=None):
        self.cli = cli
        self.commands = commands
        self.tracer = tracer
        self.reference = None
        self.records = []        # (pass, traced or None for the warm-up, cmd, seconds, cells)
        self.pairs = [[] for _ in commands]   # per command: (seconds, reference seconds, ran first)
        self.walls = []          # (traced or None for the warm-up, seconds)
        self.errors = []
        self.ref_errors = []
        self.bin_digests = {}
        self.last = {}           # cmd index -> seconds its last turn took, reference included

    def _run_reference(self, i: int) -> float:
        ref_cli, ref_commands = self.reference
        cmd = ref_commands[i]
        rc, _, err, elapsed, raised = run_command(ref_cli, cmd)
        if raised or rc != cmd.exit:
            self.ref_errors.append(f"reference {cmd.name}: {raised or f'exit {rc}'} {err[-200:]}")
        if cmd.kind == "simulate":
            remove_diagram(cmd)
        return elapsed

    def one_pass(self, traced: bool | None, deadline: float | None = None) -> bool:
        """Runs the command list once (``traced`` None: the untimed warm-up,
        without the reference); with ``deadline``, stops before a command
        whose last turn says it would end after it, and returns False."""
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            for i, cmd in enumerate(self.commands):
                turn = time.perf_counter()
                if deadline is not None and turn + self.last[i] > deadline:
                    return False
                ref_first = (len(self.walls) + i) % 2 == 1
                reference = self.reference and traced is not None
                if reference and ref_first:
                    ref_elapsed = self._run_reference(i)
                if self.tracer is not None:
                    self.tracer.cmd = len(self.records)
                rc, out, err, elapsed, raised = run_command(self.cli, cmd)
                error, cells = raised, 0
                try:
                    error = error or check_outcome(cmd, rc, out, err)
                    if error is None and cmd.kind == "simulate":
                        error, cells, digest = check_diagram(cmd)
                        if self.bin_digests.setdefault(cmd.name, digest) != digest:
                            error = error or ".bin differs from the first pass of the same seed"
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
                if cmd.kind == "simulate":
                    remove_diagram(cmd)
                if error:
                    self.errors.append(f"pass {len(self.walls)} {cmd.name}: {error}")
                self.records.append((len(self.walls), traced, cmd, elapsed, cells))
                if reference and not ref_first:
                    ref_elapsed = self._run_reference(i)
                if reference:
                    self.pairs[i].append((elapsed, ref_elapsed, not ref_first))
                self.last[i] = time.perf_counter() - turn
        finally:
            if traced:
                self.tracer.uninstall()
        # output checks sit inside the pass time; they are small next to the commands
        self.walls.append((traced, time.perf_counter() - start))
        return True

    def loop(self, seconds: float, trace: bool, between):
        """Measures for ``seconds``, after the untimed warm-up pass, which
        keeps first-call costs (page faults of a fresh heap, lazy imports)
        out of the timings; calls ``between`` after each timed pass.
        Untraced, the command list repeats until the next command would end
        after them (at least two whole passes).  Traced, whole untraced and
        traced passes alternate until the next pass would end after them, at
        least one of each."""
        deadline = time.perf_counter() + seconds
        if not trace:
            for _ in range(2):
                self.one_pass(traced=False)
                between()
            while self.one_pass(traced=False, deadline=deadline):
                between()
            return
        while True:
            self.one_pass(traced=len(self.walls) % 2 == 0)
            between()
            if len(self.walls) >= 3 and time.perf_counter() + median(
                    w for _, w in self.walls) > deadline:
                break

    def pass_time(self, traced: bool) -> float:
        """Time of one pass over the command list, each command taken at its
        median over the passes; steadier than the median pass under bursts
        of load from outside the process."""
        return sum(median(r[3] for r in self.records if r[2] is cmd and r[1] == traced)
                   for cmd in self.commands)

    def relative_time(self) -> float:
        """Pass time relative to the frozen reference: each command's
        balanced ratio to its reference runs (the first two passes give both
        orders), weighted by the reference's median time."""
        total = weighted = 0.0
        for pairs in self.pairs:
            weight = median(r for _, r, _ in pairs)
            total += weight
            weighted += weight * balanced_ratio(pairs)
        return weighted / total

    def command_times(self, traced: bool) -> dict:
        out = {}
        for kind in COMMAND_KINDS:
            times = [r[3] for r in self.records if r[2].kind == kind and r[1] == traced]
            if times:
                out[f"{kind}_s"] = summarize(times)
        rates = [r[4] / r[3] for r in self.records if r[2].kind == "simulate" and r[1] == traced]
        if rates:
            out["cells_per_s"] = summarize(rates)
        return out


def per_layer(run: Run, spans: list[dict]) -> dict:
    values = []
    for p in sorted({r[0] for r in run.records if r[1]}):
        ids = {i for i, r in enumerate(run.records) if r[0] == p}
        row = tracing.layer_values(spans, ids)
        for metric, span, kind, kappa in tracing.SHARES:
            sel = {i for i in ids if run.records[i][2].kind == kind
                   and (kappa is None or run.records[i][2].kappa == kappa)}
            row[metric] = tracing.share(spans, sel, span)
        values.append(row)
    metrics = {k: median(v[k] for v in values) for k in values[0]}
    metrics[tracing.OVERHEAD] = run.pass_time(traced=True) - run.pass_time(traced=False)
    return metrics


def units() -> dict:
    """Unit of each per-layer metric."""
    out = {m: u for m, u, _, _, _ in tracing.PER_LAYER}
    out.update({m[0]: "ratio" for m in tracing.SHARES})
    out[tracing.OVERHEAD] = "s"
    return out


def check_metric_names():
    """The metric names emitted here must be the ones BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    want = ({m["name"] for m in doc["end_to_end"]}, {m["name"] for m in doc["per_layer"]})
    have = (set(END_TO_END), set(units()))
    if want != have:
        fail(f"metric names differ from BENCHMARK.json: {want} vs {have}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "zigzag_pca", "cli.py")):
        fail(f"no package sources under {SRC}; run from a source checkout")
    # BLAS reads its thread count once, when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import inputs
    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(inputs.WORKLOADS)}")
    check_metric_names()

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        setup = SetUp(args.workload, args.seed, workdir)
        setup.sample()
        from zigzag_pca import cli
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            fail(f"zigzag_pca imported from {cli.__file__}, not from {SRC}")
        commands, digest = inputs.build(args.workload, args.seed, os.path.join(workdir, "run"))
        run = Run(cli, commands, tracer=tracing.Tracer() if args.trace else None)
        run.one_pass(traced=None)
        # the warm-up runs only the package under test, and the frozen
        # package is not yet imported, so this peak is the package's own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            sys.path.insert(0, REFERENCE)
            from zigzag_pca_ref import cli as ref_cli
            ref_commands, ref_digest = inputs.build(args.workload, args.seed,
                                                    os.path.join(workdir, "ref"))
            setup.digests.add(ref_digest)
            run.reference = (ref_cli, ref_commands)
        run.loop(args.seconds, bool(args.trace), between=setup.sample)
        while len(setup.pairs) < SETUP_PAIRS:
            setup.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.records)
    failed = len(run.errors)
    # one seed must give byte-identical input files in every set-up
    inputs_identical = setup.digests == {digest}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, commands back to back in one process",
        "wait": "none measured: no layer queues work",
        "provenance": provenance.collect(ROOT, np, scipy, NPROC),
        "setup_s": setup.seconds(),
        # raw seconds: (package, reference, package ran first)
        "setup_pairs": setup.pairs,
        "wall_s": run.pass_time(traced=False),
        "pass_s": summarize([w for t, w in run.walls if t is False]),
        "peak_rss_mb": peak_rss_mb,
        "per_command": run.command_times(traced=False),
        "error_rate": failed / attempted,
        "attempted": attempted,
        "errors": run.errors + run.ref_errors,
        "commands": [[p, traced, cmd.name, seconds] for p, traced, cmd, seconds, _ in run.records],
        "pairs": {cmd.name: pairs for cmd, pairs in zip(run.commands, run.pairs)},
        "reference_wall_s": sum(median(r for _, r, _ in pairs) for pairs in run.pairs)
        if run.reference else None,
        "inputs_sha256": digest,
        "inputs_identical": inputs_identical,
    }
    if args.trace:
        spans = run.tracer.dump()
        metrics = per_layer(run, spans)
        result["traced_wall_s"] = run.pass_time(traced=True)
        result["per_layer"] = metrics
        result["spans"] = spans
        unit = units()
    else:
        metrics = {"setup_s": result["setup_s"],
                   "wall_rel": run.relative_time(),
                   "peak_rss_mb": peak_rss_mb}
        unit = END_TO_END
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {len(run.walls)} passes, "
          f"{attempted} commands, error_rate {failed}/{attempted}, "
          f"inputs byte-identical in every set-up: {inputs_identical}")
    for err in result["errors"][:20]:
        print(f"  error: {err}")
    print(f"  {'wall_s':14s} {result['wall_s']:.6g} s, one pass, each command at its median")
    if run.reference:
        print(f"  {'reference':14s} {result['reference_wall_s']:.6g} s, the same on the frozen package")
    print(f"  {'set-up':14s} median {median(p[0] for p in setup.pairs):.6g} s, "
          f"reference {median(p[1] for p in setup.pairs):.6g} s, as measured")
    for name, stat in result["per_command"].items():
        tail = stat["tail"]
        print(f"  {name:14s} median {stat['median']:.6g} {'cells/s' if name == 'cells_per_s' else 's'}"
              f", n={stat['n']}" + (f", p{tail['p']:g} {tail['value']:.6g}" if tail else ""))
    for name, value in metrics.items():
        print(f"  {name:60s} {value:.6g} {unit[name]}")
    correct = failed == 0 and not run.ref_errors and inputs_identical
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
