"""One benchmark run: set-up timing, a warm-up pass, then timed passes.

A pass sends the workload's requests in order through ``lzsim.cli.main`` in
this process (closed loop, one client).  The warm-up pass is checked in full
by ``checks.py``; every timed pass must then write byte-identical files and
print the same summaries, so each timed pass is checked too.  A request that
raises, exits non-zero, or fails its check counts as failed, and the pass
goes on.

End-to-end metrics (tracing off):

- ``wall_s``: median over the timed passes of one pass's wall time, each
  scaled to the reference speed (see `SpeedGauge`);
- ``periods_per_s``: drive periods of one pass (from the request inputs) per
  ``wall_s``;
- ``setup_s``: median over fresh interpreters of the time to import lzsim and
  its CLI and parse the workload's configs, scaled likewise;
- ``peak_rss_mb``: peak resident set of this process, which ran only this
  workload;
- ``success_frac``: requests that passed divided by requests attempted, i.e.
  1 - failed_frac (a metric must never be 0, so the complement is reported).

Raw times are printed next to them and kept in the results file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import layers
import workloads
from spans import Tracer

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5
#: Timed passes per run at least, whatever ``--seconds`` says.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: Time of `reference_work` at the reference speed (about its median time on
#: the Intel Xeon 2-vCPU host, Python 3.11.7, numpy 2.4.6, it was tuned on).
REF_NOMINAL_S = 0.06

#: Imports lzsim and its CLI and parses the workload's config files.
_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import lzsim, lzsim.cli
from lzsim.config import load_run_config, load_sweep_config
for kind, path in zip(sys.argv[2::2], sys.argv[3::2]):
    (load_run_config if kind == "simulate" else load_sweep_config)(path)
print("ready", flush=True)
"""


def reference_work() -> None:
    """Fixed work in the three kinds lzsim spends its time on.

    Float formatting, which the series writer does, is left out: as a gauge it
    spread twice as much as the others and tracked no workload better.
    """
    acc = 0
    for i in range(300_000):  # interpreter arithmetic
        acc += i * i
    m = x = np.eye(2, dtype=complex)
    for _ in range(10_000):  # small numpy calls (single trajectory, impulse model)
        x = m @ x
    w = np.linspace(0.0, 1e-3, 2000)
    psi = np.full((2000, 2), np.sqrt(0.5), dtype=complex)
    for _ in range(400):  # element-wise steps over a member axis (ensemble kernel)
        a0 = (0.9 - 0.1j * w) * psi[:, 0] - 0.05j * psi[:, 1]
        a1 = -0.05j * psi[:, 0] + (0.9 + 0.1j * w) * psi[:, 1]
        psi = np.stack([a0, a1], axis=1)


def reference_s() -> float:
    """Median time of three runs of `reference_work`."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedGauge:
    """Machine speed around each measurement, from the reference work.

    On a shared host the machine's speed moves between regimes that last
    minutes, and raw pass times follow.  Times are therefore reported at the
    reference speed: raw time x (REF_NOMINAL_S / reference-work time) ** e,
    with the reference work timed just before and after each pass.  The
    exponent e is how strongly the measured work follows the reference work
    (`workloads.SPEED_EXPONENT`; 1 for set-up).
    """

    def __init__(self):
        self.mark()

    def mark(self) -> None:
        """Start an interval: time the reference work now."""
        self.last = reference_s()

    def scale(self, exponent: float) -> float:
        """Factor for the work done since the last mark; starts the next interval."""
        now = reference_s()
        factor = (REF_NOMINAL_S / ((self.last + now) / 2)) ** exponent
        self.last = now
        return factor


def measure_setup(wl, work: Path, src: Path, gauge: SpeedGauge) -> list[tuple[float, float]]:
    """(raw, scaled) times from a fresh interpreter to lzsim imported and configs parsed."""
    configs = []
    for req in wl.requests:
        if req.argv[0] in ("simulate", "sweep"):
            configs += [req.argv[0], req.argv[1].format(work=work)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(src), *configs],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        times.append((ready - start, (ready - start) * gauge.scale(1.0)))
    return times


class Pass:
    """Outcome of one pass: wall and CPU time, and per request its status,
    stdout and a digest of the files it wrote."""

    def __init__(self, wl, work: Path, pass_dir: Path, tracer: Tracer | None = None):
        from lzsim import cli

        self.dir = pass_dir
        self.status, self.stdout, self.digest = {}, {}, {}
        start, cpu = time.perf_counter(), time.process_time()
        for i, req in enumerate(wl.requests):
            out = pass_dir / req.label
            argv = [a.format(work=work, out=out, **{"pass": pass_dir}) for a in req.argv]
            if tracer is not None:
                tracer.request = i
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                status = "ok" if code == 0 else f"exit code {code}"
            except SystemExit as exc:
                status = f"exit code {exc.code}"
            except Exception as exc:  # a failed request is recorded; the pass goes on
                traceback.print_exc()
                status = type(exc).__name__
            self.status[req.label], self.stdout[req.label] = status, buf.getvalue()
        self.wall = time.perf_counter() - start
        self.cpu = time.process_time() - cpu
        for req in wl.requests:
            self.digest[req.label] = self._digest(pass_dir / req.label, self.stdout[req.label])

    def _digest(self, out: Path, stdout: str) -> str:
        h = hashlib.sha256(stdout.replace(str(self.dir), "{pass}").encode())
        if out.is_dir():
            for path in sorted(out.iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


class Ledger:
    """Requests attempted and failed, with the first reason of each failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            key = f"{label}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


def first_pass_verdicts(wl, first: Pass, root: Path, refs: dict) -> dict[str, str | None]:
    verdicts = {}
    for req in wl.requests:
        reason = None if first.status[req.label] == "ok" else first.status[req.label]
        if reason is None:
            try:
                checks.check_request(wl, req.label, first.dir / req.label,
                                     first.stdout[req.label], root, refs)
            except Exception as exc:  # the check only reads program output: malformed is failed
                reason = f"output check: {type(exc).__name__}: {exc}"
        verdicts[req.label] = reason
    return verdicts


def account(wl, p: Pass, first: Pass, verdicts: dict, ledger: Ledger) -> None:
    for req in wl.requests:
        reason = verdicts[req.label]
        if p is not first:
            if p.status[req.label] != "ok":
                reason = p.status[req.label]
            elif reason is None and p.digest[req.label] != first.digest[req.label]:
                reason = "output differs from the first pass with the same seed"
        ledger.record(req.label, reason)


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_info(root: Path, wl) -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lzsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "program_seed": workloads.program_seed(wl.name, wl.seed),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_per_core": caches,
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "sweep_workers": "config default (1)",
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, spec: dict) -> dict:
    import lzsim

    src = root / "src"
    if Path(lzsim.__file__).resolve().parent != (src / "lzsim").resolve():
        raise RuntimeError(f"imported lzsim from {lzsim.__file__}, not from {src}")
    wl = workloads.build(name, seed)
    results_dir = root / ".perfbench_work" / "results"
    work = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        for fname, text in wl.configs.items():
            (work / fname).write_text(text)
        refs = checks.load_references(name)
        gauge = SpeedGauge()
        setup = [] if trace else measure_setup(wl, work, src, gauge)

        ledger = Ledger()
        first = Pass(wl, work, work / "pass0")
        verdicts = first_pass_verdicts(wl, first, root, refs)
        account(wl, first, first, verdicts, ledger)

        # (raw wall, scaled wall, cpu) of untraced and traced passes, alternating when tracing
        plain, traced, tracers = [], [], []
        gauge.mark()
        deadline = time.perf_counter() + seconds
        while True:
            tracer = None
            if trace and len(traced) < len(plain):
                tracer = Tracer("lzsim")
                layers.install(tracer)
            try:
                p = Pass(wl, work, work / f"pass{len(plain) + len(traced) + 1}", tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            sample = (p.wall, p.wall * gauge.scale(workloads.SPEED_EXPONENT[name]), p.cpu)
            account(wl, p, first, verdicts, ledger)
            if tracer is not None:
                layers.count_written(tracer, p.dir)
            shutil.rmtree(p.dir)
            if tracer is None:
                plain.append(sample)
            else:
                traced.append(sample)
                tracers.append(tracer)
            enough = len(plain) >= MIN_PASSES if not trace else (
                len(traced) >= MIN_TRACED_PASSES and len(traced) == len(plain))
            if enough and time.perf_counter() + p.wall > deadline:
                break

        wall = statistics.median(s[1] for s in plain)
        periods = sum(req.periods for req in wl.requests)
        values = {
            "wall_s": wall,
            "periods_per_s": periods / wall,
            "setup_s": statistics.median(s[1] for s in setup) if setup else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_frac": 1 - ledger.failed / ledger.attempted,
        }
        if trace:
            per_pass = [layers.pass_metrics(t.spans, t.counts) for t in tracers]
            for key in per_pass[0]:
                values[key] = statistics.median(m[key] for m in per_pass)
            values["trace.overhead_frac"] = statistics.median(s[1] for s in traced) / wall - 1
            values["run.cpu_s"] = statistics.median(s[2] for s in plain)

        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                  "failed": ledger.failed, "metrics": metrics}

        info = machine_info(root, wl)
        stem = results_dir / f"{name}-seed{seed}-trace{int(trace)}"
        samples = {"passes (raw_s, scaled_s, cpu_s)": plain,
                   "traced passes (raw_s, scaled_s, cpu_s)": traced,
                   "setup (raw_s, scaled_s)": setup}
        stem.with_suffix(".json").write_text(json.dumps(
            {"info": info, "samples": samples, "failures": ledger.reasons, "result": result},
            indent=1, sort_keys=True))
        if trace:
            with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
                for n, tracer in enumerate(tracers):
                    for span in tracer.spans:
                        fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "request"),
                                                     span), **{"pass": n})) + "\n")
        report(wl, periods, plain, traced, setup, metrics, ledger, info)
        print(f"results: {stem.with_suffix('.json')}")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(wl, periods, plain, traced, setup, metrics, ledger, info) -> None:
    raw = [s[0] for s in plain]
    lo, hi = _quartiles(raw)
    print(f"workload {wl.name}, seed {wl.seed}: {len(plain)} timed passes (+1 warm-up"
          f"{f', {len(traced)} traced' if traced else ''}), {ledger.attempted} requests, "
          f"{periods:g} drive periods per pass")
    print(f"  times are at the reference speed (raw x ({REF_NOMINAL_S} s / reference-work time)"
          f" ** {workloads.SPEED_EXPONENT[wl.name]}; set-up ** 1)")
    print(f"  raw wall_s: median {statistics.median(raw):.4f} s, quartiles {lo:.4f} .. {hi:.4f} s")
    if setup:
        print(f"  raw setup_s: median {statistics.median(s[0] for s in setup):.4f} s "
              f"over {len(setup)} fresh interpreters")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} requests)")
    print(f"output check: {'PASS' if ledger.failed == 0 else 'FAIL'}")
    for reason, count in ledger.reasons.items():
        print(f"  {count} x {reason}")
    print(f"machine: {json.dumps(info, sort_keys=True)}")
