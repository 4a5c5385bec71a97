"""Benchmark entry point: run one workload of the jcvitals benchmark.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced run, which first repeats the untraced passes
to measure tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries accuracy counts, sample counts and provenance. The
full result and, when traced, the spans are also written to ``.perfbench_out``.
The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = "2"
PROGRAM_MODULES = ("jcvitals.scenarios", "jcvitals.channel", "jcvitals.capture_io",
                   "jcvitals.pipeline", "jcvitals.report")
IMPORT_PROBES = 2  # fresh interpreters timing the same import, besides this process
# stdout of the probe: seconds taken to import PROGRAM_MODULES in a fresh interpreter
_PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]: importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here, or its output breaks its own contract."""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("catalog", "sweep", "long_record"))
    p.add_argument("--seed", type=int, default=0,
                   help="0 keeps each scenario's own seed; n adds n*1000 to every one")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure whole passes until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _import_program() -> float:
    if not (SRC / "jcvitals" / "__init__.py").is_file():
        raise BenchError(f"no jcvitals sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - began
    loaded = Path(sys.modules["jcvitals"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"jcvitals was imported from {loaded}, not from {SRC}")
    return elapsed


def _probe_import() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, *PROGRAM_MODULES], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, never run git)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "jcvitals").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _select(measured: dict, declared: dict) -> dict:
    """The declared metrics, each with the unit it was declared with."""
    if set(measured) != set(declared):
        missing = sorted(set(declared) - set(measured))
        extra = sorted(set(measured) - set(declared))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    metrics = {}
    for name, unit in declared.items():
        value, measured_unit = measured[name]
        if measured_unit != unit:
            raise BenchError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    for var in THREAD_VARS:  # before numpy loads, so its thread pools see the cap
        os.environ[var] = THREAD_CAP
    try:
        declared = _declared_metrics()
        import_samples = [_import_program()] + [_probe_import() for _ in range(IMPORT_PROBES)]
        import workloads  # this file's directory is on sys.path when run as a script

        WORKDIR.mkdir(exist_ok=True)
        OUTDIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace),
                                   import_samples, WORKDIR, OUTDIR / f"{stem}-spans.json")
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = _select(result[kind], declared[kind])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    line = {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "problems": result["problems"], **result["details"],
               "end_to_end": {k: v[0] for k, v in result["end_to_end"].items()},
               "provenance": _provenance()}
    (OUTDIR / f"{stem}.json").write_text(json.dumps({"details": details, "result": line}, indent=1))
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(line))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
