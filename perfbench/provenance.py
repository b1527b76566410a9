"""Machine, software and code identity recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/{entry}/size")
    return out


def _ram_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _git_commit(root: str) -> str | None:
    """HEAD of the git checkout at ``root``; None outside one or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False,
                              # look no higher than root for a repository
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def _src_identity(src: str) -> dict:
    """Line count of the package sources and a hash of their bytes."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def collect(root: str, np, scipy, blas_threads: int) -> dict:
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "caches": _caches(),
            "ram_bytes": _ram_bytes(),
            "blas": {**_blas(np), "threads": blas_threads},
        },
        "software": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "code": {"git_commit": _git_commit(root), **_src_identity(os.path.join(root, "src"))},
    }
