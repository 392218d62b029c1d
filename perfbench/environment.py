"""Where the program lives in the checkout, and what the benchmark ran on."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path
from typing import Dict

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pistonflow"


def child_env() -> dict:
    """Environment of a child interpreter: the package runs from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_sha(root: Path = ROOT) -> str:
    """HEAD of the checkout read from ``.git``; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines(package: Path = PACKAGE) -> Dict[str, int]:
    """Line count of each module of the package, and their total."""
    counts = {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(package.glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def record(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines(),
    }
