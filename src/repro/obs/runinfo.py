"""Run identity: who produced a journal record, and in which process run.

``BENCH_figures.json`` accumulates records across PRs, machines, and
interpreter versions; without a run identity those lines are an undifferen-
tiated soup.  Every :class:`~repro.obs.bench.BenchJournal` record is stamped
with this module's context:

* ``run_id`` — one random 12-hex token per *process*, so all records a
  single bench session writes group together;
* ``git_sha`` — the checked-out commit (short sha), tying a record to the
  code that produced it, with git's ``-dirty`` suffix when tracked files
  other than the ``BENCH_*.json`` journals differ from that commit (a
  change measured before it was committed must not read as its parent);
  ``None`` outside a git work tree;
* ``hostname`` / ``python`` — where and on what the record was measured.

``workers`` deliberately does **not** live here: :mod:`repro.obs` is a leaf
package and may not import :mod:`repro.exec`, so callers that fan out pass
their worker count explicitly (``run_context(workers=...)`` or a per-record
extra).
"""

from __future__ import annotations

import platform
import subprocess
import uuid

__all__ = ["current_run_id", "git_sha", "run_context"]

_RUN_ID: str | None = None
_GIT_SHA: str | None | bool = False  # False = not probed yet


def current_run_id() -> str:
    """A 12-hex token minted once per process (stable across calls)."""
    global _RUN_ID
    if _RUN_ID is None:
        _RUN_ID = uuid.uuid4().hex[:12]
    return _RUN_ID


def git_sha() -> str | None:
    """The short sha of HEAD (``-dirty`` if tracked files differ from it,
    journals aside), or ``None`` when git/worktree is unavailable."""
    global _GIT_SHA
    if _GIT_SHA is False:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            )
            sha = out.stdout.strip() or None
            if sha:
                # Journals aside: appending a record must not dirty the next.
                differs = subprocess.run(
                    ["git", "diff-index", "--quiet", "HEAD", "--",
                     ":(top,exclude)BENCH_*.json"],
                    capture_output=True,
                    timeout=5,
                )
                if differs.returncode == 1:
                    sha += "-dirty"
            _GIT_SHA = sha
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = None
    return _GIT_SHA


def run_context(workers: int | None = None) -> dict:
    """The identity keys stamped onto every journal record."""
    context = {
        "run_id": current_run_id(),
        "git_sha": git_sha(),
        "hostname": platform.node(),
        "python": platform.python_version(),
    }
    if workers is not None:
        context["workers"] = int(workers)
    return context
