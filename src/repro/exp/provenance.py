"""Provenance stamps for manifests and dataset rows.

Every row appended to an experiment dataset carries a stamp answering
"where did this number come from": the repository revision that
produced it, the host it ran on, the interpreter, the manifest seed,
and the spec/cost schema the counters were recorded under.  Stamps are
plain JSON dicts so they survive the dataset's storage layer and the
JSONL telemetry export unchanged.
"""

import os
import platform
import subprocess
import sys
import time

from repro.core.resultcache import schema_tag


def git_revision():
    """The repository HEAD revision this process is running from, or
    ``None`` outside a git checkout (an installed package, a bare
    tree).  Never raises -- provenance is best-effort context, not a
    gate."""
    anchor = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", anchor, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def host_info():
    """A compact description of the executing host and interpreter."""
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "node": platform.node(),
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def capture(seed=None, manifest=None):
    """One provenance stamp for rows appended right now.

    ``seed`` is the manifest's declared seed (informational: execution
    is deterministic, but the stamp records what the manifest pinned);
    ``manifest`` is the manifest id the rows belong to, when any.
    ``spec_schema`` is the counter/cost schema tag, so a row can be
    recognised as stale when the counter vocabulary or fingerprint
    layout changes.
    """
    stamp = {
        "git_rev": git_revision(),
        "host": host_info(),
        "spec_schema": schema_tag(),
        "created": time.time(),
    }
    if seed is not None:
        stamp["seed"] = seed
    if manifest is not None:
        stamp["manifest"] = manifest
    return stamp
