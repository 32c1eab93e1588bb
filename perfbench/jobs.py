"""The benchmark's three desk jobs and the check of their outputs.

Each job is what one cold `commsyz` invocation computes, starting from a
fresh DeskContext:

  verify-n4  `commsyz verify -n 4 --json`, in-process through `cli.main`
  verify-n3  `commsyz verify -n 3 --json`, in-process through `cli.main`
  gb-n4-d5   `buchberger(minimal_gens, degree_bound=5)` for the full
             commutator ideal at n=4 over GF(32003), generators shuffled by
             the workload seed (the reduced basis does not depend on order)

A job returns a summary of its output; `check` compares it with the
reference recorded at the seed commit (reference.json).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

WORKLOADS = ("verify-n4", "gb-n4-d5", "verify-n3")


def cli_argv(workload: str) -> list:
    """The `commsyz` command line whose parsing `setup_s` times for this job.

    For gb-n4-d5 it is only parsed: without a budget the CLI refuses n=4
    Gröbner jobs (desk limit), so the job itself calls `buchberger` directly.
    Parsing costs the same either way.
    """
    if workload == "gb-n4-d5":
        return ["groebner", "-n", "4", "--ideal", "I", "--degree-bound", "5"]
    return ["verify", "-n", workload[-1], "--json"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_job(n: int) -> dict:
    from commsyz import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "-n", str(n), "--json"])
    results = json.loads(out.getvalue())["results"]
    return {
        "exit_code": code,
        "verdicts": {r["name"]: r["verdict"] for r in results},
        "results_sha256": _sha256(json.dumps(results, sort_keys=True)),
    }


def _gb_job(seed: int) -> dict:
    from commsyz.groebner import buchberger
    from commsyz.verify import DeskContext

    gens = list(DeskContext().system(4).minimal_gens)
    random.Random(seed).shuffle(gens)
    basis = buchberger(gens, degree_bound=5)
    return {
        "size": len(basis),
        "complete": basis.complete,
        "truncation_degree": basis.truncation_degree,
        "basis_sha256": _sha256("\n".join(str(g) for g in basis)),
    }


def run_job(workload: str, seed: int) -> dict:
    if workload == "gb-n4-d5":
        return _gb_job(seed)
    return _verify_job(int(workload[-1]))


def check(output: dict, reference: dict) -> list:
    """Every field where the job's output differs from the reference."""
    return [
        f"{key}: got {output.get(key)!r}, expected {want!r}"
        for key, want in reference.items()
        if output.get(key) != want
    ]
