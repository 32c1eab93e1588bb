"""The JSON `results` of thirty-five quick CLI runs, pinned by sha256.

A refactor of the engine must leave every reported result byte-identical;
the first four digests were recorded before the monomial representation
changed and cover a verify suite, both n=3 bases and the n=3 colon ideal.
The six budgeted runs pin the partial path: the budget-cut bases, their
PARTIAL verdicts and the refusal texts in `reason`, recorded before the
refusal rule moved into one gate.  The two full n=3 verify runs, one
complete and one cut at 300 S-pairs, pin the colon ideal as the verify
suite builds it and the refusals a cut leaves behind; they were recorded
before the colon shortcut and the cached refusals.  The n=3 verify run
under lex reports the same results as under grevlex; it failed its colon,
splice and Knutson checks while the elimination order did not refine lex.
The three runs past the desk limit pin which checks run, which are SKIPPED
and the SKIPPED reasons; they were recorded before the suite and the
subcommands shared one check plan.  A budget changes nothing at n=4, since
the checks behind the limit only apply at n <= 3.
The last ten cover the subcommands no other digest reaches: the commutator
listing, word candidates, n=3 syzygies, the off-diagonal Hilbert series,
both splice sizes and the four predictions; they were recorded before each
subcommand took only the flags it reads.
Six were recorded again when the engines' work counts moved from `detail`
to the report's timing block: both n=3 `groebner` bases and both
`syzygies` runs, whose answers did not change, and the two budgeted
`groebner` runs, whose partial bases changed because the budget now cuts
the signature loop, which reaches other elements first.
Three budget-cut runs were recorded again when the colon's element quotient
moved from an elimination to the signature loop with a quotient, whose
budget counts about 150 reduced pairs at n=3 where the elimination counted
395.  `colon -n 3 --budget-spairs 50` and `verify -n 3 --budget-spairs 20`
are still cut and only their refusal `reason` changed; at 300 pairs the
colon now completes, so `verify -n 3 --budget-spairs 300` moves its
colon-ideal, splice-euler and knutson checks from PARTIAL to PASS, and its
results are those of the complete `verify -n 3`.
`syzygies -n 3 --budget-spairs 20` was recorded again when the first
syzygies moved from a tracked Gebauer-Moeller run to the signature loop
with every generator tracked.  Its budget now cuts that loop, which reaches
no zero reduction within 20 reduced pairs, so the cut run reports PARTIAL
counts {2: 28}, the Koszul relations alone, where the old run reported
{1: 2, 2: 28}; both are lower bounds of the complete {1: 2, 2: 31}.
The two degree-bounded n=3 bases of I were recorded before the colon ideal
tracked its fs as one vector, a change beside the loop they run.
`--degree-bound 1`, below the generators' degree 2, was recorded again
when every basis moved to the signature loop.  It had run the
Gebauer-Moeller loop, which enters the generators unreduced: two of them
share a lead, and `_minimal` dropped one, tail and all, leaving 7.  The
signature loop top-reduces each generator entry, so the loop holds all 8;
all lie above the bound, so the truncated basis (PARTIAL) keeps none.
`--degree-bound 9` truncates the signature loop, which drops pairs past
degree 9, and `_settled` then finds that the Gebauer-Moeller update over
the minimal leads keeps no pair past the bound, so the run reports the
complete basis, the results of
`groebner -n 3 --ideal I`.
The two `syzygy-check -n 2` runs read a matrix file: a syzygy with 1/32003
entries and a non-syzygy with a 32003 entry.  They were recorded when the
check moved from the default prime 32003, which refused the first and
passed the second, to QQ.
Three budget-cut runs were recorded again when a cut became a truncation:
a run cut while its next pair has degree d is truncated at d - 1, its
basis reduced like any other, where it had been a "partial" basis that
kept every element and answered nothing.  `groebner -n 3 --budget-spairs
50` went from 41 elements with `truncation_degree` null to 25, lead
degrees {2: 8, 3: 12, 4: 5}, truncated at 3; `groebner -n 4
--budget-spairs 60` went from 58 elements to 55, truncated at 3.  In
`verify -n 3 --budget-spairs 20` only the first-syzygies refusal `reason`
changed: its cut module basis is truncated at degree 1, below the
quadratic vectors it is asked about.
Five were recorded again when a cut first-syzygy run became a truncation
too, whose counts hold through its truncation degree and are not lower
bounds, and a truncated basis kept only its elements through that degree.
`syzygies -n 3 --budget-spairs 20` went from PARTIAL counts {2: 28} with
`counts_are_lower_bounds` true to PARTIAL counts {} with
`truncation_degree` 0: the cut tracked loop is truncated at degree 2,
coefficient degree 0, so the Koszul relations are not counted: whether
one is minimal depends on the linear syzygies the cut run never found (at
n=2 such a run counted 3 where the complete run has none in degree 2).
`syzygies -n 3` reports `truncation_degree` null where it reported
`counts_are_lower_bounds` false, with the same counts.  In `verify -n 3
--budget-spairs 20` only the first-syzygies refusal `reason` changed: the
check now refuses the truncated first syzygies themselves, before it
builds a module basis.  `groebner -n 3 --budget-spairs 50` went from 25
elements, {2: 8, 3: 12, 4: 5}, to the 20 through its truncation degree 3,
{2: 8, 3: 12}.  `groebner -n 3 --degree-bound 1` went from 8 elements to
none: truncated at degree 1, it keeps none of the degree-2 generators.
The last three were recorded before `predict knutson` stopped building the
generic matrices and before the CLI read every basis through one cached
route keyed by its degree bound.  `groebner -n 4 --degree-bound 5` pins
the truncated n=4 basis the CLI now asks the context for;
`syzygies -n 4 --degree-bound 3` pins the first syzygies that context keys
by their resolved bound; `predict knutson -n 5` pins the candidate labels,
bidegrees and feasibility flags, now counted without any polynomial.
The three `syzygy-check -n 2` digests pin a syzygy, a non-syzygy and an
entry of total degree 256, x_1_1^128*x_1_2^128, whose exponents each fit
a byte: the cap rule (no monomial past total degree 255) refuses it where
the matrix is read, a FAIL with the OverflowError as its error, recorded
when the cap moved from each exponent to the total degree.
`syzygies -n 3 --degree-bound 4 --budget-spairs 150` was recorded when
the budget came to cap the tracked signature loop alone.  That loop needs
101 pairs and completes; the minimal-generator selection, which reduces
168, had been capped too and was cut before its degree-4 pairs, so the
run reported PARTIAL truncated at 3.  It now reports PASS, complete, with
the results of `syzygies -n 3 --degree-bound 4`.
A digest that moves means some computed object or its printed form
changed.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from commsyz import cli

DIGESTS = {
    "verify -n 2": "179726f6b900d843bba2bda2141d46ce7dc03547cc995fab2f2a4b6af46a4a65",
    "groebner -n 3 --ideal I": "1c9e77c25df6a487772ed324e66ebac997e3c9862293ca5d8786b93cd0bd85d0",
    "groebner -n 3 --ideal J": "23946bfdd8924fb9e433cf122c583ca73f76090f680e19f5496295e109c2cae8",
    "colon -n 3": "dc34ae4c6e1fddd641d4fb865674b07080551cfb06494a95c7e46df8d77bc654",
    "groebner -n 3 --budget-spairs 50": "a0a30c6773f03d475feecd43cea170e1e0577f4171afb04fd050c60cf62f6ad3",
    "colon -n 3 --budget-spairs 50": "6fce3885b4eb1e42cbfaecf3bdc61a7174666253b08704c39feb0f336b802cad",
    "syzygies -n 3 --budget-spairs 20": "ac46cc8c9731890957fe57ca52c61cec7b98e3de27c502f4aafb5ac7dd9b3476",
    "hilbert -n 3 --budget-spairs 50": "d85b0d81ec235d528c8f25c4e3b952e7dbd366f6af6a56ec63ef50d3f8c1e75f",
    "verify -n 3 --budget-spairs 20": "12d0b10dafd6da7cb2bbfe4f73c25a7276ef0c102e471a00623cec0805faf633",
    "groebner -n 4 --budget-spairs 60": "f78bbec895d357bc525b8a0e5f6f131f6e034783df31d7c3cbd18bf1294704ef",
    "verify -n 3": "82adac7a45ed33b94b4f627ab12bd90a97bd37142cb2efb49e901b6dcebd20b9",
    "verify -n 3 --budget-spairs 300": "82adac7a45ed33b94b4f627ab12bd90a97bd37142cb2efb49e901b6dcebd20b9",
    "verify -n 3 --order lex": "82adac7a45ed33b94b4f627ab12bd90a97bd37142cb2efb49e901b6dcebd20b9",
    "verify -n 4": "2e3cf024f21ef00da56cf0196301b3fa9405cb44b0375dd0d118c46e7cf72797",
    "verify -n 4 --budget-spairs 50": "2e3cf024f21ef00da56cf0196301b3fa9405cb44b0375dd0d118c46e7cf72797",
    "verify -n 5": "d9c78850aff622eba6c971b81d414f61fd4bb6fd632d21ce473f8ae37b50100a",
    "commutator -n 3": "5f2f7c95e8504db14dcd69d4a43e06a33fad9d91b65cfc6236125ced6fd640d0",
    "candidates --max-degree 5": "f8f7cbe2c9894d8243b72b9b3364dfc44791725df5b27149035b56f1d8fdcd97",
    "syzygies -n 3": "977009af67e50f257d8453dd74bd422a7b919ba134d3e232739fcf1d025379e8",
    "hilbert -n 3 --ideal J": "b6fbe673d223e3ad40898e5a4073bad99da2dd31d67a997f6602bc934b7de4c4",
    "check-splice -n 3": "fd986dfb062b006ee9fda81fc12747f48b07858f33ccaf5779ffcf13c12a0a36",
    "check-splice -n 4": "5a8c410845d7a4a4c1398097789820a2950428a522284d7bce11ab27c7af144a",
    "predict betti -n 6": "4c62ef7596d54fbbe1b8cd86b3a354c95ac648b03d235f78530d3a4d6001b581",
    "predict colon-degrees -n 5 --degree-bound 7": (
        "4e73211f3b43b078e0c79aece13810b246ef2b146eeecce6d3ec0eb871ea85a4"
    ),
    "predict shape -n 4": "e2116eac343640043d8cc29bb4fc6de04d75798101470d1ac3692194c89579bd",
    "predict knutson -n 3": "4e4ae0057c6f1f4e1f45a7996b02d2529314dac3e0e448998abb36699f847a2b",
    "groebner -n 3 --degree-bound 1": (
        "6d3a90755cfdf11fa971ede260ec7f5f4871602269261d5f06d2764fd5c2ee1f"
    ),
    "groebner -n 3 --degree-bound 9": (
        "1c9e77c25df6a487772ed324e66ebac997e3c9862293ca5d8786b93cd0bd85d0"
    ),
    "groebner -n 4 --degree-bound 5": (
        "1251375707b18addc32a2c89955134b7a940cce97f7f903518ab44cce229bb63"
    ),
    "syzygies -n 4 --degree-bound 3": (
        "d831d6c2a34ebdb898a57cea6f231269a38dfcc732446b2bbbdd67bdc775e812"
    ),
    "predict knutson -n 5": "9e37b6e3586e6443496bb577c162089efe48745349d75bfa019295c3602d0bdc",
    "syzygies -n 3 --degree-bound 4 --budget-spairs 150": (
        "7a2fb2e61c43461c87193aa2006940fa5c86c721cbe82edf907e560c9149a01a"
    ),
}


#: `syzygy-check -n 2` on a matrix file: (file text, exit code) -> digest
MATRIX_DIGESTS = {
    ("1/32003; 0\n0; 1/32003\n", 0): (
        "ca2859cdb4fdd530574c7fbff8aa77b07c3cc83a5970fab6a39aa6e9db9e3219"
    ),
    ("0; 32003\n0; 0\n", 1): (
        "ef0a57722cfd1287a3fc5ac9e8ba5b32f924cde822e9480244eb2ea0d4d1bcee"
    ),
    ("x_1_1^128*x_1_2^128; 0\n0; 0\n", 1): (
        "5650809d2bce2ffeb68b832cdb7398feb15fa1fd899826c42d178edd0501ef02"
    ),
}


def run_digest(argv):
    """Exit code and results digest of one CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    results = json.loads(out.getvalue())["results"]
    return code, hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("command", list(DIGESTS))
def test_results_match_the_recorded_digest(command):
    assert run_digest(command.split()) == (0, DIGESTS[command])


@pytest.mark.parametrize(
    "text, code", list(MATRIX_DIGESTS), ids=("syzygy", "non-syzygy", "degree-256")
)
def test_syzygy_check_results_match_the_recorded_digest(text, code, tmp_path):
    matrix = tmp_path / "m.mat"
    matrix.write_text(text)
    argv = ["syzygy-check", "-n", "2", "--matrix", str(matrix)]
    assert run_digest(argv) == (code, MATRIX_DIGESTS[text, code])
