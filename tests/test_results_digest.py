"""The JSON `results` of four quick CLI runs, pinned by sha256.

A refactor of the engine must leave every reported result byte-identical;
these digests were recorded before the monomial representation changed and
cover a verify suite, both n=3 bases and the n=3 colon ideal.  A digest
that moves means some computed object or its printed form changed.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from commsyz import cli

DIGESTS = {
    "verify -n 2": "179726f6b900d843bba2bda2141d46ce7dc03547cc995fab2f2a4b6af46a4a65",
    "groebner -n 3 --ideal I": "79b9011e6469ee0dcbd92a34cdbf28bba304ad78b2e00e1d851fe32c146f9f16",
    "groebner -n 3 --ideal J": "147292547ff7f5be4b5ed32343567e364b230e3967763061131b13c45b7f1aa8",
    "colon -n 3": "dc34ae4c6e1fddd641d4fb865674b07080551cfb06494a95c7e46df8d77bc654",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_results_match_the_recorded_digest(command, monkeypatch):
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(command.split() + ["--json"])
    assert code == 0
    results = json.loads(out.getvalue())["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[command]
