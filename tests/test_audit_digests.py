"""The committed audit printout covers exactly the audit's runs.

``tests/audit_digests.txt`` is the printout of ``tests/audit_outputs.py`` for
the tree it is committed with.  The audit itself takes about 20 s, so it is
not run here; this only checks that no run was added to or dropped from
``COMMANDS`` without its digests.
"""

from pathlib import Path

import audit_outputs

DIGESTS = Path(__file__).with_name("audit_digests.txt")


def test_digests_name_every_audit_run_in_order():
    lines = DIGESTS.read_text().splitlines()
    # The header names what the bits depend on besides the source.
    assert lines[0].startswith("# python ") and " blas " in lines[0] and " threads " in lines[0]
    runs = [line.split()[0] for line in lines[1:] if line and not line.startswith(" ")]
    firsts = [run for run in runs if not run.endswith(".rerun")]
    assert firsts == list(audit_outputs.COMMANDS)
    # Each rerun follows the run whose manifest it replays.
    assert all(run in (runs[k - 1], f"{runs[k - 1]}.rerun")
               for k, run in enumerate(runs) if run.endswith(".rerun"))
