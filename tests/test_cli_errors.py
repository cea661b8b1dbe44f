"""CLI error-handling regressions: bad artifact paths must not traceback.

Every artifact-consuming subcommand (``report``, ``explain``, ``bill``,
``diff``) gets the same treatment for a missing and for a corrupt input
file: exit non-zero (2), print exactly one explanatory line on stderr,
and never raise. The ledger-needing experiments refuse a tracer without
a ledger the same way. These run no simulation.
"""

import json

import pytest

from repro.cli import _bill, _diff, _explain, _report, main
from repro.experiments.common import ledger_tracer
from repro.obs import AuditLog, EnergyLedger, Tracer
from repro.session import RunSession, current_session

SUBCOMMANDS = {
    "report": _report,
    "explain": _explain,
    "bill": _bill,
    "diff": _diff,
}


def _one_line(err: str) -> bool:
    return len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_missing_file_is_one_line_error(name, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = SUBCOMMANDS[name]([missing])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "nope.json" in err
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_corrupt_json_is_one_line_error(name, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{this is not json", encoding="utf-8")
    rc = SUBCOMMANDS[name]([str(corrupt)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "Traceback" not in err and "Traceback" not in out


def test_bill_wrong_shape_json(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"not": "a ledger"}), encoding="utf-8")
    rc = _bill([str(ledger)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not an energy-ledger JSON file" in err


def test_diff_wrong_shape_json(tmp_path, capsys):
    fp = tmp_path / "fp.json"
    fp.write_text(json.dumps({"format": "something-else", "runs": []}),
                  encoding="utf-8")
    rc = _diff([str(fp)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not a fingerprints document" in err


def test_diff_missing_b_side(tmp_path, capsys):
    fp = tmp_path / "a.json"
    fp.write_text(json.dumps({"format": "x"}), encoding="utf-8")
    rc = _diff([str(fp), str(tmp_path / "b.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err)


def test_ledger_tracer_adds_uses_or_refuses_a_ledger():
    audit, shared = AuditLog(), Tracer(ledger=EnergyLedger())
    with RunSession(audit=audit), ledger_tracer() as private:
        # The nested session keeps the outer session's other observers.
        assert private.ledger is not None
        assert current_session() == RunSession(tracer=private, audit=audit)
    with RunSession(tracer=shared), ledger_tracer() as tracer:
        assert tracer is shared
    with RunSession(tracer=Tracer()):
        with pytest.raises(ValueError, match="--ledger"):
            with ledger_tracer():
                pass


@pytest.mark.parametrize("experiment", ["tenancy", "retrystorm"])
def test_trace_without_ledger_is_one_line_failure(experiment, tmp_path,
                                                  capsys):
    rc = main([experiment, "--trace", str(tmp_path / "t.json")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert _one_line(err) and "--ledger" in err
