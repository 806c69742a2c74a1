"""Pinned outputs: CLI requests and per-cell audit tallies.

``golden_outputs.json`` holds what the program printed for the requests
below (stdout, stderr and exit code of an in-process ``cli.main``) and the
per-cell results of a seeded audit in both domains.  A refactor that keeps
the arithmetic must keep these byte for byte.  To re-record after a change
that is meant to move them, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff of the data file.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hyperspace import cli
from hyperspace.audit import AuditConfig, Domain, run_audit

DATA = Path(__file__).with_name("golden_outputs.json")

_PRODUCT3 = "c[1,2,3] * c[-1,0.5,2] / c[0.3,0.2,0.1]"
_CHAIN5 = "p[1.5; 0.3, -0.4, 1.2, 0.7] * c[1,-2,0.5,3,1]^2"
_S3PRODUCT = "s3[1,2,3] * s3[0.5,-1,2]"

REQUESTS = [
    ["eval", "c[1,1] * c[1,1]"],
    ["eval", "p[2; pi/2, pi/2]"],
    ["eval", "--orientation", "cw", "p[2; pi/2, pi/2]"],
    ["eval", _PRODUCT3],
    ["eval", "--orientation", "cw", _PRODUCT3],
    ["eval", "--orientation", "cw", "--format", "json", _PRODUCT3],
    ["eval", "c[1,2,3,4]^3 - c[0.5,0.5,0.5,0.5]"],
    ["eval", "--orientation", "cw", "--format", "json", "p[1; 0.3, 0.4, 0.5] * c[1,2,3,4]"],
    ["eval", _CHAIN5],
    ["eval", "--orientation", "cw", "--digits", "17", _CHAIN5],
    ["eval", "--orientation", "cw", "c[1,2,3,4,5,6] / c[-1,1,-1,1,-1,1]^-2"],
    ["eval", "--orientation", "cw", "arg(c[1,-1,0.5], 1)"],
    ["eval", "--orientation", "cw", "arg(c[1,-1,0.5,2], 3)"],
    ["eval", "-c[1,-2] + conj(c[3,4])"],
    ["eval", "--format", "json", "lift(c[3,4], 12) * c[1,0,1]"],
    ["eval", "abs(p[2; 7, -4] * p[1; 0.1, 0.2])"],
    ["eval", _S3PRODUCT],
    ["eval", "--orientation", "cw", _S3PRODUCT],
    ["eval", "--format", "json", "s3p[2; 1, 5] / s3[1,1,1]"],
    ["eval", "s3[0,1,0]^-2 + s3[0.25,0,0]"],
    ["eval", "conj(s3[1,2,3]) + s3p[1; pi/2, 0]"],
    ["eval", "arg(s3[1,-1,-1], 2)"],
    ["eval", "--format", "json", "abs(s3[1,2,2])"],
    ["eval", "--orientation", "cw", "-s3p[3; 2.5, -1]"],
    ["convert", "--to", "polar", "c[1,2,3]"],
    ["convert", "--to", "polar", "--orientation", "cw", "c[1,2,3]"],
    ["convert", "--to", "polar", "--orientation", "cw", "--format", "json", "c[1,-2,3,-4]"],
    ["convert", "--to", "polar", "c[1,1] * c[1,1]"],
    ["convert", "--to", "polar", "--orientation", "cw", "p[2; 7, -4, 0.5]"],
    ["convert", "--to", "cartesian", "--orientation", "cw", "p[2; 1, 2, 3]"],
    ["convert", "--to", "polar", "c[0,0,0]"],
    ["convert", "--to", "polar", "s3[1,2,3]"],
    ["convert", "--to", "polar", "--orientation", "cw", "--format", "json", "s3[1,2,3]"],
    ["convert", "--to", "polar", "s3p[1; 4, 7]"],
    ["convert", "--to", "cartesian", "--format", "json", _S3PRODUCT],
    ["convert", "--to", "polar", "abs(c[3,4])"],
    ["roots", "c[1,2,3]", "3"],
    ["roots", "--orientation", "cw", "c[1,2,3]", "3"],
    ["roots", "--orientation", "cw", "--format", "json", "p[1; 0.5, 0.5, 0.5]", "4"],
    ["roots", "--format", "json", "s3[1,2,3]", "2"],
    ["roots", _S3PRODUCT, "3"],
    ["roots", "--orientation", "cw", _S3PRODUCT, "3"],
    ["roots", "c[0,0,0]", "3"],
    ["roots", "c[1,0]", "0"],
    ["roots", "abs(c[1,1])", "2"],
    ["eval", "c[1,0] / c[0,0]"],
    ["eval", "s3[1,0,0] / s3[0,0,0]"],
    ["eval", "c[1,2] + s3[1,2,3]"],
    ["eval", "lift(c[0,0], 1)"],
    ["eval", "c[1,"],
    # one request per parser and numeric-literal error site
    ["eval", "c[1,2] $"],
    ["eval", "foo(c[1,2])"],
    ["eval", "c[1,2]^1.5"],
    ["eval", "c[1,2] c[1,2]"],
    ["eval", "roots(c[1,2] 2)"],
    ["eval", "c[1/0,1]"],
    ["eval", "c[(-8)^0.5,1]"],
    ["eval", "c[10^400,0]"],
    ["eval", "p[-1; 0]"],
    ["eval", "c[1]"],
    ["eval", "s3[1,2]"],
    ["eval", "s3p[1; 1]"],
    ["eval", "arg(c[1,2], 5)"],
    ["eval", "lift(s3[1,2,3], 1)"],
    ["eval", "(" * 101 + "c[1,2]" + ")" * 101],
    ["eval", " * ".join(["c[1,2]"] * 102)],
]


def run_request(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def audit_cells(domain: Domain) -> list[list]:
    """Each cell's tallies, max deviation and counterexample, as JSON reads them."""
    cfg = AuditConfig(seed=42, dims=(2, 3, 4, 8), samples=50, domain=domain)
    cells = [
        [r.law, r.dim, r.passes, r.resamples, r.max_dev, r.counterexample]
        for r in run_audit(cfg).results
    ]
    return json.loads(json.dumps(cells))


def record() -> dict:
    return {
        "requests": [run_request(argv) for argv in REQUESTS],
        "audit": {d.value: audit_cells(d) for d in Domain},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_request_list_matches_the_data(golden):
    assert [r["argv"] for r in golden["requests"]] == REQUESTS


@pytest.mark.parametrize("index", range(len(REQUESTS)))
def test_cli_request(golden, index):
    want = golden["requests"][index]
    assert run_request(want["argv"]) == want


@pytest.mark.parametrize("domain", list(Domain))
def test_audit_cells(golden, domain):
    assert audit_cells(domain) == golden["audit"][domain.value]


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
