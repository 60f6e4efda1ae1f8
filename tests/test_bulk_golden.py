"""The bulk arrays against digests stored in tests/golden/bulk_digests.json,
and the Dense/StrongDense counts against tests/golden/count_grid.json.

The digests pin every membership_tables level and the Schinzel-Szekeres
masks of A_beta and of check_ssf_identity_range, so a change to how the
level-1 divisor pairs or the prime steps are built or scanned cannot change
a single byte unnoticed.
The grid pins count_members at x = 2e5 over y, i, kind and squarefree.
Regenerate (only after an intended change of output) with

    PYTHONPATH=src python tests/test_bulk_golden.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from densediv import families

from _shared import a_beta_mask, ssf_identity_mask

GOLDEN = Path(__file__).parent / "golden" / "bulk_digests.json"
GRID = Path(__file__).parent / "golden" / "count_grid.json"

TABLE_CASES = [(10**5, Fraction(y), 4) for y in ("2", "5/2", "3", "10")]
TABLE_CASES.append((10**4, Fraction(2), 16))
BIG_Y = Fraction(10**17 + 3, 3 * 10**16)  # products with its numerator pass int64
SSF_CASES = [(10**5, y, Fraction(b)) for b in ("1", "2", "7/3") for y in (Fraction(2), BIG_Y)]


def _sha(buf) -> str:
    return hashlib.sha256(bytes(buf)).hexdigest()


def table_digests(N: int, y: Fraction, imax: int) -> dict:
    t = families.membership_tables(N, y, imax)
    out = {"smooth": _sha(t["smooth"])}
    for kind in ("thetalower", "thetaupper", "dense", "strongdense"):
        out |= {f"{kind}[{i}]": _sha(b) for i, b in enumerate(t[kind])}
    return out


def ssf_digests(x: int, y: Fraction, beta: Fraction) -> dict:
    a_mask = a_beta_mask(x, y, beta)  # F_beta(n) <= x y
    id_mask = ssf_identity_mask(x, y, beta)  # F_beta(n) <= n y^beta
    return {"count_A_beta": _sha(np.asarray(a_mask, dtype=bool).tobytes()),
            "ssf_identity": _sha(np.asarray(id_mask, dtype=bool).tobytes())}


GRID_X = 2 * 10**5
GRID_YS = ("3/2", "2", "5/2", "10", "50")


def grid_counts(ys: str) -> dict:
    return {_key(kind, i, ys, "sf" if sf else "plain"):
            families.count_members(families.FamilySpec(kind, Fraction(ys), i=i, squarefree=sf), GRID_X)
            for i in (3, 4, 10) for kind in ("dense", "strongdense") for sf in (False, True)}


def _key(*parts) -> str:
    return " ".join(str(p) for p in parts)


def compute_all() -> dict:
    return {
        "membership_tables": {_key(N, y, imax): table_digests(N, y, imax)
                              for N, y, imax in TABLE_CASES},
        "ssf_within": {_key(x, y, beta): ssf_digests(x, y, beta) for x, y, beta in SSF_CASES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("N,y,imax", TABLE_CASES, ids=lambda v: str(v))
def test_membership_tables_digests(golden, N, y, imax):
    assert table_digests(N, y, imax) == golden["membership_tables"][_key(N, y, imax)]


@pytest.mark.parametrize("x,y,beta", SSF_CASES, ids=lambda v: str(v))
def test_ssf_mask_digests(golden, x, y, beta):
    assert ssf_digests(x, y, beta) == golden["ssf_within"][_key(x, y, beta)]


@pytest.mark.parametrize("ys", GRID_YS)
def test_count_grid(ys):
    grid = json.loads(GRID.read_text())
    assert grid_counts(ys) == {k: v for k, v in grid.items() if k.split()[2] == ys}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    grid = {k: v for ys in GRID_YS for k, v in grid_counts(ys).items()}
    GRID.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
