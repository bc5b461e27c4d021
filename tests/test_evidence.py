"""The thin's evidence: the script still runs, and its committed output supports the default."""

import json
import subprocess
import sys
from pathlib import Path

from latinsq.chain import ChainConfig

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "evidence" / "thin_tau.py"
MEASURED = ROOT / "evidence" / "thin_tau.json"
OBSERVABLES = {"cell00", "cyclic_agree", "diag0", "intercalates", "row0_col0", "row_parity"}
ORDER_KEYS = {
    "visits", "burn_in", "tau_int", "tau_max", "tau_max_at", "five_tau_max", "thin", "two_n_squared",
    "thin_over_five_tau_max", "min_visits_over_tau_max", "seconds",
}


def test_evidence_script_runs_at_order_five():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--orders", "5", "--seeds", "1", "--visits", "3000"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc.keys() == {"method", "orders"}
    assert set(doc["method"]["observables"]) == OBSERVABLES
    (order,) = doc["orders"].values()
    assert order.keys() == ORDER_KEYS
    assert order["visits"] == [3000] and order["thin"] == ChainConfig(5).thin
    (taus,) = order["tau_int"].values()
    assert taus.keys() == OBSERVABLES and all(tau > 0 for tau in taus.values())
    assert order["tau_max"] == max(taus.values())


def test_default_thin_is_five_measured_autocorrelation_times_at_every_measured_order():
    doc = json.loads(MEASURED.read_text())
    assert {int(n) for n in doc["orders"]} >= {5, 6, 7, 8, 12, 16, 24, 32, 48, 64}
    for n, order in doc["orders"].items():
        assert len(order["tau_int"]) >= 3, n
        for taus in order["tau_int"].values():
            assert taus.keys() == OBSERVABLES, n
            # None marks a series that never moved (the intercalate count at n = 3).
            assert ChainConfig(int(n)).thin >= 5 * max(t for t in taus.values() if t is not None), n
    assert all(gate["passed"] for gate in doc["gates"])
