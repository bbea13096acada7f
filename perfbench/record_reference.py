"""Print the transient-setup figures that reference.json records.

    python3 perfbench/record_reference.py

Run from the root of a checkout. Runs the transient-setup workload once at
full size and prints <n>(5) and x(5) at full precision and rounded to the
five significant digits kept in reference.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    w = WORKLOADS["transient-setup"]
    (item,) = w.inputs(seed=1, smoke=False)
    fig, _ = w.check(w.run(item))
    measured = {"n_tau5": fig["n_end"], "x_tau5": fig["x_end"]}
    rounded = {k: float(f"{v:.5g}") for k, v in measured.items()}
    print(json.dumps({"measured": measured, "rounded": rounded}, indent=2))
