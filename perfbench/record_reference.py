#!/usr/bin/env python3
"""Record the reference loss traces the benchmark's gate compares against.

    python3 perfbench/record_reference.py

Each train workload's gate reruns a small, fixed training job (independent
of ``--seed``) and compares its per-epoch (total, model, vehicle) loss
trace with the one stored in ``reference.json``. Rerun this script only
when a change is meant to alter those numbers beyond the gate's tolerance,
and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = {
    # 12 optimizer steps at the train_h64 width.
    "train_h64": {"seed": 0, "items": 256, "hidden": 64, "batch_size": 64, "epochs": 3},
    # 4 optimizer steps at the train_h1024 width.
    "train_h1024": {"seed": 0, "items": 16, "hidden": 1024, "batch_size": 8, "epochs": 2},
}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import hareid

    from checks import reference_trace
    reference = {name: {"config": config, "trace": reference_trace(hareid, config)}
                 for name, config in CONFIGS.items()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
