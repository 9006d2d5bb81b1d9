#!/usr/bin/env python3
"""Rebuild the stored reference of the desk workloads.

    python3 perfbench/make_reference.py [--workload-seed 11]

Enumerates the instance stream in enum-lbx, enum-marco-axp and
enum-marco-cxp through the library, checks the modes against each other
(see workloads.build_desk_reference) and writes one digest per instance
to perfbench/reference/.  Takes about a minute at the default seed.
"""

import argparse
import json
import sys

from run import import_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload-seed", type=int, default=11)
    args = parser.parse_args()
    import_program()
    import workloads

    model_seed = args.workload_seed
    instance_seed = model_seed + workloads.DESK_INSTANCE_SEED_OFFSET
    ref = workloads.build_desk_reference(model_seed, instance_seed, log=print)
    path = workloads.REFERENCE_DIR / workloads.reference_name(
        model_seed, instance_seed)
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}: lbx {ref['lbx']}, marco {ref['marco']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
