#!/usr/bin/env python3
"""Run the unstable-register DFT ensemble: ``ionjump simulate dft``.

Usage: python scripts/run_dft_experiment.py [simulate dft options]
(see ``ionjump simulate dft --help``).
"""

import sys

from ionjump.cli import main

if __name__ == "__main__":
    sys.exit(main(["simulate", "dft", *sys.argv[1:]]))
