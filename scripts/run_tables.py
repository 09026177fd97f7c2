#!/usr/bin/env python3
"""Recompute the four reference tables: ``ionjump tables`` for T1..T4.

Usage: python scripts/run_tables.py [--db PATH] [--lenient]
Exits 3 when any table has a cell out of tolerance (the bundled data
leaves the Hg+ cells of T2/T3 out of tolerance).
"""

import sys

from ionjump.cli import main

if __name__ == "__main__":
    sys.exit(max(main(["tables", table, *sys.argv[1:]]) for table in ("T1", "T2", "T3", "T4")))
