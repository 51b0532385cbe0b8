#!/usr/bin/env python3
"""Check EXPERIMENTS.md's measured Table 1 against bench_table1's CSV.

    check_table1.py <bench_table1> <EXPERIMENTS.md>

Runs the bench and compares, row by row, every tau column and ILP-II red%
of the "Measured here" table under "## Table 1" with the CSV the bench
prints; the cpu columns are timings and are not compared. Exits 1 on any
differing, missing or extra cell.
"""

import subprocess
import sys


def measured_table(markdown):
    """Header and rows of the first table after "Measured here" in the
    Table 1 section."""
    section = markdown.split("\n## Table 1", 1)[1].split("\n## ", 1)[0]
    table = []
    for line in section.split("Measured here", 1)[1].splitlines():
        if line.startswith("|"):
            table.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif table:
            break
    return table[0], table[2:]  # table[1] is the |---| rule


def bench_csv(binary):
    out = subprocess.run([binary], check=True, capture_output=True,
                         text=True).stdout
    rows = [line.split(",")
            for line in out.split("\nCSV:\n", 1)[1].strip().splitlines()]
    return rows[0], rows[1:]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    md_header, md_rows = measured_table(open(sys.argv[2]).read())
    csv_header, csv_rows = bench_csv(sys.argv[1])
    # EXPERIMENTS.md's "Normal" is the CSV's "Normal tau"; red% is the same.
    columns = []
    for name in md_header:
        match = [i for i, c in enumerate(csv_header) if c in (name, name + " tau")]
        if len(match) != 1:
            sys.exit("no CSV column for EXPERIMENTS.md column '%s'" % name)
        columns.append(match[0])

    failures = []
    if len(md_rows) != len(csv_rows):
        failures.append("EXPERIMENTS.md has %d rows, the bench %d"
                        % (len(md_rows), len(csv_rows)))
    by_key = {row[0]: row for row in csv_rows}
    for row in md_rows:
        bench = by_key.get(row[0])
        if bench is None:
            failures.append("%s: not in the bench's CSV" % row[0])
            continue
        for name, cell, col in zip(md_header, row, columns):
            if cell != bench[col]:
                failures.append("%s %s: EXPERIMENTS.md %s, bench %s"
                                % (row[0], name, cell, bench[col]))
    for failure in failures:
        print(failure)
    if failures:
        return 1
    print("Table 1: all %d rows of EXPERIMENTS.md match the bench" % len(md_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
