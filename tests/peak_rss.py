"""Run one ``tancat`` command in this process and fail above a peak RSS.

Usage, from the repository root::

    PYTHONPATH=src python tests/peak_rss.py CEILING_MIB ARGV...

for example ``PYTHONPATH=src python tests/peak_rss.py 80 axioms
--samples 50000 --seed 1``.  The command's report goes to stdout and its
peak resident set size, with the ceiling, to stderr.  The exit status is
the command's when that is nonzero, else 1 when the peak is above
``CEILING_MIB`` mebibytes, else 0.  pytest does not collect this file.
"""

import resource
import sys

from tancat.cli import main

if __name__ == "__main__":
    ceiling = sys.argv[1]
    code = main(sys.argv[2:])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB (ceiling {ceiling} MiB)", file=sys.stderr)
    sys.exit(code or peak > float(ceiling))
