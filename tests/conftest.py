"""Session set-up shared by every test module.

numpy's OpenBLAS starts a pool thread when numpy loads unless
OPENBLAS_NUM_THREADS says otherwise. ``moneygas.cli`` sets it to 1 before
numpy loads; the suite does the same here, before any test module imports
numpy, so that its in-process multi-replica runs fork from a one-thread
process as the CLI does. A value already set wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
