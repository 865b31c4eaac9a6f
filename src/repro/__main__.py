"""``python -m repro`` dispatches to the CLI.

The ``__main__`` guard matters here: the process shard backend uses the
``multiprocessing`` forkserver context, whose children re-import the
parent's main module (as ``__mp_main__``) — without the guard every
worker would re-run the CLI.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
