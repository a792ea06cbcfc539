"""Where worker processes come from: one preloaded forkserver.

The package starts worker processes in two places, the shard workers
of :func:`repro.shard.run_fleet` and the process pool of
:func:`repro.experiments.suite.run_suite`.  Both take their context
from :func:`worker_context`, so the start method is decided here once.

It is ``forkserver``.  The server is a fresh interpreter that imports
:data:`PRELOAD` and nothing else: it builds no scenario, runs no
simulator and starts no thread of its own.  Each worker is a
``fork()`` of that server, so it starts with the stack imported (about
0.5 s a worker under ``spawn``) and with no state of any run.  Workers
still receive plain dicts and take their seeds from them.

Three invariants hold:

* **Workers read no environment variable.**  A forked worker sees the
  environment its server started with, not the caller's environment
  now, so callers read the environment before a payload leaves (the
  shard hang hook, the default run length).
* **The server only imports.**  Nothing it holds can reach a result.
* **Nothing outlives the interpreter.**  An ``atexit`` handler stops
  the server and waits for it.

Python 3.11's forkserver accepts the ``sys.path`` of the process that
starts it but never applies it, and ignores a preload that fails to
import.  A program that puts ``src`` on ``sys.path`` in code, not
through ``PYTHONPATH``, would get a server that silently preloaded
nothing.  So the server is started with the directory that holds the
``repro`` package prepended to ``PYTHONPATH``, for that launch only.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from multiprocessing import forkserver
from pathlib import Path

#: What the server imports once: everything a shard worker or a suite
#: worker runs.  ``import numpy`` leaves ``numpy.random`` to its first
#: use, which would otherwise be inside each worker's first pod build.
PRELOAD = ("numpy.random", "repro.shard.worker", "repro.experiments.suite")

#: The directory that holds the ``repro`` package.
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)


def worker_context():
    """The ``forkserver`` context, with its server running and preloaded.

    Call it before every run: it starts the server once per
    interpreter, and again, the same way, if the server has died.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(list(PRELOAD))
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [_PACKAGE_ROOT] + ([saved] if saved else [])
    )
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved
    return context


@atexit.register
def _stop_server() -> None:
    """Stop the server and wait for it to exit.

    Left alone, the server exits only once every holder of its "alive"
    pipe is gone, that is after this interpreter.  Its workers hold that
    pipe too, and this handler runs before multiprocessing's own, so
    daemon workers are terminated here, as that handler would, rather
    than waited for forever.
    """
    for child in multiprocessing.active_children():
        if child.daemon:
            child.terminate()
    forkserver._forkserver._stop()
