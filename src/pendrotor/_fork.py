"""One ordered map over the usable cores, by fork and one pipe per child."""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterator, Sequence
from typing import NoReturn

from .errors import PendrotorError


def fork_map(fn: Callable, items: Sequence, what: str) -> Iterator:
    """``fn(item)`` for every item, in order, spread over the usable cores.

    With n = min(usable cores, items), item i runs in this process when
    i mod n = 0 and otherwise in child i mod n of n - 1 forked children
    (striding balances the load where the cost varies smoothly along the
    items); each child pickles its results into a pipe of its own.  Every
    item is computed as in a serial loop, so the results do not depend on
    n, and at n = 1 nothing is forked.  The first item that raises, here
    or in a child, raises here after the items before it, and so does one
    whose child ended without sending it (a :class:`PendrotorError` naming
    it as ``what`` and its index).  The children have exited and been
    reaped once the iterator is exhausted, raises or is closed.
    """
    n = min(len(os.sched_getaffinity(0)), len(items))
    readers, pids = [], []
    try:
        for w in range(1, n):
            r, wfd = os.pipe()
            readers.append(open(r, "rb"))
            with open(wfd, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _child(out, readers, fn, items[w::n])
            pids.append(pid)
        for i, item in enumerate(items):
            if i % n == 0:
                yield fn(item)
                continue
            try:
                result = pickle.load(readers[i % n - 1])
            except EOFError:
                raise PendrotorError(f"{what} {i}: its child process ended "
                                     f"without sending it") from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _child(out, readers, fn: Callable, items: Sequence) -> NoReturn:
    """A forked child of :func:`fork_map`: pickle each item's result, or
    the exception that ended it, into ``out``.

    It first closes the read ends it inherited, so that only the parent
    holds each one and its closing stops every writer.  It ends only
    through ``os._exit``, so no exit handler runs and no buffer inherited
    from the parent is flushed twice.
    """
    try:
        for reader in readers:
            reader.close()
        for item in items:
            try:
                result = fn(item)
            except Exception as exc:
                # pickled whole first: one that cannot pickle writes nothing
                out.write(pickle.dumps(exc))
                break
            pickle.dump(result, out)
            out.flush()
        out.flush()
    finally:
        os._exit(0)
