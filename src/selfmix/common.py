"""Shared plumbing: error types, seed derivation, rounding, atomic writes, the
one guard against overwriting an input, and the one CSV writer."""
from __future__ import annotations

import csv
import errno
import hashlib
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping


class NumericError(ArithmeticError):
    """A computation produced a non-finite intermediate value."""


def subseed(root: int, *names: object) -> int:
    """Derive a stable 64-bit sub-seed from a root seed and a name path.

    Every source of randomness in a run (init, shuffle, dropout, mixup,
    noise, ...) draws from its own named stream so that experiments can vary
    one source while freezing the rest. Stable across platforms and runs.
    """
    tag = ":".join(str(n) for n in names)
    digest = hashlib.blake2b(f"{root}:{tag}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def round_half_up(x: float) -> int:
    """round() with deterministic half-up ties, used for exact flip counts."""
    return int(math.floor(x + 0.5))


def temp_path(path: str | Path) -> Path:
    """The temporary file :func:`atomic_open` writes beside ``path``."""
    return Path(f"{path}.tmp")


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write to a temporary file beside ``path``, renamed onto it on success,
    so a write that fails part-way leaves an existing file untouched and no
    temporary file. Text is UTF-8, written without newline translation.
    A missing directory raises ``FileNotFoundError`` naming ``path``."""
    tmp = temp_path(path)
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    try:
        fh = open(tmp, mode, **text)
    except FileNotFoundError:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def refuse_overwrite(
    inputs: Mapping[str, str | Path | None],
    outputs: Iterable[str | Path],
    message: str,
) -> None:
    """Raise ``ValueError`` for the first input, in ``inputs`` order, that a
    command writing ``outputs`` would overwrite or remove: one that, as
    spelled or through a symlink, is an output, lies inside an output
    directory, or is the temporary file :func:`atomic_open` writes beside an
    output. ``inputs`` maps a label (a flag or config key) to a path, or to
    ``None`` for an input not given. The error is ``message`` with each
    ``{label}`` and ``{path}`` filled in. No path needs to exist."""

    def located(path: str | Path) -> Path:
        # the directory resolved and the last component as given: two spellings
        # of one file compare equal, and an output that is a symlink names the
        # link that a write replaces, not its target
        return Path(path).parent.resolve() / Path(path).name

    taken = {located(p) for out in outputs for p in (out, temp_path(out))}
    for label, path in inputs.items():
        if path is None:
            continue
        spellings = (located(path), Path(path).resolve())
        if taken.intersection(p for s in spellings for p in (s, *s.parents)):
            raise ValueError(message.replace("{label}", label).replace("{path}", str(path)))


def write_csv(
    path: str | Path,
    rows: Iterable[Iterable[object]],
    *,
    head: Iterable[str] = (),
    tail: Iterable[str] = (),
) -> None:
    """Write ``rows`` as RFC-4180 CSV, one line each, atomically through
    :func:`atomic_open`, after the ``# ``-prefixed comment lines ``head``
    and before those of ``tail``. This is the one CSV writer: corpora,
    manifests, histograms and the epoch and step tables all go through it.
    Cells are Python ints, floats and strs; a NumPy scalar can print
    otherwise than the Python number it equals, so convert arrays with
    ``.tolist()``. A comment line holding a line break (anything
    ``str.splitlines`` splits on) would end early, so it is refused with
    ``ValueError`` before the file is opened."""
    head, tail = list(head), list(tail)
    for line in head + tail:
        if line.splitlines() != line.splitlines(keepends=True):
            raise ValueError(f"{path}: comment line {line!r} holds a line break")
    with atomic_open(path) as fh:
        fh.writelines(f"# {line}\n" for line in head)
        csv.writer(fh, lineterminator="\n").writerows(rows)
        fh.writelines(f"# {line}\n" for line in tail)
