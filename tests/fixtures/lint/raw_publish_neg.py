"""Fixture: publishing through the durable runtime (silent)."""

from pathlib import Path

from repro.recovery.durable import atomic_write


def publish(final, data):
    atomic_write(final, data)


def label(name):
    # str.replace is not a rename.
    return Path(name.replace("-", "_")).name
