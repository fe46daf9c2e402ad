"""Fixture: hand-rolled renames outside the durable runtime (raw-publish fires)."""

import os
from os import rename


def publish(tmp, final, data):
    with open(tmp, "w") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)


def rotate(old, new):
    rename(old, new)


def publish_unsynced(tmp, final, data):
    # Never fsynced: a crash can keep the rename but lose the bytes.
    with open(tmp, "w") as handle:
        handle.write(data)
    os.replace(tmp, final)
