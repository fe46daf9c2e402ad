"""Fixture: a hand-rolled tmp + fsync + rename publish (raw-publish fires)."""

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
