import re
from pathlib import Path

import pytest


@pytest.fixture
def full_disk(monkeypatch):
    """`full_disk(name, room=40)`: a file `wsdsel.data` opens for `name` takes `room` bytes, then fails as a full disk would.

    `wsdsel.data` opens every output file, so this reaches each of them; a
    temporary written beside its target (`<name>.<8 hex digits>.tmp`, or
    `<name>.tmp`) is matched by the target's name.
    """
    real_open = open

    class FailingFile:
        def __init__(self, fh, room):
            self.fh = fh
            self.room = room

        def write(self, data):
            if len(data) > self.room:
                self.fh.write(data[: self.room])
                raise OSError(28, "No space left on device")
            self.room -= len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def fill(name, room=40):
        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return FailingFile(fh, room) if re.sub(r"(\.[0-9a-f]{8})?\.tmp$", "", Path(file).name) == name else fh

        monkeypatch.setattr("wsdsel.data.open", failing_open, raising=False)

    return fill
