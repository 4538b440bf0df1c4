"""Correctness gate of the benchmark: every report the program produces is
checked byte for byte before any of its timings count.

* The seven golden-locked experiments must equal `tests/golden/<name>.txt`.
* Every other experiment must equal the first copy of it seen in the run,
  whichever process or daemon reply produced that copy.
* Daemon replies must be well framed: an `ok` header whose `bytes=N` is
  followed by exactly N payload bytes ending in the newline the one-shot
  mode appends. An `err` reply or a short payload is a failure.
"""

import os

GOLDEN = ("fig2", "fig3", "table1", "fig14", "fig16", "fig18", "policy-panel")


class ProtocolError(Exception):
    """A daemon reply that is not a complete, well-framed `ok` reply."""


def read_reply(stream):
    """Reads one daemon reply from a binary file-like `stream`.

    Returns `(fields, payload)`: the header's `key=value` words as a dict
    and the payload bytes (None for replies without one, such as `ok
    pong`). Raises ProtocolError on an `err` reply, a closed connection, a
    malformed header or a truncated payload.
    """
    header = stream.readline()
    if not header:
        raise ProtocolError("connection closed before a reply")
    if not header.endswith(b"\n"):
        raise ProtocolError("truncated header %r" % header)
    text = header.decode("utf-8", "replace").rstrip("\n")
    if text.startswith("err"):
        raise ProtocolError("err reply: %s" % text[3:].strip())
    words = text.split()
    if not words or words[0] != "ok":
        raise ProtocolError("malformed header %r" % text)
    fields = dict(w.split("=", 1) for w in words[1:] if "=" in w)
    if "bytes" not in fields:
        return fields, None
    try:
        n = int(fields["bytes"])
    except ValueError:
        raise ProtocolError("malformed bytes= in %r" % text) from None
    payload = stream.read(n)
    if len(payload) != n:
        raise ProtocolError("truncated payload: %d of %d bytes" % (len(payload), n))
    return fields, payload


class Gate:
    """Counts checked operations and records every failure."""

    def __init__(self, golden_dir):
        self.golden_dir = golden_dir
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def fail(self, source, message):
        """Counts one attempted operation that failed outright."""
        self.attempted += 1
        self.failures.append("%s: %s" % (source, message))

    def ok(self):
        """Counts one attempted operation that succeeded."""
        self.attempted += 1

    def check_report(self, source, name, data):
        """Checks one experiment's report bytes (without the trailing
        separator newline the stream adds)."""
        if name in GOLDEN:
            path = os.path.join(self.golden_dir, name + ".txt")
            try:
                with open(path, "rb") as f:
                    expected, origin = f.read(), path
            except OSError as e:
                self.fail(source, "%s: cannot read golden: %s" % (name, e))
                return
        else:
            origin, expected = self.reference.setdefault(name, (source, data))
        if data == expected:
            self.ok()
        else:
            self.fail(source, "%s differs from %s (%s)" % (name, origin, first_difference(data, expected)))

    def check_payload(self, source, name, payload):
        """Checks one daemon `run` payload: the report plus one newline."""
        if not payload.endswith(b"\n"):
            self.fail(source, "%s payload lacks its trailing newline" % name)
        else:
            self.check_report(source, name, payload[:-1])

    def check_stream(self, source, names, stdout, reports):
        """Checks a one-shot run's stdout: every report in request order,
        each followed by one newline."""
        expected = b"".join(reports.get(n, b"") + b"\n" for n in names)
        if stdout == expected:
            self.ok()
        else:
            self.fail(source, "stdout is not the reports in request order (%s)" % first_difference(stdout, expected))

    @property
    def failed(self):
        return len(self.failures)


def first_difference(a, b):
    """Describes where two byte strings first differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return "first difference at byte %d" % i
    return "lengths %d vs %d" % (len(a), len(b))
