"""Self-tests of the benchmark: the correctness gate, the daemon reply
framing, and the metric names. They need no build and no program run:

    python3 -m unittest discover -s perfbench/tests
"""

import io
import json
import os
import re
import socket
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
from gate import GOLDEN, Gate, ProtocolError, read_reply  # noqa: E402

BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def flip_one_byte(data, at):
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.golden = b"=== Fig 2 ===\nrow 1\n"
        with open(os.path.join(self.tmp.name, "fig2.txt"), "wb") as f:
            f.write(self.golden)
        self.gate = Gate(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_golden_report_passes(self):
        self.gate.check_report("run", "fig2", self.golden)
        self.assertEqual((self.gate.attempted, self.gate.failed), (1, 0))

    def test_one_flipped_byte_in_a_golden_report_fails(self):
        self.gate.check_report("run", "fig2", flip_one_byte(self.golden, 5))
        self.assertEqual((self.gate.attempted, self.gate.failed), (1, 1))
        self.assertIn("first difference at byte 5", self.gate.failures[0])

    def test_missing_golden_file_fails(self):
        self.gate.check_report("run", "fig3", b"anything")
        self.assertEqual(self.gate.failed, 1)

    def test_other_reports_must_match_their_first_copy(self):
        report = b"=== Fig 11 ===\n42 cycles\n"
        self.gate.check_report("cold", "fig11", report)
        self.gate.check_report("warm", "fig11", report)
        self.gate.check_report("daemon", "fig11", flip_one_byte(report, 17))
        self.assertEqual((self.gate.attempted, self.gate.failed), (3, 1))
        self.assertIn("daemon", self.gate.failures[0])
        self.assertIn("cold", self.gate.failures[0])

    def test_payload_needs_its_trailing_newline(self):
        self.gate.check_payload("daemon", "fig2", self.golden + b"\n")
        self.gate.check_payload("daemon", "fig2", self.golden)
        self.assertEqual((self.gate.attempted, self.gate.failed), (2, 1))

    def test_stdout_must_hold_reports_in_request_order(self):
        reports = {"fig17": b"b", "table1": b"a"}
        self.gate.check_stream("run", ["table1", "fig17"], b"a\nb\n", reports)
        self.gate.check_stream("run", ["table1", "fig17"], b"b\na\n", reports)
        self.assertEqual((self.gate.attempted, self.gate.failed), (2, 1))

    def test_golden_set_is_the_seven_locked_experiments(self):
        self.assertEqual(len(GOLDEN), 7)
        self.assertTrue(set(GOLDEN) <= set(run.EXPERIMENTS))


class ReplyTest(unittest.TestCase):
    def test_well_framed_reply(self):
        stream = io.BytesIO(b"ok name=fig2 bytes=4 wall_ms=7 coalesced=1\nabc\nok pong\n")
        fields, payload = read_reply(stream)
        self.assertEqual(payload, b"abc\n")
        self.assertEqual(fields["coalesced"], "1")
        self.assertEqual(read_reply(stream), ({}, None))

    def test_truncated_payload_is_an_error(self):
        stream = io.BytesIO(b"ok name=fig2 bytes=40 wall_ms=7 coalesced=0\nonly a part")
        with self.assertRaisesRegex(ProtocolError, "truncated payload"):
            read_reply(stream)

    def test_err_reply_is_an_error(self):
        with self.assertRaisesRegex(ProtocolError, "err reply"):
            read_reply(io.BytesIO(b"err fig2 failed: boom\n"))

    def test_closed_connection_is_an_error(self):
        with self.assertRaisesRegex(ProtocolError, "closed"):
            read_reply(io.BytesIO(b""))


class FakeDaemon:
    """A Unix-socket server answering each request line with `reply(name)`,
    closing the connection after `limit` replies."""

    def __init__(self, path, reply, limit=None):
        self.limit = limit
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen()
        self.reply = reply
        self.thread = threading.Thread(target=self.serve)
        self.thread.start()

    def serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            for i, line in enumerate(lines):
                conn.sendall(self.reply(line.decode().split()[1]))
                if i + 1 == self.limit:
                    return

    def close(self):
        self.thread.join()
        self.listener.close()


class ClientTest(unittest.TestCase):
    def session(self, reply, plan, limit=None):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.sock")
            daemon = FakeDaemon(path, reply, limit)
            records = []
            run.client(path, plan, threading.Barrier(1), records)
            daemon.close()
        gate = Gate(tmp)
        return gate, run.check_requests(gate, "daemon", [records])

    def test_err_reply_counts_as_failed(self):
        def reply(name):
            if name == "fig11":
                return b"err fig11 failed: boom\n"
            return b"ok name=%s bytes=2 wall_ms=3 coalesced=0\nx\n" % name.encode()
        gate, requests = self.session(reply, [("fig17", 1), ("fig11", 2)])
        self.assertEqual(gate.failed, 1)
        self.assertIn("boom", gate.failures[0])
        self.assertEqual([r["name"] for r in requests], ["fig17"])

    def test_truncated_payload_fails_the_rest_of_the_connection(self):
        def reply(name):
            return b"ok name=%s bytes=99 wall_ms=3 coalesced=0\nshort\n" % name.encode()
        gate, requests = self.session(reply, [("fig17", 1), ("fig11", 2), ("fig1", 1)], limit=1)
        self.assertEqual(requests, [])
        self.assertEqual((gate.attempted, gate.failed), (3, 3))


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.bench = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_printed_names_are_declared_with_their_units(self):
        self.assertEqual(run.END_TO_END, self.declared("end_to_end"))
        self.assertEqual(run.PER_LAYER, self.declared("per_layer"))
        self.assertEqual(set(run.WORKLOADS), {w["name"] for w in self.bench["workloads"]})

    def test_names_use_only_allowed_characters(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(run.WORKLOADS):
            self.assertRegex(name, NAME)

    def test_metric_builders_emit_exactly_the_declared_names(self):
        probe = {
            "phases": dict.fromkeys(("synthesize", "forward", "extract", "train", "load", "model", "eval"), 1.0),
            "prep": dict.fromkeys(("prepared_hits", "prepared_misses", "workload_hits", "workload_misses",
                                   "disk_hits", "disk_misses"), 1),
            "sim": dict.fromkeys(("run_hits", "run_misses", "event_hits", "event_misses", "disk_hits",
                                  "disk_misses"), 1),
            "eval": dict.fromkeys(("hits", "misses", "disk_hits", "disk_misses"), 1),
            "probes": dict.fromkeys(("train_phase_s", "train_samples", "surrogate_s", "calibrate_s",
                                     "forward_s", "forward_macs"), 1.0),
        }
        server = run.server_metrics([{"latency_ms": 5.0, "wall_ms": 4.0, "coalesced": True}])
        self.assertEqual(set(server) - set(run.PER_LAYER), set())
        for srv in (None, server):
            layer = run.per_layer(probe, 10.0, 6.0, 2, {"fig2": 1.0}, srv, run.store_bytes(None), 0.1)
            self.assertEqual(set(layer), set(run.PER_LAYER))
        busy = sum(probe["phases"].values()) + 2.0 + layer["harness.unattributed_s"]
        self.assertAlmostEqual(busy, 10.0)
        process = {"wall": 1.0, "rss": 2.0, "cpu": 3.0}
        e2e = run.end_to_end([[process, process]], [0.5], [2.0, 3.0])
        self.assertEqual(set(e2e), set(run.END_TO_END))


class SummaryTest(unittest.TestCase):
    def test_summary_total(self):
        text = ("--- run summary ---\nfig1                         5.816s\n"
                "total                       26.769s wall (49.368s serial-equivalent, 2 jobs, 1.84x)\n")
        self.assertEqual(run.summary_total(text), 26.769)
        self.assertIsNone(run.summary_total("error: boom\n"))


if __name__ == "__main__":
    unittest.main()
