"""The binary term codec: round-trips, sharing, and corruption refusal.

The fuzz suites send seeded termgen terms (as the reduction golden
tests use) through encode→decode→encode, asserting structural equality,
arena identity (when hash consing is on), and byte-for-byte encode
stability.
The corruption suites hold the codec to its refuse-don't-crash
contract — *every* malformed input must surface as
:class:`SnapshotError`, never a deep ``KeyError``/``IndexError``/
``struct.error``.
"""

import random

import pytest

from repro.kernel.codec import (
    FORMAT_VERSION,
    KIND_TERM,
    MAGIC,
    Reader,
    SnapshotError,
    Writer,
    decode_term,
    decode_terms,
    encode_term,
    encode_terms,
    write_header,
)
from repro.kernel.term import (
    App,
    Const,
    Elim,
    Lam,
    Pi,
    Rel,
    Sort,
    hash_consing_enabled,
)
from tests.termgen import fuzz_terms

FUZZ_COUNT = 150


# -- Round-trip fidelity ------------------------------------------------------


class TestRoundTrip:
    def test_fuzz_decode_equals_original(self, env_lists):
        for label, term in fuzz_terms(2024, FUZZ_COUNT, env_lists, depth=5, binders=2):
            decoded = decode_term(encode_term(term))
            assert decoded == term, label

    def test_fuzz_encode_stability(self, env_lists):
        """encode(decode(encode(t))) is byte-identical to encode(t)."""
        for label, term in fuzz_terms(77, FUZZ_COUNT, env_lists, depth=5, binders=1):
            data = encode_term(term)
            assert encode_term(decode_term(data)) == data, label

    def test_fuzz_arena_identical_reload(self, env_lists):
        """With hash consing on, decoding lands on the same arena node."""
        if not hash_consing_enabled():
            pytest.skip("interning disabled: arena identity not expected")
        for label, term in fuzz_terms(9, 50, env_lists, depth=4, binders=1):
            assert decode_term(encode_term(term)) is term, label

    def test_binder_names_survive(self):
        term = Pi("widget", Sort(0), Lam("gadget", Rel(0), Rel(0)))
        decoded = decode_term(encode_term(term))
        assert decoded.name == "widget"
        assert decoded.codomain.name == "gadget"

    def test_sort_levels_including_prop(self):
        for level in (-1, 0, 1, 7, 200):
            assert decode_term(encode_term(Sort(level))).level == level

    def test_elim_round_trip(self, env_basic):
        term = Elim(
            "nat",
            Lam("n", App(Const("pred"), Rel(0)), Sort(0)),
            (Const("add"), Const("pred")),
            App(Const("add"), Const("pred")),
        )
        assert decode_term(encode_term(term)) == term

    def test_multi_root_stream(self):
        roots = (Sort(0), Const("add"), App(Const("add"), Sort(0)))
        assert decode_terms(encode_terms(roots)) == roots

    def test_empty_root_stream(self):
        assert decode_terms(encode_terms([])) == ()


class TestSharing:
    def test_shared_subterm_written_once(self):
        # A balanced tree of depth 10 over one shared leaf chain: the
        # tree has 2^10 leaves but the DAG only ~11 distinct nodes, and
        # the encoding must scale with the DAG.
        node = Const("add")
        for _ in range(10):
            node = App(node, node)
        data = encode_term(node)
        assert len(data) < 200

    def test_decoded_stream_preserves_sharing(self):
        shared = App(Const("add"), Const("pred"))
        term = App(shared, shared)
        decoded = decode_term(encode_term(term))
        # Sharing survives decode regardless of interning mode: both
        # children decode to the same table entry.
        assert decoded.fn is decoded.arg


# -- The error contract -------------------------------------------------------


def _assert_refused(data, label=""):
    """Decoding must raise SnapshotError — and nothing else."""
    with pytest.raises(SnapshotError):
        decode_term(data)


class TestCorruption:
    def test_empty_input(self):
        _assert_refused(b"")

    def test_bad_magic(self):
        _assert_refused(b"NOPE" + b"\x01" * 8)

    def test_unknown_format_version(self):
        writer = Writer()
        writer.raw(MAGIC)
        writer.uvarint(FORMAT_VERSION + 1)
        writer.u8(KIND_TERM)
        with pytest.raises(SnapshotError, match="version"):
            decode_term(writer.tobytes())

    def test_wrong_payload_kind(self):
        writer = Writer()
        write_header(writer, KIND_TERM + 7)
        _assert_refused(writer.tobytes())

    def test_every_truncation_refused(self, env_basic):
        data = encode_term(
            next(iter(fuzz_terms(5, 1, env_basic, depth=4, binders=1)))[1]
        )
        for cut in range(len(data)):
            _assert_refused(data[:cut], f"cut at {cut}")

    def test_trailing_garbage_refused(self, env_basic):
        data = encode_term(Sort(0))
        _assert_refused(data + b"\x00")

    def test_fuzz_flipped_bytes(self, env_lists):
        """Flipping any byte either still decodes or raises SnapshotError."""
        rng = random.Random(31337)
        for label, term in fuzz_terms(31337, 30, env_lists, depth=4, binders=1):
            data = bytearray(encode_term(term))
            for _ in range(30):
                index = rng.randrange(len(data))
                mutated = bytearray(data)
                mutated[index] ^= 1 << rng.randrange(8)
                try:
                    decode_term(bytes(mutated))
                except SnapshotError:
                    pass  # refused cleanly: the contract holds
                # Any other exception propagates and fails the test.

    def test_dangling_node_reference(self):
        # A PI node whose children reference itself (index 0 at decode
        # position 0 — forward/self references are dangling).
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(1)  # string table: one name
        writer.uvarint(1)
        writer.raw(b"x")
        writer.uvarint(1)  # node table: one node
        writer.u8(6)  # _TAG_PI
        writer.uvarint(0)  # name
        writer.uvarint(0)  # domain -> itself: dangling
        writer.uvarint(0)  # codomain
        writer.uvarint(1)
        writer.uvarint(0)
        with pytest.raises(SnapshotError, match="dangling"):
            decode_term(writer.tobytes())

    def test_dangling_string_reference(self):
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(0)  # empty string table
        writer.uvarint(1)
        writer.u8(3)  # _TAG_CONST
        writer.uvarint(5)  # string #5 of 0: dangling
        writer.uvarint(1)
        writer.uvarint(0)
        with pytest.raises(SnapshotError, match="string"):
            decode_term(writer.tobytes())

    def test_oversized_length_prefix(self):
        # A string-table count far beyond the remaining bytes.
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(1 << 40)
        with pytest.raises(SnapshotError, match="oversized"):
            decode_term(writer.tobytes())

    def test_oversized_string_length(self):
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(1)
        writer.uvarint(1 << 40)  # one string, absurd length
        with pytest.raises(SnapshotError, match="oversized|truncated"):
            decode_term(writer.tobytes())

    def test_unknown_node_tag(self):
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(0)
        writer.uvarint(1)
        writer.u8(250)  # no such tag
        writer.uvarint(1)
        writer.uvarint(0)
        with pytest.raises(SnapshotError, match="tag"):
            decode_term(writer.tobytes())

    def test_invalid_utf8_in_string_table(self):
        writer = Writer()
        write_header(writer, KIND_TERM)
        writer.uvarint(1)
        writer.uvarint(2)
        writer.raw(b"\xff\xfe")
        writer.uvarint(0)
        writer.uvarint(0)
        with pytest.raises(SnapshotError, match="UTF-8"):
            decode_term(writer.tobytes())

    def test_non_bytes_input(self):
        with pytest.raises(SnapshotError, match="bytes"):
            decode_term("not bytes")  # type: ignore[arg-type]

    def test_multi_root_stream_rejected_by_single_decoder(self):
        data = encode_terms([Sort(0), Sort(1)])
        with pytest.raises(SnapshotError, match="single-root"):
            decode_term(data)

    def test_oversized_varint_refused(self):
        # An unsigned varint longer than 64 bits of payload.
        reader = Reader(b"\xff" * 10 + b"\x01")
        with pytest.raises(SnapshotError, match="oversized varint"):
            reader.uvarint("test")

    def test_negative_varint_unencodable(self):
        with pytest.raises(SnapshotError):
            Writer().uvarint(-1)
