(** Compact binary encoding of {!Wire} messages.

    The structural simulation path ships OCaml values directly and {e
    estimates} wire cost ({!Wire.header_bytes}); this codec produces the
    actual bytes so byte gauges and batching operate on real frames. The
    format is a length-prefixed frame:

    {v frame := uvarint(len(body)) body v}

    where the body is a tag byte followed by LEB128 varints (zigzag for
    fields that may be negative, plain for counts/lengths/clock
    components). Vector timestamps are [count, component...]; a data
    record under [Pc_meta]/[Hybrid_meta] ships only the count (the group
    size, checked against [sender_rank]) — its sender sequence is the
    meta's [origin_seq], which every reader takes through
    {!Wire.sender_seq}. The decoder builds no stamp for such a record: its
    [vt] is an all-zero vector of the shipped size, shared by every PC
    record the codec instance decodes at that size (never mutate it). That
    keeps PC-broadcast per-message metadata constant in group size on the
    {e encoded} wire, and a decoded copy's allocation and retained memory
    constant too. Only the wire-carried fields round-trip: the origin's
    sparse in-memory stamp comes back as the shared zero vector.

    The varint primitives are closure-free, so decoding one PC data frame
    allocates the same number of words at every group size, and a gossip
    vector of n components allocates its n-word result plus a constant
    (pinned by [test/test_wire_codec.ml]).

    Timestamp snapshots are serialized once per multicast, not once per
    recipient: a one-slot cache keyed on physical identity reuses the
    encoded blob across the fan-out (multicast timestamps are immutable
    [copy_tick] snapshots; gossip clocks are live and bypass the cache).

    Decoding is strict: unknown tags, truncated buffers, over-long varints
    and trailing garbage all raise {!Corrupt} — never a mangled value. *)

exception Corrupt of string

type 'a payload_codec = {
  encode_payload : Buffer.t -> 'a -> unit;
  decode_payload : bytes -> int ref -> 'a;
      (** read from the current position (advancing it); raise {!Corrupt}
          on malformed input rather than consuming past the frame *)
}

val int_payload : int payload_codec
(** Zigzag varint — the payload type every experiment driver uses. *)

val string_payload : string payload_codec
(** Length-prefixed raw bytes. *)

type 'a t
(** Codec instance: payload codec plus the timestamp memo, the shared
    zero stamp of decoded PC records and scratch buffers. One per process (instances are not thread-safe; under the
    parallel engine each process — and so each codec — is owned by one
    domain). *)

val create : 'a payload_codec -> 'a t

val encode : 'a t -> 'a Wire.t -> string
(** Complete frame, length prefix included. *)

val decode : 'a t -> string -> 'a Wire.t
(** Inverse of {!encode} on exactly one frame; raises {!Corrupt} on any
    malformed or trailing input. *)

val encoded_bytes : 'a t -> 'a Wire.t -> int
(** [String.length (encode t w)]. *)

val data_bytes : 'a t -> 'a Wire.data -> int
(** Encoded size of one data record (piggyback included) — the real-bytes
    replacement for {!Wire.buffered_bytes} that {!Stability} charges its
    unstable-bytes gauges with under {!Config.Encoded}. Excludes the
    frame length prefix and group-id envelope: those are per-packet link
    costs, not buffer contents. *)

(** {2 Varint primitives} — exposed for the round-trip test battery and
    micro-benchmarks. *)

val write_varint : Buffer.t -> int -> unit
(** Zigzag + LEB128 (any int). *)

val read_varint : bytes -> int ref -> int

val write_uvarint : Buffer.t -> int -> unit
(** Plain LEB128; the argument must be non-negative. *)

val read_uvarint : bytes -> int ref -> int
val varint_size : int -> int
val uvarint_size : int -> int
