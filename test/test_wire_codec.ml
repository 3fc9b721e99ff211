(* Wire-codec correctness battery: qcheck encode/decode round-trip identity
   for every [Wire] variant (all six meta kinds, piggybacked history, every
   proto constructor, the Direct envelope) over the fields the wire
   carries, allocation pins on the receive path, plus strict-decoder
   rejection —
   every truncation of a valid frame, trailing garbage, unknown tags, and
   arbitrary byte soup must raise [Wire_codec.Corrupt], never return a
   mangled value or escape with another exception. *)

module Wire = Repro_catocs.Wire
module Wire_codec = Repro_catocs.Wire_codec

let codec () = Wire_codec.create Wire_codec.int_payload

(* --- generators ---------------------------------------------------------- *)

open QCheck

let gen_vt =
  Gen.(
    int_range 1 8 >>= fun n ->
    list_size (return n) (int_range 0 1000) >|= Vector_clock.of_list)

(* A PC/hybrid stamp as the origin builds it: nonzero only at the sender's
   own component. The wire carries just the group size and [origin_seq];
   the decoder hands out an all-zero vector of that size. *)
let gen_pc_stamp =
  Gen.(
    int_range 1 8 >>= fun n ->
    int_range 0 (n - 1) >>= fun rank ->
    int_range 0 1000 >|= fun seq ->
    let vt = Vector_clock.create n in
    Vector_clock.set vt rank seq;
    (vt, rank, seq))

let gen_meta_and_vt =
  Gen.(
    int_range 0 5 >>= function
    | 0 -> gen_vt >|= fun vt -> (Wire.Fifo_meta, vt, None)
    | 1 -> gen_vt >|= fun vt -> (Wire.Causal_meta, vt, None)
    | 2 -> gen_vt >|= fun vt -> (Wire.Seq_meta, vt, None)
    | 3 ->
      pair gen_vt (pair (int_range 0 10_000) (int_range 0 64))
      >|= fun (vt, (time, node)) ->
      (Wire.Lamport_meta { Lamport.time; node }, vt, None)
    | 4 ->
      gen_pc_stamp >|= fun (vt, rank, seq) ->
      (Wire.Pc_meta { origin_seq = seq }, vt, Some rank)
    | _ ->
      gen_pc_stamp >|= fun (vt, rank, seq) ->
      (Wire.Hybrid_meta { origin_seq = seq }, vt, Some rank))

let rec gen_data depth =
  Gen.(
    gen_meta_and_vt >>= fun (meta, vt, forced_rank) ->
    int_range 0 (1 lsl 30) >>= fun msg_id ->
    (* trace_id ships as a zigzag delta off msg_id; weight the common
       equal case but exercise both signs of the delta *)
    oneof [ return 0; int_range (-64) 64; int_range (-4096) 4096 ]
    >>= fun trace_delta ->
    int_range (-1) 4095 >>= fun origin ->
    (match forced_rank with
     | Some r -> return r
     | None -> int_range (-1) 63)
    >>= fun sender_rank ->
    int_range (-1) 100 >>= fun view_id ->
    small_signed_int >>= fun payload ->
    int_range 0 4096 >>= fun payload_bytes ->
    int_range 0 1_000_000 >>= fun sent_us ->
    (if depth = 0 then return []
     else list_size (int_range 0 2) (gen_data (depth - 1)))
    >|= fun piggyback ->
    { Wire.msg_id; trace_id = msg_id + trace_delta; origin; sender_rank;
      view_id; vt; meta; payload; payload_bytes;
      sent_at = Sim_time.us sent_us; piggyback })

let gen_pid_list = Gen.(list_size (int_range 0 6) (int_range (-1) 4095))

let gen_proto =
  Gen.(
    int_range 0 9 >>= function
    | 0 -> gen_data 1 >|= fun d -> Wire.Data d
    | 1 ->
      triple (int_range (-1) 100) (int_range 0 (1 lsl 30)) small_signed_int
      >|= fun (view_id, msg_id, global_seq) ->
      Wire.Seq_order { view_id; msg_id; global_seq }
    | 2 ->
      pair (pair (int_range (-1) 100) (int_range 0 63))
        (pair gen_vt (int_range 0 100_000))
      >|= fun ((view_id, rank), (vc, lamport)) ->
      Wire.Gossip { view_id; rank; vc; lamport }
    | 3 ->
      pair (pair (int_range 0 100) gen_pid_list)
        (pair
           (list_size (int_range 0 3) (gen_data 1))
           (list_size (int_range 0 3)
              (pair (int_range 0 (1 lsl 30)) small_signed_int)))
      >|= fun ((new_view_id, survivors), (unstable, orders)) ->
      Wire.Flush { new_view_id; survivors; unstable; orders }
    | 4 ->
      pair (int_range 0 100) (int_range (-1) 4095)
      >|= fun (new_view_id, from) -> Wire.Flush_done { new_view_id; from }
    | 5 ->
      pair (int_range 0 100) gen_pid_list >|= fun (view_id, members) ->
      Wire.New_view { view_id; members }
    | 6 -> int_range (-1) 4095 >|= fun joiner -> Wire.Join_request { joiner }
    | 7 ->
      pair (int_range 0 100) (string_size (int_range 0 64))
      >|= fun (view_id, state) -> Wire.State_transfer { view_id; state }
    | 8 ->
      pair (int_range 0 100) (int_range 0 63) >|= fun (view_id, from_rank) ->
      Wire.Pc_ping { view_id; from_rank }
    | _ ->
      triple (int_range 0 100) (int_range 0 63) gen_vt
      >|= fun (view_id, from_rank, delivered) ->
      Wire.Pc_pong { view_id; from_rank; delivered })

let gen_wire =
  Gen.(
    frequency
      [ (1, small_signed_int >|= fun p -> Wire.Direct p);
        (9, pair (int_range 0 64) gen_proto >|= fun (g, p) -> Wire.Proto (g, p)) ])

(* --- structural equality (Vector_clock is abstract) ----------------------- *)

let meta_equal (a : Wire.order_meta) (b : Wire.order_meta) =
  match (a, b) with
  | Wire.Fifo_meta, Wire.Fifo_meta
  | Wire.Causal_meta, Wire.Causal_meta
  | Wire.Seq_meta, Wire.Seq_meta -> true
  | Wire.Lamport_meta x, Wire.Lamport_meta y -> x = y
  | Wire.Pc_meta x, Wire.Pc_meta y -> x.origin_seq = y.origin_seq
  | Wire.Hybrid_meta x, Wire.Hybrid_meta y -> x.origin_seq = y.origin_seq
  | _ -> false

(* What the wire carries of a record's stamp: every component under the
   vector metas; only the group size under PC/hybrid, whose sender
   sequence is the meta's [origin_seq] (compared by [meta_equal] and again
   through [Wire.sender_seq], the accessor every reader uses). *)
let stamp_equal (a : int Wire.data) (b : int Wire.data) =
  match a.Wire.meta with
  | Wire.Pc_meta _ | Wire.Hybrid_meta _ ->
    Vector_clock.size a.Wire.vt = Vector_clock.size b.Wire.vt
    && Wire.sender_seq a = Wire.sender_seq b
  | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _ ->
    Vector_clock.equal a.Wire.vt b.Wire.vt

let rec data_equal (a : int Wire.data) (b : int Wire.data) =
  a.Wire.msg_id = b.Wire.msg_id
  && a.Wire.trace_id = b.Wire.trace_id
  && a.Wire.origin = b.Wire.origin
  && a.Wire.sender_rank = b.Wire.sender_rank
  && a.Wire.view_id = b.Wire.view_id
  && meta_equal a.Wire.meta b.Wire.meta
  && stamp_equal a b
  && a.Wire.payload = b.Wire.payload
  && a.Wire.payload_bytes = b.Wire.payload_bytes
  && Sim_time.compare a.Wire.sent_at b.Wire.sent_at = 0
  && List.length a.Wire.piggyback = List.length b.Wire.piggyback
  && List.for_all2 data_equal a.Wire.piggyback b.Wire.piggyback

let proto_equal (a : int Wire.proto) (b : int Wire.proto) =
  match (a, b) with
  | Wire.Data x, Wire.Data y -> data_equal x y
  | Wire.Gossip x, Wire.Gossip y ->
    x.view_id = y.view_id && x.rank = y.rank && x.lamport = y.lamport
    && Vector_clock.equal x.vc y.vc
  | Wire.Flush x, Wire.Flush y ->
    x.new_view_id = y.new_view_id && x.survivors = y.survivors
    && x.orders = y.orders
    && List.length x.unstable = List.length y.unstable
    && List.for_all2 data_equal x.unstable y.unstable
  | Wire.Pc_pong x, Wire.Pc_pong y ->
    x.view_id = y.view_id && x.from_rank = y.from_rank
    && Vector_clock.equal x.delivered y.delivered
  | (Wire.Seq_order _ | Wire.Flush_done _ | Wire.New_view _
    | Wire.Join_request _ | Wire.State_transfer _ | Wire.Pc_ping _), _ ->
    a = b
  | _ -> false

let wire_equal (a : int Wire.t) (b : int Wire.t) =
  match (a, b) with
  | Wire.Direct x, Wire.Direct y -> x = y
  | Wire.Proto (g, x), Wire.Proto (h, y) -> g = h && proto_equal x y
  | _ -> false

let pp_wire ppf w = Wire.pp Format.pp_print_int ppf w

let show_wire w = Format.asprintf "%a" pp_wire w

(* --- properties ----------------------------------------------------------- *)

let arb_wire = QCheck.make ~print:show_wire gen_wire

let test_roundtrip =
  QCheck.Test.make ~name:"encode |> decode is the identity" ~count:2000
    arb_wire (fun w ->
      let t = codec () in
      let decoded = Wire_codec.decode t (Wire_codec.encode t w) in
      if not (wire_equal w decoded) then
        QCheck.Test.fail_reportf "round-trip mismatch:@.%a@.vs@.%a" pp_wire w
          pp_wire decoded;
      true)

let test_roundtrip_shared_codec =
  (* One codec instance across many frames: the timestamp memo and scratch
     buffers must not leak state between messages. *)
  QCheck.Test.make ~name:"shared codec instance round-trips" ~count:200
    (QCheck.make Gen.(list_size (int_range 2 10) gen_wire))
    (fun ws ->
      let t = codec () in
      List.for_all
        (fun w -> wire_equal w (Wire_codec.decode t (Wire_codec.encode t w)))
        ws)

let is_corrupt f =
  match f () with
  | exception Wire_codec.Corrupt _ -> true
  | _ -> false

let test_truncation_rejected =
  (* Strictness: every strict prefix of a valid frame must raise Corrupt —
     the decoder never fabricates a value from a short buffer. *)
  QCheck.Test.make ~name:"every truncation raises Corrupt" ~count:300
    arb_wire (fun w ->
      let t = codec () in
      let frame = Wire_codec.encode t w in
      let ok = ref true in
      for len = 0 to String.length frame - 1 do
        if not (is_corrupt (fun () -> Wire_codec.decode t (String.sub frame 0 len)))
        then begin
          ok := false;
          QCheck.Test.fail_reportf "prefix of length %d of %s decoded" len
            (show_wire w)
        end
      done;
      !ok)

let test_trailing_garbage_rejected =
  QCheck.Test.make ~name:"trailing bytes raise Corrupt" ~count:300
    (QCheck.pair arb_wire (QCheck.make Gen.(string_size (int_range 1 8))))
    (fun (w, junk) ->
      let t = codec () in
      is_corrupt (fun () -> Wire_codec.decode t (Wire_codec.encode t w ^ junk)))

let test_garbage_never_escapes =
  (* Arbitrary byte soup: the decoder either raises Corrupt or happens to
     parse a frame — it must never escape with any other exception. *)
  QCheck.Test.make ~name:"garbage bytes: Corrupt or a value, nothing else"
    ~count:2000
    (QCheck.make ~print:String.escaped Gen.(string_size (int_range 0 64)))
    (fun s ->
      let t = codec () in
      match Wire_codec.decode t s with
      | _ -> true
      | exception Wire_codec.Corrupt _ -> true)

let test_unknown_tags_rejected () =
  (* Surgical corruption: an unknown envelope, proto, or meta tag must be
     rejected by name, not skipped. The envelope tag sits right after the
     frame length prefix; a Data proto's meta tag is located by encoding a
     distinctive byte pattern. *)
  let t = codec () in
  let w = Wire.Proto (3, Wire.Join_request { joiner = 7 }) in
  let frame = Bytes.of_string (Wire_codec.encode t w) in
  (* byte 0 is the length prefix (short frame), byte 1 the envelope tag *)
  Bytes.set frame 1 '\255';
  Alcotest.(check bool)
    "unknown envelope tag rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t (Bytes.to_string frame)));
  let frame = Bytes.of_string (Wire_codec.encode t w) in
  (* byte 2 is the group id varint (3 < 128: one byte), byte 3 the proto tag *)
  Bytes.set frame 3 '\254';
  Alcotest.(check bool)
    "unknown proto tag rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t (Bytes.to_string frame)))

let test_overlong_varint_rejected () =
  let t = codec () in
  (* eleven continuation bytes: a varint that never terminates within the
     ten-byte bound must be rejected before it wraps *)
  let s = String.make 11 '\x80' in
  Alcotest.(check bool)
    "over-long varint rejected" true
    (is_corrupt (fun () -> Wire_codec.decode t s))

let test_varint_primitives =
  QCheck.Test.make ~name:"varint round-trip (any int)" ~count:2000
    QCheck.(
      make
        Gen.(
          oneof
            [ small_signed_int; int;
              int_range min_int max_int;
              map (fun n -> 1 lsl n) (int_range 0 61) ]))
    (fun n ->
      let buf = Buffer.create 16 in
      Wire_codec.write_varint buf n;
      let s = Buffer.contents buf in
      String.length s = Wire_codec.varint_size n
      && Wire_codec.read_varint (Bytes.of_string s) (ref 0) = n)

let test_uvarint_primitives =
  QCheck.Test.make ~name:"uvarint round-trip (non-negative)" ~count:2000
    QCheck.(make Gen.(oneof [ small_nat; int_range 0 max_int ]))
    (fun n ->
      let buf = Buffer.create 16 in
      Wire_codec.write_uvarint buf n;
      let s = Buffer.contents buf in
      String.length s = Wire_codec.uvarint_size n
      && Wire_codec.read_uvarint (Bytes.of_string s) (ref 0) = n)

let test_pc_constant_metadata () =
  (* The property the codec exists for: an encoded PC data record's size is
     independent of group size (the timestamp ships as a bare count), while
     a BSS causal record grows linearly. *)
  let t = codec () in
  let mk n meta vt =
    { Wire.msg_id = 1; trace_id = 1; origin = 0; sender_rank = 0;
      view_id = 0; vt; meta; payload = 42; payload_bytes = 8;
      sent_at = Sim_time.us 1_000; piggyback = [] }
    |> fun d -> ignore n; Wire_codec.data_bytes t d
  in
  let pc n =
    let vt = Vector_clock.create n in
    Vector_clock.set vt 0 5;
    mk n (Wire.Pc_meta { origin_seq = 5 }) vt
  in
  let bss n =
    let vt = Vector_clock.create n in
    Vector_clock.set vt 0 5;
    mk n Wire.Causal_meta vt
  in
  Alcotest.(check int) "pc cost flat 4 -> 64" (pc 4) (pc 64);
  Alcotest.(check bool) "bss cost grows 4 -> 64" true (bss 64 > bss 4)

(* --- allocation pins --------------------------------------------------------- *)

(* Words allocated on the minor heap by [f ()]: exact and deterministic in
   native code. The two [Gc.minor_words] calls box one float each, a
   constant that cancels out of every comparison below. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  let after = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  int_of_float (after -. before)

let pc_frame ~n =
  Wire.Proto
    ( 1,
      Wire.Data
        { Wire.msg_id = 77; trace_id = 77; origin = 3; sender_rank = 3;
          view_id = 2;
          vt =
            (let vt = Vector_clock.create n in
             Vector_clock.set vt 3 41;
             vt);
          meta = Wire.Pc_meta { origin_seq = 41 }; payload = 42;
          payload_bytes = 256; sent_at = Sim_time.us 1_000; piggyback = [] } )

let test_pc_decode_alloc_flat () =
  (* A received PC copy costs the same words at every group size: no
     varint closure and no n-component stamp per decoded record. The first
     decode at a size sets up the codec's shared zero vector; the second is
     the steady state a receiver sees. *)
  let words n =
    let t = codec () in
    let frame = Wire_codec.encode t (pc_frame ~n) in
    ignore (Wire_codec.decode t frame);
    minor_words_of (fun () -> Wire_codec.decode t frame)
  in
  let w4 = words 4 in
  Alcotest.(check int) "decode words n=256 = n=4" w4 (words 256);
  Alcotest.(check int) "decode words n=4096 = n=4" w4 (words 4096);
  (* and the decoded record still answers the wire-carried fields *)
  let t = codec () in
  match Wire_codec.decode t (Wire_codec.encode t (pc_frame ~n:4096)) with
  | Wire.Proto (_, Wire.Data d) ->
    Alcotest.(check int) "group size" 4096 (Vector_clock.size d.Wire.vt);
    Alcotest.(check int) "sender seq" 41 (Wire.sender_seq d)
  | _ -> Alcotest.fail "PC frame did not decode to a data record"

let test_gossip_alloc_linear () =
  (* Encoding allocates the frame string (about one byte per component);
     decoding allocates the received vector (one word per component). Each
     side is pinned at its payload plus a constant: any per-component
     overhead, such as a closure per varint, breaks the bound at n=4096. *)
  let slack = 32 in
  List.iter
    (fun n ->
      let vc = Vector_clock.create n in
      for i = 0 to n - 1 do
        Vector_clock.set vc i (i * 7)
      done;
      let w =
        Wire.Proto (1, Wire.Gossip { view_id = 2; rank = 0; vc; lamport = 9 })
      in
      let t = codec () in
      let frame = Wire_codec.encode t w in
      ignore (Wire_codec.decode t frame);
      let enc = minor_words_of (fun () -> Wire_codec.encode t w) in
      let dec = minor_words_of (fun () -> Wire_codec.decode t frame) in
      let frame_words = (String.length frame / 8) + 1 in
      if enc > frame_words + slack then
        Alcotest.failf "encode of a %d-component gossip allocated %d words" n
          enc;
      if dec > n + slack then
        Alcotest.failf "decode of a %d-component gossip allocated %d words" n
          dec;
      if enc + dec > n + frame_words + (2 * slack) then
        Alcotest.failf "gossip round trip at n=%d allocated %d words" n
          (enc + dec))
    [ 4; 256; 4096 ]

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "wire_codec"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ test_roundtrip; test_roundtrip_shared_codec ] );
      ( "rejection",
        List.map QCheck_alcotest.to_alcotest
          [ test_truncation_rejected; test_trailing_garbage_rejected;
            test_garbage_never_escapes ]
        @ [
            Alcotest.test_case "unknown tags" `Quick test_unknown_tags_rejected;
            Alcotest.test_case "over-long varint" `Quick
              test_overlong_varint_rejected;
          ] );
      ( "varints",
        List.map QCheck_alcotest.to_alcotest
          [ test_varint_primitives; test_uvarint_primitives ] );
      ( "metadata",
        [ Alcotest.test_case "pc constant wire cost" `Quick
            test_pc_constant_metadata ] );
      ( "alloc",
        [ Alcotest.test_case "pc decode flat in group size" `Quick
            test_pc_decode_alloc_flat;
          Alcotest.test_case "gossip linear in components" `Quick
            test_gossip_alloc_linear ] );
    ]
