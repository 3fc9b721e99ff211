exception Corrupt of string

(* ------------------------------------------------------------------------- *)
(* Varint primitives: LEB128, little-endian base-128 with a continuation
   bit. Scalars that may be negative (pids can be -1 in replay contexts,
   placeholder views use id -1) go through zigzag; counts, lengths and
   vector-clock components are known non-negative and skip it. *)

(* Top-level recursion rather than local [go] helpers: a local function
   that captures the buffer or position is a heap-allocated closure on every
   call (no flambda), and a 256-component gossip vector is 256 calls. *)
let rec write_uvarint buf u =
  let rest = u lsr 7 in
  if rest = 0 then Buffer.add_char buf (Char.chr u)
  else begin
    Buffer.add_char buf (Char.chr ((u land 0x7f) lor 0x80));
    write_uvarint buf rest
  end

let rec read_uvarint_from b pos ~shift ~acc ~count =
  if count >= 10 then raise (Corrupt "varint longer than 10 bytes");
  if !pos >= Bytes.length b then raise (Corrupt "truncated varint");
  let byte = Char.code (Bytes.get b !pos) in
  incr pos;
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 <> 0 then
    read_uvarint_from b pos ~shift:(shift + 7) ~acc ~count:(count + 1)
  else acc

let read_uvarint b pos = read_uvarint_from b pos ~shift:0 ~acc:0 ~count:0

let write_varint buf n = write_uvarint buf ((n lsl 1) lxor (n asr 62))

let read_varint b pos =
  let u = read_uvarint b pos in
  (u lsr 1) lxor (- (u land 1))

(* mirror the writer's logical shift: a zigzagged int with bit 62 set wraps
   negative, and a signed [u < 0x80] test would undercount it as one byte *)
let rec uvarint_size_from u acc =
  if u lsr 7 = 0 then acc else uvarint_size_from (u lsr 7) (acc + 1)

let uvarint_size u = uvarint_size_from u 1

let varint_size n = uvarint_size ((n lsl 1) lxor (n asr 62))

(* ------------------------------------------------------------------------- *)

type 'a payload_codec = {
  encode_payload : Buffer.t -> 'a -> unit;
  decode_payload : bytes -> int ref -> 'a;
}

let int_payload =
  { encode_payload = write_varint; decode_payload = read_varint }

let string_payload =
  { encode_payload =
      (fun buf s ->
        write_uvarint buf (String.length s);
        Buffer.add_string buf s);
    decode_payload =
      (fun b pos ->
        let len = read_uvarint b pos in
        if len < 0 || !pos + len > Bytes.length b then
          raise (Corrupt "truncated string payload");
        let s = Bytes.sub_string b !pos len in
        pos := !pos + len;
        s) }

type 'a t = {
  payload : 'a payload_codec;
  mutable memo_vt : Vector_clock.t;
      (* one-slot timestamp-snapshot cache keyed on physical equality: a
         multicast allocates its [vt] once ([Vector_clock.copy_tick]) and
         hands the same immutable vector to every recipient's encode, so
         the fan-out serializes the timestamp once instead of once per
         link. Only [Data] timestamps go through the memo — gossip carries
         the sender's {e live} clock, which mutates under the same physical
         identity between rounds. *)
  mutable memo_blob : string;
  mutable zero_vt : Vector_clock.t;
      (* the [vt] every decoded PC/hybrid record shares: all-zero, of the
         last decoded group size. Readers take the sender sequence from
         [origin_seq] ([Wire.sender_seq]) and only the size from here, so
         one vector per group size replaces an n-component allocation per
         received copy — copies the stability buffer retains until they
         are stable. *)
  body : Buffer.t;  (* scratch: frame body under construction *)
  frame : Buffer.t;  (* scratch: length-prefixed result *)
}

let create payload =
  (* the sentinel is a private allocation no caller-held vector can be
     physically equal to, so the memo starts cold without an option *)
  { payload; memo_vt = Vector_clock.create 1; memo_blob = "";
    zero_vt = Vector_clock.create 1; body = Buffer.create 256;
    frame = Buffer.create 256 }

(* ------------------------------------------------------------------------- *)
(* Vector timestamps: component count, then each component. *)

let write_vt_fresh buf vt =
  let n = Vector_clock.size vt in
  write_uvarint buf n;
  for i = 0 to n - 1 do
    write_uvarint buf (Vector_clock.get vt i)
  done

let write_vt_memo t buf vt =
  if t.memo_vt == vt then Buffer.add_string buf t.memo_blob
  else begin
    let scratch = Buffer.create 32 in
    write_vt_fresh scratch vt;
    let blob = Buffer.contents scratch in
    t.memo_vt <- vt;
    t.memo_blob <- blob;
    Buffer.add_string buf blob
  end

let read_vt b pos =
  let n = read_uvarint b pos in
  if n > 1 lsl 24 then raise (Corrupt "implausible vector size");
  let vt = Vector_clock.create n in
  for i = 0 to n - 1 do
    Vector_clock.set vt i (read_uvarint b pos)
  done;
  vt

(* ------------------------------------------------------------------------- *)
(* Data records.

   Field order: msg_id, trace_id (delta), origin, sender_rank, view_id,
   meta, timestamp, payload_bytes, sent_at, payload, piggyback. The PC/hybrid constant-
   metadata encodings ship only the group size in the timestamp slot: the
   record's sender sequence is the meta's [origin_seq], and no reader looks
   at a PC stamp's components ([Wire.sender_seq]). The decoder therefore
   builds no vector at all — it hands out the codec's shared all-zero
   vector of the shipped size. This is what makes the encoded wire cost of
   a PC-broadcast message, and the receiver's per-copy work and retained
   memory, independent of group size (PAPERS: Nédelec 2018). Only the
   wire-carried fields round-trip; the sender's sparse in-memory stamp does
   not. *)

let meta_tag = function
  | Wire.Fifo_meta -> 0
  | Wire.Causal_meta -> 1
  | Wire.Seq_meta -> 2
  | Wire.Lamport_meta _ -> 3
  | Wire.Pc_meta _ -> 4
  | Wire.Hybrid_meta _ -> 5

let rec write_data t buf (d : _ Wire.data) =
  write_varint buf d.Wire.msg_id;
  (* trace id as a zigzag delta off msg_id: the common stamp
     [trace_id = msg_id] costs one byte *)
  write_varint buf (d.Wire.trace_id - d.Wire.msg_id);
  write_varint buf d.Wire.origin;
  write_varint buf d.Wire.sender_rank;
  write_varint buf d.Wire.view_id;
  Buffer.add_char buf (Char.chr (meta_tag d.Wire.meta));
  (match d.Wire.meta with
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta -> ()
   | Wire.Lamport_meta { Lamport.time; node } ->
     write_varint buf time;
     write_varint buf node
   | Wire.Pc_meta { origin_seq } | Wire.Hybrid_meta { origin_seq } ->
     write_uvarint buf origin_seq);
  (match d.Wire.meta with
   | Wire.Pc_meta _ | Wire.Hybrid_meta _ ->
     write_uvarint buf (Vector_clock.size d.Wire.vt)
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _
     ->
     write_vt_memo t buf d.Wire.vt);
  write_uvarint buf d.Wire.payload_bytes;
  write_varint buf (Sim_time.to_us d.Wire.sent_at);
  t.payload.encode_payload buf d.Wire.payload;
  (* the empty history — every record outside [Config.piggyback_history] —
     skips building the partial application *)
  match d.Wire.piggyback with
  | [] -> write_uvarint buf 0
  | piggyback ->
    write_uvarint buf (List.length piggyback);
    List.iter (write_data t buf) piggyback

let rec read_data t b pos : _ Wire.data =
  let msg_id = read_varint b pos in
  let trace_id = msg_id + read_varint b pos in
  let origin = read_varint b pos in
  let sender_rank = read_varint b pos in
  let view_id = read_varint b pos in
  if !pos >= Bytes.length b then raise (Corrupt "truncated meta tag");
  let tag = Char.code (Bytes.get b !pos) in
  incr pos;
  let meta =
    match tag with
    | 0 -> Wire.Fifo_meta
    | 1 -> Wire.Causal_meta
    | 2 -> Wire.Seq_meta
    | 3 ->
      let time = read_varint b pos in
      let node = read_varint b pos in
      Wire.Lamport_meta { Lamport.time; node }
    | 4 -> Wire.Pc_meta { origin_seq = read_uvarint b pos }
    | 5 -> Wire.Hybrid_meta { origin_seq = read_uvarint b pos }
    | n -> raise (Corrupt (Printf.sprintf "unknown meta tag %d" n))
  in
  let vt =
    match meta with
    | Wire.Pc_meta _ | Wire.Hybrid_meta _ ->
      let n = read_uvarint b pos in
      if n > 1 lsl 24 then raise (Corrupt "implausible vector size");
      if sender_rank < 0 || sender_rank >= n then
        raise (Corrupt "sender rank outside the group size");
      if Vector_clock.size t.zero_vt <> n then
        t.zero_vt <- Vector_clock.create n;
      t.zero_vt
    | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _
      ->
      read_vt b pos
  in
  let payload_bytes = read_uvarint b pos in
  let sent_at = Sim_time.us (read_varint b pos) in
  let payload = t.payload.decode_payload b pos in
  let npiggy = read_uvarint b pos in
  if npiggy > 1 lsl 20 then raise (Corrupt "implausible piggyback count");
  let piggyback =
    if npiggy = 0 then [] else List.init npiggy (fun _ -> read_data t b pos)
  in
  { Wire.msg_id; trace_id; origin; sender_rank; view_id; vt; meta; payload;
    payload_bytes; sent_at; piggyback }

(* ------------------------------------------------------------------------- *)
(* Protocol messages and the top-level frame. *)

let write_pid_list buf pids =
  write_uvarint buf (List.length pids);
  List.iter (write_varint buf) pids

let read_pid_list b pos =
  let n = read_uvarint b pos in
  if n > 1 lsl 24 then raise (Corrupt "implausible member count");
  List.init n (fun _ -> read_varint b pos)

let write_proto t buf (p : _ Wire.proto) =
  match p with
  | Wire.Data d ->
    Buffer.add_char buf '\000';
    write_data t buf d
  | Wire.Seq_order { view_id; msg_id; global_seq } ->
    Buffer.add_char buf '\001';
    write_varint buf view_id;
    write_varint buf msg_id;
    write_varint buf global_seq
  | Wire.Gossip { view_id; rank; vc; lamport } ->
    Buffer.add_char buf '\002';
    write_varint buf view_id;
    write_varint buf rank;
    write_vt_fresh buf vc;
    write_varint buf lamport
  | Wire.Flush { new_view_id; survivors; unstable; orders } ->
    Buffer.add_char buf '\003';
    write_varint buf new_view_id;
    write_pid_list buf survivors;
    write_uvarint buf (List.length unstable);
    List.iter (write_data t buf) unstable;
    write_uvarint buf (List.length orders);
    List.iter
      (fun (msg_id, global_seq) ->
        write_varint buf msg_id;
        write_varint buf global_seq)
      orders
  | Wire.Flush_done { new_view_id; from } ->
    Buffer.add_char buf '\004';
    write_varint buf new_view_id;
    write_varint buf from
  | Wire.New_view { view_id; members } ->
    Buffer.add_char buf '\005';
    write_varint buf view_id;
    write_pid_list buf members
  | Wire.Join_request { joiner } ->
    Buffer.add_char buf '\006';
    write_varint buf joiner
  | Wire.State_transfer { view_id; state } ->
    Buffer.add_char buf '\007';
    write_varint buf view_id;
    write_uvarint buf (String.length state);
    Buffer.add_string buf state
  | Wire.Pc_ping { view_id; from_rank } ->
    Buffer.add_char buf '\008';
    write_varint buf view_id;
    write_varint buf from_rank
  | Wire.Pc_pong { view_id; from_rank; delivered } ->
    Buffer.add_char buf '\009';
    write_varint buf view_id;
    write_varint buf from_rank;
    write_vt_fresh buf delivered

let read_byte b pos =
  if !pos >= Bytes.length b then raise (Corrupt "truncated tag");
  let c = Char.code (Bytes.get b !pos) in
  incr pos;
  c

let read_proto t b pos : _ Wire.proto =
  match read_byte b pos with
  | 0 -> Wire.Data (read_data t b pos)
  | 1 ->
    let view_id = read_varint b pos in
    let msg_id = read_varint b pos in
    let global_seq = read_varint b pos in
    Wire.Seq_order { view_id; msg_id; global_seq }
  | 2 ->
    let view_id = read_varint b pos in
    let rank = read_varint b pos in
    let vc = read_vt b pos in
    let lamport = read_varint b pos in
    Wire.Gossip { view_id; rank; vc; lamport }
  | 3 ->
    let new_view_id = read_varint b pos in
    let survivors = read_pid_list b pos in
    let nunstable = read_uvarint b pos in
    if nunstable > 1 lsl 24 then raise (Corrupt "implausible flush size");
    let unstable = List.init nunstable (fun _ -> read_data t b pos) in
    let norders = read_uvarint b pos in
    if norders > 1 lsl 24 then raise (Corrupt "implausible order count");
    let orders =
      List.init norders (fun _ ->
          let msg_id = read_varint b pos in
          let global_seq = read_varint b pos in
          (msg_id, global_seq))
    in
    Wire.Flush { new_view_id; survivors; unstable; orders }
  | 4 ->
    let new_view_id = read_varint b pos in
    let from = read_varint b pos in
    Wire.Flush_done { new_view_id; from }
  | 5 ->
    let view_id = read_varint b pos in
    let members = read_pid_list b pos in
    Wire.New_view { view_id; members }
  | 6 -> Wire.Join_request { joiner = read_varint b pos }
  | 7 ->
    let view_id = read_varint b pos in
    let len = read_uvarint b pos in
    if len < 0 || !pos + len > Bytes.length b then
      raise (Corrupt "truncated state transfer");
    let state = Bytes.sub_string b !pos len in
    pos := !pos + len;
    Wire.State_transfer { view_id; state }
  | 8 ->
    let view_id = read_varint b pos in
    let from_rank = read_varint b pos in
    Wire.Pc_ping { view_id; from_rank }
  | 9 ->
    let view_id = read_varint b pos in
    let from_rank = read_varint b pos in
    let delivered = read_vt b pos in
    Wire.Pc_pong { view_id; from_rank; delivered }
  | n -> raise (Corrupt (Printf.sprintf "unknown proto tag %d" n))

let write_wire t buf (w : _ Wire.t) =
  match w with
  | Wire.Direct payload ->
    Buffer.add_char buf '\000';
    t.payload.encode_payload buf payload
  | Wire.Proto (group, proto) ->
    Buffer.add_char buf '\001';
    write_varint buf group;
    write_proto t buf proto

let read_wire t b pos : _ Wire.t =
  match read_byte b pos with
  | 0 -> Wire.Direct (t.payload.decode_payload b pos)
  | 1 ->
    let group = read_varint b pos in
    Wire.Proto (group, read_proto t b pos)
  | n -> raise (Corrupt (Printf.sprintf "unknown wire tag %d" n))

let encode t w =
  Buffer.clear t.body;
  write_wire t t.body w;
  Buffer.clear t.frame;
  write_uvarint t.frame (Buffer.length t.body);
  Buffer.add_buffer t.frame t.body;
  Buffer.contents t.frame

let decode t s =
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  let len = read_uvarint b pos in
  if len < 0 || !pos + len > Bytes.length b then
    raise (Corrupt "truncated frame body");
  let limit = !pos + len in
  let w = read_wire t b pos in
  if not (Int.equal !pos limit) then
    raise (Corrupt "trailing bytes inside frame");
  if limit <> Bytes.length b then raise (Corrupt "trailing bytes after frame");
  w

let encoded_bytes t w = String.length (encode t w)

(* Real encoded footprint of one buffered data record — what the unstable-
   bytes gauges charge under [Config.Encoded] (the per-packet frame and
   group-id envelope are link costs, not buffer contents). *)
let data_bytes t (d : _ Wire.data) =
  Buffer.clear t.body;
  write_data t t.body d;
  Buffer.length t.body
