(* Differential property tests: the delivery queue must be observationally
   identical to a test-local model of its contract — an arrival-ordered
   array whose take returns the first entry whose delivery condition holds.
   Same take results, same lengths after every operation, same drain order,
   for arbitrary interleavings of add / take_deliverable / drain / external
   clock advances, in every delivery-condition mode, including duplicate
   sequence numbers and the chaos fault-injection flag the mutation tests
   rely on. Any faster queue must keep this property. A cross-mode property
   pins [Origin_gap] on decoded PC records (sequence in [origin_seq],
   all-zero [vt]) to [Fifo_gap] on the sparse stamps the PC stack used to
   gate on. *)

module DQ = Repro_catocs.Delivery_queue
module Wire = Repro_catocs.Wire

type op =
  | Add of int * int list  (* sender rank, vt components *)
  | Take
  | Bump of int  (* advance one local clock component out of band *)
  | Drain
  | Chaos of bool

let mk_data ~msg_id ~rank ~vt ~meta =
  { DQ.data =
      { Wire.msg_id; trace_id = msg_id; origin = rank; sender_rank = rank;
        view_id = 0; vt; meta; payload = msg_id; payload_bytes = 8;
        sent_at = Sim_time.zero; piggyback = [] };
    arrived_at = Sim_time.zero }

(* A generated stamp as a BSS record: every component kept. *)
let mk_vector ~msg_id ~rank ~vt =
  mk_data ~msg_id ~rank ~vt:(Vector_clock.of_list vt) ~meta:Wire.Causal_meta

(* The same stamp as a decoded PC record: the sender's component travels as
   [origin_seq] and the vt is all zero, as the codec hands it out. *)
let mk_decoded_pc ~msg_id ~rank ~vt =
  mk_data ~msg_id ~rank
    ~vt:(Vector_clock.create (List.length vt))
    ~meta:(Wire.Pc_meta { origin_seq = List.nth vt rank })

(* The same stamp as the PC origin's own sparse record: [origin_seq] and
   the sender's component agree, every other component is zero. *)
let mk_sparse_pc ~msg_id ~rank ~vt =
  let seq = List.nth vt rank in
  let sparse = Vector_clock.create (List.length vt) in
  Vector_clock.set sparse rank seq;
  mk_data ~msg_id ~rank ~vt:sparse ~meta:(Wire.Pc_meta { origin_seq = seq })

(* What the stack does to its clock on delivery, per record family: a full
   merge for vector stamps, a sender-component advance for PC records. *)
let merge_vector local (d : int Wire.data) =
  Vector_clock.merge_into local d.Wire.vt

let advance_sender local (d : int Wire.data) =
  let r = d.Wire.sender_rank in
  Vector_clock.set local r (max (Vector_clock.get local r) (Wire.sender_seq d))

(* The model, the contract any queue must keep: arrival order in an array,
   and a take removes the first entry whose condition holds, spelled out
   from the [DQ.mode] docs rather than shared with the queue. *)
module Model = struct
  type t = { mode : DQ.mode; mutable items : int DQ.pending array }

  let holds mode ~local ({ DQ.data = d; _ } : int DQ.pending) =
    let r = d.Wire.sender_rank and vt = d.Wire.vt in
    let next = Vector_clock.get local r + 1 in
    match mode with
    | DQ.Origin_gap -> Wire.sender_seq d = next
    | DQ.Fifo_gap -> Vector_clock.get vt r = next
    | DQ.Causal_full when !DQ.chaos_disable_causal_check ->
      Vector_clock.get vt r = next
    | DQ.Causal_full -> Vector_clock.deliverable ~sender:r ~msg:vt ~local

  let take t ~local =
    Array.find_index (holds t.mode ~local) t.items
    |> Option.map (fun i ->
           let n = Array.length t.items and p = t.items.(i) in
           t.items <- Array.append (Array.sub t.items 0 i)
                        (Array.sub t.items (i + 1) (n - i - 1));
           p)
end

(* One side of a lockstep comparison: the queue under test or the model. *)
type queue = Real of int DQ.t | Model of Model.t

let q_add q p =
  match q with
  | Real q -> DQ.add q p
  | Model m -> m.Model.items <- Array.append m.Model.items [| p |]

let q_length = function
  | Real q -> DQ.length q
  | Model m -> Array.length m.Model.items

let q_take q ~local =
  match q with
  | Real q -> DQ.take_deliverable q ~local
  | Model m -> Model.take m ~local

let q_to_list = function
  | Real q -> DQ.to_list q
  | Model m -> Array.to_list m.Model.items

let q_drain = function
  | Real q -> DQ.drain q
  | Model m ->
    let all = Array.to_list m.Model.items in
    m.Model.items <- [||];
    all

type side = {
  make : DQ.mode -> queue;
  mode : DQ.mode;
  stamp : msg_id:int -> rank:int -> vt:int list -> int DQ.pending;
}

let real mode = Real (DQ.create mode)
let model mode = Model { Model.mode; items = [||] }

let ids ps = List.map (fun (p : int DQ.pending) -> p.DQ.data.Wire.msg_id) ps

let show_ids l = String.concat "," (List.map string_of_int l)

let show_take = function
  | None -> "None"
  | Some (p : int DQ.pending) ->
    Printf.sprintf "Some #%d" p.DQ.data.Wire.msg_id

(* Execute one op sequence against two queues in lockstep, failing on the
   first observable divergence. [advance] mirrors the stack's clock update
   after a delivery. *)
let run_pair ~advance a b n ops =
  let qa = a.make a.mode in
  let qb = b.make b.mode in
  let local = Vector_clock.create n in
  let next_id = ref 0 in
  let check_lengths ctx =
    if q_length qa <> q_length qb then
      QCheck.Test.fail_reportf "%s: length a=%d b=%d" ctx (q_length qa)
        (q_length qb)
  in
  Fun.protect
    ~finally:(fun () -> DQ.chaos_disable_causal_check := false)
  @@ fun () ->
  List.iter
    (fun op ->
      match op with
      | Add (rank, comps) ->
        incr next_id;
        (* keep the sender's own component >= 1 so deliverable messages
           actually occur; other components stay arbitrary *)
        let vt = List.mapi (fun i v -> if i = rank then max 1 v else v) comps in
        q_add qa (a.stamp ~msg_id:!next_id ~rank ~vt);
        q_add qb (b.stamp ~msg_id:!next_id ~rank ~vt);
        check_lengths "add"
      | Take ->
        (match (q_take qa ~local, q_take qb ~local) with
        | None, None -> ()
        | Some x, Some y
          when x.DQ.data.Wire.msg_id = y.DQ.data.Wire.msg_id ->
          (* the stack advances its clock before the next take *)
          advance local x.DQ.data
        | x, y ->
          QCheck.Test.fail_reportf "take mismatch: a=%s b=%s" (show_take x)
            (show_take y));
        check_lengths "take"
      | Bump c -> Vector_clock.set local c (Vector_clock.get local c + 1)
      | Drain ->
        let da = ids (q_drain qa) and db = ids (q_drain qb) in
        if da <> db then
          QCheck.Test.fail_reportf "drain mismatch: a=[%s] b=[%s]"
            (show_ids da) (show_ids db);
        check_lengths "drain"
      | Chaos flag -> DQ.chaos_disable_causal_check := flag)
    ops;
  let la = ids (q_to_list qa) and lb = ids (q_to_list qb) in
  if la <> lb then
    QCheck.Test.fail_reportf "to_list mismatch: a=[%s] b=[%s]" (show_ids la)
      (show_ids lb);
  let da = ids (q_drain qa) and db = ids (q_drain qb) in
  if da <> db then
    QCheck.Test.fail_reportf "final drain mismatch: a=[%s] b=[%s]"
      (show_ids da) (show_ids db);
  true

(* queue vs model in one mode, on that mode's record family *)
let run_equiv mode n ops =
  let stamp, advance =
    match mode with
    | DQ.Origin_gap -> (mk_decoded_pc, advance_sender)
    | DQ.Fifo_gap | DQ.Causal_full -> (mk_vector, merge_vector)
  in
  run_pair ~advance
    { make = real; mode; stamp }
    { make = model; mode; stamp }
    n ops

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 20 200)
      (frequency
         [ (5,
            map2
              (fun rank comps -> Add (rank, comps))
              (int_range 0 (n - 1))
              (list_size (return n) (int_range 0 5)));
           (4, return Take);
           (2, map (fun c -> Bump c) (int_range 0 (n - 1)));
           (1, return Drain);
           (1, map (fun b -> Chaos b) bool) ]))

let gen_case =
  QCheck.Gen.(int_range 1 5 >>= fun n -> map (fun ops -> (n, ops)) (gen_ops n))

let equiv_test mode mode_name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "indexed = reference on random interleavings (%s)"
         mode_name)
    ~count:300 (QCheck.make gen_case)
    (fun (n, ops) -> run_equiv mode n ops)

(* The PC stack's switch from [Fifo_gap] on sparse stamps to [Origin_gap]
   on [origin_seq] must not change one delivery: two queues, same
   interleavings, records built from the same stamps. *)
let test_origin_gap_matches_fifo_gap =
  QCheck.Test.make
    ~name:"origin-gap on decoded PC records = fifo-gap on sparse stamps"
    ~count:300 (QCheck.make gen_case)
    (fun (n, ops) ->
      run_pair ~advance:advance_sender
        { make = real; mode = DQ.Origin_gap; stamp = mk_decoded_pc }
        { make = real; mode = DQ.Fifo_gap; stamp = mk_sparse_pc }
        n ops)

(* Directed regression: a per-sender gap that fills late, duplicate sequence
   numbers, and an out-of-band clock advance — the specific wake paths any
   queue implementation must get right. *)
let test_directed_gap_fill () =
  let ok =
    run_equiv DQ.Causal_full 3
      [ Add (0, [ 2; 0; 0 ]);  (* gap: needs seq 1 first *)
        Take;
        Add (0, [ 1; 0; 0 ]);  (* fills the gap *)
        Add (0, [ 1; 0; 0 ]);  (* duplicate of the fill *)
        Take; Take; Take;
        Add (1, [ 3; 1; 0 ]);  (* blocked on component 0 *)
        Take;
        Bump 0;  (* external advance unblocks sender 1 *)
        Take; Take; Drain ]
  in
  Alcotest.(check bool) "directed sequence equivalent" true ok

let () =
  Alcotest.run "queue_equiv"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ equiv_test DQ.Fifo_gap "fifo-gap";
            equiv_test DQ.Causal_full "causal-full";
            equiv_test DQ.Origin_gap "origin-gap";
            test_origin_gap_matches_fifo_gap ] );
      ( "directed",
        [ Alcotest.test_case "gap fill, duplicate, external bump" `Quick
            test_directed_gap_fill ] );
    ]
