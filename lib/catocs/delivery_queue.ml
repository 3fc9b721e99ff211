type mode = Fifo_gap | Causal_full | Origin_gap

type 'a pending = { data : 'a Wire.data; arrived_at : Sim_time.t }

let chaos_disable_causal_check = ref false

(* the per-sender sequence a mode gates on: the stamp's own component, or
   the PC/hybrid [origin_seq] under [Origin_gap] *)
let seq_of mode (data : 'a Wire.data) =
  match mode with
  | Origin_gap -> Wire.sender_seq data
  | Fifo_gap | Causal_full ->
    Vector_clock.get data.Wire.vt data.Wire.sender_rank

let condition_holds mode ~local (pending : 'a pending) =
  let data = pending.data in
  let sender = data.Wire.sender_rank in
  let msg = data.Wire.vt in
  match mode with
  | Fifo_gap | Origin_gap ->
    seq_of mode data = Vector_clock.get local sender + 1
  | Causal_full ->
    if !chaos_disable_causal_check then
      Vector_clock.get msg sender = Vector_clock.get local sender + 1
    else Vector_clock.deliverable ~sender ~msg ~local

(* One pending list in arrival order, rescanned on every take. The queue
   holds only the messages the delivery condition blocks, which keeps it
   short enough that the scan beats an index over it. *)
type 'a t = {
  mode : mode;
  obs : (Repro_obs.Log.t * int) option;  (* telemetry log, owner pid *)
  mutable queue : 'a pending list;
}

let create ?obs mode = { mode; obs; queue = [] }

let add t pending =
  (match t.obs with
   | Some (log, pid) ->
     Repro_obs.Log.span_queued log ~at:pending.arrived_at
       ~uid:pending.data.Wire.msg_id ~pid
   | None -> ());
  t.queue <- t.queue @ [ pending ]

let length t = List.length t.queue

let take_deliverable t ~local =
  let rec split_first acc = function
    | [] -> None
    | pending :: rest ->
      if condition_holds t.mode ~local pending then begin
        t.queue <- List.rev_append acc rest;
        Some pending
      end
      else split_first (pending :: acc) rest
  in
  split_first [] t.queue

let drain t =
  let all = t.queue in
  t.queue <- [];
  all

let to_list t = t.queue
