type 'a callbacks = {
  deliver : sender:Engine.pid -> 'a -> unit;
  view_change : Group.view -> unit;
  member_failed : Engine.pid -> unit;
  direct : src:Engine.pid -> 'a -> unit;
}

let null_callbacks =
  { deliver = (fun ~sender:_ _ -> ());
    view_change = (fun _ -> ());
    member_failed = (fun _ -> ());
    direct = (fun ~src:_ _ -> ()) }

(* Chaos hook: drop the [ordering/forward_copies] registry increment while
   still sending the copy (and its hop event). The copy-conservation
   watchdog must then flag the census/counter mismatch — the conviction
   test for the metrics battery. *)
let chaos_drop_forward_copy_metric = ref false

type shared = {
  group_id : int;
  shared_config : Config.t;
  graph : Causality.t option;
  obs : Repro_obs.Log.t option;
      (* one telemetry log for the whole group: events carry the pid *)
  mutable next_msg_id : int;
  id_index : (int * int * int, Wire.msg_id) Hashtbl.t;
      (* (view_id, rank, per-sender seq) -> msg_id, for graph arcs *)
}

let next_group_id = Atomic.make 0

let make_shared ?group_id ?obs (config : Config.t) =
  let group_id =
    match group_id with
    | Some id -> id
    | None -> Atomic.fetch_and_add next_group_id 1 + 1
  in
  { group_id; shared_config = config;
    graph = (if config.Config.track_graph then Some (Causality.create ()) else None);
    obs;
    next_msg_id = 0;
    id_index = Hashtbl.create 256 }

let shared_graph shared = shared.graph
let shared_obs shared = shared.obs
let group_id shared = shared.group_id

type flush_state = {
  new_view_id : int;
  survivors : Engine.pid list;  (* flush participants: current live members *)
  survivor_set : Pid_set.t;  (* same pids, for O(log n) membership *)
  new_members : Engine.pid list;  (* survivors plus any admitted joiners *)
  mutable flush_from : Pid_set.t;
  mutable done_from : Pid_set.t;  (* coordinator only *)
  mutable done_sent : bool;
  started_at : Sim_time.t;
}

type join_state = {
  mutable pending_view : (int * Engine.pid list) option;
  mutable pending_state : (int * string) option;
}

type status = Normal | Flushing of flush_state | Joining of join_state

(* Per-stack registry cells, registered once at stack creation so every
   hot-path update is a single store ([Config.metrics] off hands back scrap
   cells — same discipline as a disabled [Obs.Log]). The six copy counters
   use the exact conservation vocabulary [Obs.Watch.copy_conservation]
   audits against the hop census in the telemetry log. *)
type reg_cells = {
  registry : Repro_obs.Registry.t;
  origin_copies : Repro_obs.Registry.counter;
  forward_copies : Repro_obs.Registry.counter;
  drain_copies : Repro_obs.Registry.counter;
  resend_copies : Repro_obs.Registry.counter;
  suppressed_copies : Repro_obs.Registry.counter;
  parked_copies : Repro_obs.Registry.counter;
  delivery_latency : Repro_obs.Histo.t;  (* ordering/delivery_latency_us *)
  gossip_msgs : Repro_obs.Registry.counter;
  c_flushes : Repro_obs.Registry.counter;
  c_view_changes : Repro_obs.Registry.counter;
  encoded_bytes : Repro_obs.Registry.counter;  (* real encoded copy bytes *)
  modeled_bytes : Repro_obs.Registry.counter;  (* structural model, same copies *)
  g_queue_depth : Repro_obs.Registry.gauge;
  g_blocked_msgs : Repro_obs.Registry.gauge;
  g_unstable_msgs : Repro_obs.Registry.gauge;
  g_unstable_bytes : Repro_obs.Registry.gauge;
}

let make_reg_cells (config : Config.t) =
  let registry =
    Repro_obs.Registry.create ~enabled:config.Config.metrics ()
  in
  (* literal [~name]s at the [Registry.*] call sites: repro-lint's
     metric-coverage contract inventories exactly these and requires each
     spelling to be pinned by a test *)
  let open Repro_obs in
  let o = Event.Ordering in
  { registry;
    origin_copies = Registry.counter registry ~layer:o ~name:"origin_copies" ();
    forward_copies =
      Registry.counter registry ~layer:o ~name:"forward_copies" ();
    drain_copies = Registry.counter registry ~layer:o ~name:"drain_copies" ();
    resend_copies = Registry.counter registry ~layer:o ~name:"resend_copies" ();
    suppressed_copies =
      Registry.counter registry ~layer:o ~name:"suppressed_copies" ();
    parked_copies = Registry.counter registry ~layer:o ~name:"parked_copies" ();
    delivery_latency =
      Registry.histogram registry ~layer:o ~name:"delivery_latency_us" ();
    gossip_msgs =
      Registry.counter registry ~layer:Event.Stability ~name:"gossip_msgs" ();
    c_flushes =
      Registry.counter registry ~layer:Event.View ~name:"flushes" ();
    c_view_changes =
      Registry.counter registry ~layer:Event.View ~name:"view_changes" ();
    encoded_bytes =
      Registry.counter registry ~layer:Event.Transport ~name:"encoded_bytes" ();
    modeled_bytes =
      Registry.counter registry ~layer:Event.Transport ~name:"modeled_bytes" ();
    g_queue_depth = Registry.gauge registry ~layer:o ~name:"queue_depth" ();
    g_blocked_msgs = Registry.gauge registry ~layer:o ~name:"blocked_msgs" ();
    g_unstable_msgs =
      Registry.gauge registry ~layer:Event.Stability ~name:"unstable_msgs" ();
    g_unstable_bytes =
      Registry.gauge registry ~layer:Event.Stability ~name:"unstable_bytes" () }

type 'a t = {
  engine : 'a Wire.t Transport.packet Engine.t;
  shared : shared;
  config : Config.t;
  self : Engine.pid;
  mutable callbacks : 'a callbacks;
  metrics : Metrics.t;
  cells : reg_cells;
  bytes_of : ('a Wire.data -> int) option;
      (* [Config.Encoded]: charge unstable-bytes gauges with real encoded
         sizes ([Wire_codec.data_bytes]); [None] keeps the header
         estimates *)
  parallel_ids : bool;
      (* parallel engine: msg_ids come from the per-stack counter below
         (seq and pid packed into the integer) instead of the group-shared
         counter, whose allocation order would depend on cross-lane
         interleaving *)
  mutable own_msg_seq : int;
  lamport : Lamport.t;
  delivered_ids : (Wire.msg_id, unit) Hashtbl.t;
  causal_seen : (Wire.msg_id, unit) Hashtbl.t;
      (* messages already causally delivered (vc advanced, handed to the
         total-order queues). Distinct from [delivered_ids]: in the
         sequencer/Lamport modes a message sits between causal and final
         delivery until its order arrives, and a duplicate copy arriving in
         that window must not re-run causal delivery — re-applying the vc
         update for an own-message duplicate can move the clock backwards
         and wedge every later message from that sender *)
  mutable endpoint : 'a Endpoint.t option;  (* set right after creation *)
  mutable view : Group.view;
  mutable rank : int;
  mutable vc : Vector_clock.t;
  mutable pc : Pc_causal.t option;
      (* PC-broadcast causal-layer state (overlay, link barrier, arrival
         records); [Some] iff [Config.pc_active config]. Rebuilt on every
         view install. In PC mode [vc] is not wire-carried: it is
         reconstructed from delivery order (component [o] = highest
         contiguously delivered origin sequence of rank [o]), which keeps
         the gossip/stability/flush machinery working unchanged. *)
  mutable hybrid : 'a Hybrid_causal.t option;
      (* hybrid-buffering refinements over the PC substrate (per-link
         delivered-knowledge and park buffers); [Some] iff
         [Config.hybrid_active config]. Rebuilt with [pc] on every view
         install. *)
  mutable queue : 'a Delivery_queue.t;
  mutable seq_queue : 'a Total_order.Sequencer_queue.t;
  mutable lamport_queue : 'a Total_order.Lamport_queue.t;
  mutable stability : 'a Stability.t;
  mutable next_global_seq : int;
  mutable status : status;
  mutable outbox : 'a list;
  mutable installing : bool;
      (* inside install_view/install_join: application callbacks fire while
         the outbox is not yet drained, so multicasts they issue must keep
         queueing or they would be stamped ahead of sends suppressed during
         the flush — a per-sender FIFO inversion *)
  mutable failed_members : Pid_set.t;
  mutable deferred_lamport_gossip : (int * int * int) list;
      (* (rank, required per-sender seq, lamport time): a gossiped Lamport
         time may only gate total-order release once every data message the
         gossiper had sent has been delivered here, otherwise an in-flight
         message with a smaller stamp could be overtaken *)
  mutable future_proto : (int * 'a Wire.proto) list;
      (* data/order messages from a view this member has not installed yet:
         peers that finish the flush first may multicast in the new view
         before our New_view arrives; dropping them would leave a permanent
         causal gap *)
  mutable replay_proto : 'a Wire.proto -> unit;
      (* re-entry into the protocol handler, tied after its definition *)
  mutable pending_joins : Engine.pid list;
      (* join requests received during a flush, admitted in the next round *)
  mutable trigger_pending_joins : unit -> unit;
  mutable get_state : unit -> string;
      (* application state snapshot handed to joiners (see
         set_state_handlers) *)
  mutable set_state : string -> unit;
  mutable cancel_gossip : unit -> unit;
  mutable ejected : bool;
      (* removed from the group by its peers (crash, or false suspicion
         under heartbeat detection): the stack is inert; re-join with a
         fresh stack *)
  mutable eject : unit -> unit;  (* tied after callbacks exist *)
  last_seen : (Engine.pid, Sim_time.t) Hashtbl.t;
      (* heartbeat detection: last protocol message per peer *)
}

let queue_mode (config : Config.t) =
  if Config.pc_active config then
    (* PC-broadcast: FIFO links plus forward-on-first-delivery make each
       link's receive order causally consistent, so a per-origin contiguity
       gate on [origin_seq] is all the delivery condition needs — no vector
       comparison, and no read of the record's (decoded: empty) stamp *)
    Delivery_queue.Origin_gap
  else
    match config.Config.ordering with
    | Config.Fifo | Config.Total_lamport -> Delivery_queue.Fifo_gap
    | Config.Causal | Config.Total_sequencer -> Delivery_queue.Causal_full

let make_queue ?obs (config : Config.t) =
  Delivery_queue.create ?obs (queue_mode config)

let stability_impl (config : Config.t) =
  match config.Config.stability_impl with
  | Config.Incremental_stability -> Stability.Incremental
  | Config.Reference_stability -> Stability.Reference

let stability_clock (config : Config.t) =
  match config.Config.stability_clock with
  | Config.Dense_clock -> Group_clock.Dense
  | Config.Sparse_clock -> Group_clock.Sparse

let make_stability ?obs ?bytes_of ?registry (config : Config.t) ~group_size
    ~metrics ~graph =
  Stability.create ~impl:(stability_impl config)
    ~clock:(stability_clock config) ?bytes_of ?obs ?registry ~group_size
    ~metrics ~graph ()

let self t = t.self
let shared_of t = t.shared
let config_of t = t.config
let view t = t.view
let rank t = t.rank
let metrics t = t.metrics
let registry t = t.cells.registry

let merged_snapshot stacks =
  Repro_obs.Registry.merge_all
    (Array.to_list
       (Array.map (fun t -> Repro_obs.Registry.snapshot t.cells.registry) stacks))

let vector_clock t = t.vc
let unstable_count t = Stability.unstable_count t.stability
let unstable_bytes t = Stability.unstable_bytes t.stability
let set_callbacks t callbacks = t.callbacks <- callbacks

(* the total-order summands are maintained counters; the delivery-queue
   summand walks its (short) list, so a call is O(blocked messages) *)
let pending_count t =
  Delivery_queue.length t.queue
  + Total_order.Sequencer_queue.data_count t.seq_queue
  + Total_order.Lamport_queue.length t.lamport_queue

(* telemetry: (log, owner pid) pair handed to the per-stack queues *)
let obs_pair shared ~self =
  match shared.obs with Some log -> Some (log, self) | None -> None

(* Causal-path hop records: one event per physical copy decision, so the
   full dissemination tree of a multicast is reconstructable from the log
   (see [Obs.Trace_tree]). Callers also bump the matching conservation
   counter; [Obs.Watch.copy_conservation] cross-checks the two. *)
let note_hop_send t ~uid ~dst kind =
  match t.shared.obs with
  | Some log when Repro_obs.Log.enabled log ->
    Repro_obs.Log.hop_send log ~at:(Engine.now t.engine) ~uid ~pid:t.self ~dst
      kind
  | _ -> ()

let note_hop_suppress t ~uid ~dst =
  match t.shared.obs with
  | Some log when Repro_obs.Log.enabled log ->
    Repro_obs.Log.hop_suppress log ~at:(Engine.now t.engine) ~uid ~pid:t.self
      ~dst
  | _ -> ()

let note_hop_park t ~uid ~dst =
  match t.shared.obs with
  | Some log when Repro_obs.Log.enabled log ->
    Repro_obs.Log.hop_park log ~at:(Engine.now t.engine) ~uid ~pid:t.self ~dst
  | _ -> ()

let note_flush_start t ~view_id =
  match t.shared.obs with
  | Some log ->
    Repro_obs.Log.flush_start log ~at:(Engine.now t.engine) ~pid:t.self
      ~view_id
  | None -> ()

let note_flush_end t ~view_id =
  match t.shared.obs with
  | Some log ->
    Repro_obs.Log.flush_end log ~at:(Engine.now t.engine) ~pid:t.self ~view_id
  | None -> ()

(* One gauge sample per tracked quantity; wire to [Engine.every] for the
   periodic time series the scaling experiments export. The other summands
   are maintained counters, but [Delivery_queue.length] walks the queue's
   list, so a sample costs O(blocked messages). *)
let record_gauges t =
  if Repro_obs.Registry.enabled t.cells.registry then begin
    Repro_obs.Registry.set t.cells.g_unstable_msgs
      (Stability.unstable_count t.stability);
    Repro_obs.Registry.set t.cells.g_unstable_bytes
      (Stability.unstable_bytes t.stability);
    Repro_obs.Registry.set t.cells.g_queue_depth
      (Delivery_queue.length t.queue);
    Repro_obs.Registry.set t.cells.g_blocked_msgs (pending_count t)
  end;
  match t.shared.obs with
  | None -> ()
  | Some log ->
    if Repro_obs.Log.enabled log then begin
      let at = Engine.now t.engine in
      Repro_obs.Log.gauge log ~at ~pid:t.self Repro_obs.Event.Unstable_msgs
        (Stability.unstable_count t.stability);
      Repro_obs.Log.gauge log ~at ~pid:t.self Repro_obs.Event.Unstable_bytes
        (Stability.unstable_bytes t.stability);
      Repro_obs.Log.gauge log ~at ~pid:t.self Repro_obs.Event.Queue_depth
        (Delivery_queue.length t.queue);
      Repro_obs.Log.gauge log ~at ~pid:t.self Repro_obs.Event.Blocked_msgs
        (pending_count t)
    end

let is_ejected t = t.ejected

let is_flushing t =
  match t.status with Normal -> false | Flushing _ | Joining _ -> true

let endpoint t =
  match t.endpoint with
  | Some e -> e
  | None -> invalid_arg "Stack: endpoint not initialised"

(* allocation-free fan-out over the view: the hot multicast/broadcast paths
   must not build an (n-1)-element recipient list per message *)
let iter_other_members t f =
  let members = t.view.Group.members in
  for i = 0 to Array.length members - 1 do
    let p = Array.unsafe_get members i in
    if p <> t.self then f p
  done

let broadcast_proto t proto =
  iter_other_members t (fun dst ->
      Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst proto)

(* --- PC-broadcast wiring ------------------------------------------------- *)

(* (Re)build the PC overlay state for the current view. [prev_members] holds
   the members of the view this install replaced: a link between two
   carried-over members stays open (its FIFO channel never broke and the
   flush made their message sets agree), while a link involving a member new
   to the view starts closed and runs the ping/pong barrier before data
   flows on it. At initial group creation every member is "carried over", so
   all links start open and no pings are sent. *)
let reset_pc t ~prev_members =
  if not (Config.pc_active t.config) then begin
    t.pc <- None;
    t.hybrid <- None
  end
  else begin
    let view = t.view in
    let self_fresh = not (Pid_set.mem t.self prev_members) in
    let link_fresh peer_rank =
      self_fresh || not (Pid_set.mem (Group.member view peer_rank) prev_members)
    in
    let pc =
      Pc_causal.create t.config ~rank:t.rank ~group_size:(Group.size view)
        ~link_fresh
    in
    t.pc <- Some pc;
    t.hybrid <-
      (if Config.hybrid_active t.config then
         Some
           (Hybrid_causal.create ~group_size:(Group.size view)
              ~neighbors:(Pc_causal.neighbors pc))
       else None);
    let stats = Pc_causal.stats pc in
    List.iter
      (fun peer_rank ->
        stats.Pc_causal.pings_sent <- stats.Pc_causal.pings_sent + 1;
        t.metrics.Metrics.control_messages <-
          t.metrics.Metrics.control_messages + 1;
        Endpoint.send_proto (endpoint t) ~group:t.shared.group_id
          ~dst:(Group.member view peer_rank)
          (Wire.Pc_ping { view_id = view.Group.view_id; from_rank = t.rank }))
      (Pc_causal.fresh_links pc)
  end

let pc_stats t = Option.map Pc_causal.stats t.pc

let pc_neighbors t = Option.map Pc_causal.neighbors t.pc

let hybrid_stats t = Option.map Hybrid_causal.stats t.hybrid

(* --- graph bookkeeping (Section 5 active causal graph) ----------------- *)

let register_in_graph t (data : 'a Wire.data) =
  match t.shared.graph with
  | None -> ()
  | Some graph ->
    let vt = data.Wire.vt in
    let view_id = data.Wire.view_id in
    let sender = data.Wire.sender_rank in
    let deps = ref [] in
    for r = 0 to Vector_clock.size vt - 1 do
      let seq = if r = sender then Vector_clock.get vt r - 1 else Vector_clock.get vt r in
      if seq > 0 then
        match Hashtbl.find_opt t.shared.id_index (view_id, r, seq) with
        | Some dep -> deps := dep :: !deps
        | None -> ()
    done;
    Hashtbl.replace t.shared.id_index
      (view_id, sender, Vector_clock.get vt sender)
      data.Wire.msg_id;
    Causality.add_message graph ~id:data.Wire.msg_id ~deps:!deps

(* --- delivery ----------------------------------------------------------- *)

let final_deliver t (pending : 'a Delivery_queue.pending) =
  let data = pending.Delivery_queue.data in
  if not (Hashtbl.mem t.delivered_ids data.Wire.msg_id) then begin
    Hashtbl.add t.delivered_ids data.Wire.msg_id ();
    t.metrics.Metrics.delivered <- t.metrics.Metrics.delivered + 1;
    let now = Engine.now t.engine in
    let wait = Sim_time.sub now pending.Delivery_queue.arrived_at in
    let transit = Sim_time.sub now data.Wire.sent_at in
    t.metrics.Metrics.ordering_wait_total_us <-
      t.metrics.Metrics.ordering_wait_total_us + wait;
    t.metrics.Metrics.transit_total_us <-
      t.metrics.Metrics.transit_total_us + transit;
    if Repro_obs.Registry.enabled t.cells.registry then
      Repro_obs.Histo.add t.cells.delivery_latency (float_of_int transit);
    if wait > 0 then
      t.metrics.Metrics.delayed_messages <- t.metrics.Metrics.delayed_messages + 1;
    (* the label is formatted eagerly, so skip it entirely when tracing is
       off — this runs once per delivery *)
    let trace = Engine.trace t.engine in
    if Trace.enabled trace then
      Trace.record trace now ~pid:t.self Trace.Deliver
        (Format.asprintf "msg#%d" data.Wire.msg_id);
    (match t.shared.obs with
     | Some log ->
       Repro_obs.Log.span_delivered log ~at:now ~uid:data.Wire.msg_id
         ~pid:t.self
     | None -> ());
    t.callbacks.deliver ~sender:data.Wire.origin data.Wire.payload
  end

let release_total_queues t =
  (match t.config.Config.ordering with
   | Config.Total_sequencer ->
     let rec loop () =
       match Total_order.Sequencer_queue.take_ready t.seq_queue with
       | Some pending -> final_deliver t pending; loop ()
       | None -> ()
     in
     loop ()
   | Config.Total_lamport ->
     (* our own logical clock bounds our own future stamps *)
     Total_order.Lamport_queue.observe_time t.lamport_queue ~rank:t.rank
       (Lamport.value t.lamport);
     let rec loop () =
       match Total_order.Lamport_queue.take_ready t.lamport_queue with
       | Some pending -> final_deliver t pending; loop ()
       | None -> ()
     in
     loop ()
   | Config.Fifo | Config.Causal -> ())

let sequencer_pid t = Group.member t.view 0

let causal_deliver t (pending : 'a Delivery_queue.pending) =
  let data = pending.Delivery_queue.data in
  if Hashtbl.mem t.causal_seen data.Wire.msg_id then ()
  else begin
  Hashtbl.add t.causal_seen data.Wire.msg_id ();
  (* Advance only the sender's component: in Causal_full mode this equals a
     full merge (the delivery condition guarantees vt(k) <= local(k) for
     k <> sender); in the gap modes a full merge would overstate which
     messages from third parties we have delivered. *)
  let sender = data.Wire.sender_rank in
  let sender_seq = Wire.sender_seq data in
  Vector_clock.set t.vc sender sender_seq;
  (* A PC/Hybrid record's only causal information is its origin_seq, so
     both stability merges below collapse to single cells — the delivery
     hot path stays O(1) in group size instead of O(n) per message. *)
  (match data.Wire.meta with
   | Wire.Pc_meta _ | Wire.Hybrid_meta _ ->
     Stability.note_delivered_diag t.stability data
   | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Lamport_meta _ ->
     Stability.note_sent_or_delivered t.stability data);
  Stability.self_observe_cell t.stability ~rank:t.rank ~col:sender
    ~seq:sender_seq ~now:(Engine.now t.engine);
  (* PC forward-on-first-delivery. This must run BEFORE the application
     callback below: a reaction multicast issued synchronously from the
     delivery would otherwise be sent ahead of this message's forwarded
     copy on shared FIFO links, and a neighbor could deliver the reaction
     before its trigger — exactly the causal inversion PC's structural
     argument forbids. Forwarding a message we are about to deliver is
     safe: it is causally deliverable here, hence on our outgoing links. *)
  (match t.pc with
   | None -> ()
   | Some pc ->
     let from_rank = Pc_causal.take_arrival pc data.Wire.msg_id in
     if data.Wire.origin <> t.self then begin
       match t.status with
       | Normal ->
         let stats = Pc_causal.stats pc in
         let send_forward r =
           stats.Pc_causal.forwards <- stats.Pc_causal.forwards + 1;
           if not !chaos_drop_forward_copy_metric then
             Repro_obs.Registry.incr t.cells.forward_copies;
           t.metrics.Metrics.header_bytes <-
             t.metrics.Metrics.header_bytes + Wire.header_bytes data;
           let dst = Group.member t.view r in
           note_hop_send t ~uid:data.Wire.msg_id ~dst
             Repro_obs.Event.Forward_copy;
           Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst
             (Wire.Data data)
         in
         let targets =
           Pc_causal.forward_targets pc ~from_rank ~origin_rank:sender
         in
         (match t.hybrid with
          | None -> List.iter send_forward targets
          | Some h ->
            (* delivered-knowledge suppression: skip peers that provably
               already delivered this message (the copy would be dropped
               as a duplicate on arrival) *)
            let seq = Wire.sender_seq data in
            List.iter
              (fun r ->
                if Hybrid_causal.needs_copy h ~peer:r ~origin:sender ~seq
                then send_forward r
                else begin
                  Hybrid_causal.note_suppressed h;
                  Repro_obs.Registry.incr t.cells.suppressed_copies;
                  note_hop_suppress t ~uid:data.Wire.msg_id
                    ~dst:(Group.member t.view r)
                end)
              targets;
            (* barrier-pending links are absent from [targets]: park their
               copies for the pong-triggered drain instead of falling back
               to the unstable-buffer rescan *)
            List.iter
              (fun r ->
                if r <> from_rank && r <> sender then begin
                  Hybrid_causal.park h ~peer:r data;
                  Repro_obs.Registry.incr t.cells.parked_copies;
                  note_hop_park t ~uid:data.Wire.msg_id
                    ~dst:(Group.member t.view r)
                end)
              (Pc_causal.fresh_links pc))
       | Flushing _ | Joining _ ->
         (* the flush round itself disseminates the message set *)
         ()
     end);
  match t.config.Config.ordering with
  | Config.Fifo | Config.Causal -> final_deliver t pending
  | Config.Total_sequencer ->
    Total_order.Sequencer_queue.add_data t.seq_queue pending;
    if t.self = sequencer_pid t then begin
      let global_seq = t.next_global_seq in
      t.next_global_seq <- global_seq + 1;
      let order =
        Wire.Seq_order
          { view_id = t.view.Group.view_id; msg_id = data.Wire.msg_id; global_seq }
      in
      t.metrics.Metrics.control_messages <-
        t.metrics.Metrics.control_messages + Group.size t.view - 1;
      broadcast_proto t order;
      Total_order.Sequencer_queue.add_order t.seq_queue
        ~msg_id:data.Wire.msg_id ~global_seq
    end
  | Config.Total_lamport ->
    (match data.Wire.meta with
     | Wire.Lamport_meta stamp ->
       Total_order.Lamport_queue.add t.lamport_queue pending ~stamp;
       Total_order.Lamport_queue.observe_time t.lamport_queue
         ~rank:data.Wire.sender_rank stamp.Lamport.time
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Pc_meta _
     | Wire.Hybrid_meta _ ->
       (* a misconfigured peer; deliver FIFO to stay live *)
       final_deliver t pending)
  end

let apply_deferred_gossip t =
  let applicable, still_deferred =
    List.partition
      (fun (rank, required, _) -> Vector_clock.get t.vc rank >= required)
      t.deferred_lamport_gossip
  in
  t.deferred_lamport_gossip <- still_deferred;
  List.iter
    (fun (rank, _, time) ->
      Total_order.Lamport_queue.observe_time t.lamport_queue ~rank time)
    applicable

let drain_deliverables t =
  let rec loop () =
    match Delivery_queue.take_deliverable t.queue ~local:t.vc with
    | Some pending ->
      causal_deliver t pending;
      loop ()
    | None -> ()
  in
  loop ();
  apply_deferred_gossip t;
  release_total_queues t

let rec on_data t ?(src_rank = -1) (data : 'a Wire.data) =
  (* piggybacked predecessors are just data messages: feed them through the
     same path (duplicates are dropped by the delivered/seen-ids check) *)
  List.iter (fun d -> on_data t d) data.Wire.piggyback;
  (* hybrid delivered-knowledge: every copy arriving from a peer — first
     copy or duplicate alike — proves the peer delivered it before
     sending *)
  (match t.hybrid with
   | Some h when src_rank >= 0 && data.Wire.view_id = t.view.Group.view_id ->
     Hybrid_causal.note_copy h ~peer:src_rank ~origin:data.Wire.sender_rank
       ~seq:(Wire.sender_seq data)
   | _ -> ());
  if data.Wire.view_id > t.view.Group.view_id then
    t.future_proto <-
      (data.Wire.view_id, Wire.Data data) :: t.future_proto
  else if data.Wire.view_id = t.view.Group.view_id
          && not (Hashtbl.mem t.delivered_ids data.Wire.msg_id)
          && not (Hashtbl.mem t.causal_seen data.Wire.msg_id)
  then begin
    match t.pc with
    | Some pc when Pc_causal.is_queued pc data.Wire.msg_id ->
      (* PC's forwarding redundancy: a copy of a message already sitting in
         the delivery queue; drop it before it reaches the queue *)
      Pc_causal.note_duplicate pc
    | _ ->
    (match data.Wire.meta with
     | Wire.Lamport_meta stamp -> ignore (Lamport.observe t.lamport stamp.Lamport.time)
     | Wire.Fifo_meta | Wire.Causal_meta | Wire.Seq_meta | Wire.Pc_meta _
     | Wire.Hybrid_meta _ -> ());
    let pending =
      { Delivery_queue.data; arrived_at = Engine.now t.engine }
    in
    (match t.shared.obs with
     | Some log ->
       Repro_obs.Log.span_recv log ~at:pending.Delivery_queue.arrived_at
         ~uid:data.Wire.msg_id ~pid:t.self
     | None -> ());
    if data.Wire.origin = t.self then begin
      (* A sender's own multicast is deliverable by construction — its
         dependencies are exactly what the sender had delivered when it was
         stamped — so it bypasses the delivery condition. Routing it through
         the queue instead can deadlock: a reaction multicast issued from a
         delivery that lands between another own-message's stamping and its
         local delivery would reuse the same sender sequence number (the
         clock had not advanced yet), and one of the twins then never
         satisfies the FIFO-gap condition anywhere. *)
      causal_deliver t pending;
      drain_deliverables t
    end
    else begin
      (match t.pc with
       | Some pc ->
         (* record the arrival link so the forward on delivery can skip it *)
         Pc_causal.note_queued pc ~msg_id:data.Wire.msg_id ~from_rank:src_rank
       | None -> ());
      Delivery_queue.add t.queue pending;
      drain_deliverables t
    end
  end
  else
    match t.pc with
    | Some pc when data.Wire.view_id = t.view.Group.view_id ->
      (* redundant copy of an already-delivered message *)
      Pc_causal.note_duplicate pc
    | _ -> ()

(* --- multicast ---------------------------------------------------------- *)

(* parallel msg_id layout: seq * 2^20 + pid — globally unique for up to a
   million processes, and independent of cross-member allocation order *)
let msg_id_pid_limit = 1 lsl 20

let make_data t payload =
  let msg_id =
    if t.parallel_ids then begin
      let seq = t.own_msg_seq in
      t.own_msg_seq <- seq + 1;
      (seq * msg_id_pid_limit) + t.self
    end
    else begin
      let id = t.shared.next_msg_id in
      t.shared.next_msg_id <- id + 1;
      id
    end
  in
  (match t.shared.obs with
   | Some log ->
     Repro_obs.Log.span_send log ~at:(Engine.now t.engine) ~uid:msg_id
       ~pid:t.self ~bytes:t.config.Config.payload_bytes
   | None -> ());
  (* one immutable snapshot per multicast, shared by every recipient *)
  let vt, meta =
    match t.pc with
    | Some _ ->
      (* PC mode: the wire carries only (origin, origin_seq), and every
         delivery-path read of the sender sequence takes origin_seq
         (Wire.sender_seq). The in-memory vt is sparse — just our own
         ticked component, which only the Section 5 causal graph reads at
         this sender; receivers of an encoded copy see a shared all-zero
         vector of the same size. It is not charged to header_bytes. *)
      let seq = Vector_clock.get t.vc t.rank + 1 in
      let vt = Vector_clock.create (Group.size t.view) in
      Vector_clock.set vt t.rank seq;
      let meta =
        if Config.hybrid_active t.config then
          Wire.Hybrid_meta { origin_seq = seq }
        else Wire.Pc_meta { origin_seq = seq }
      in
      (vt, meta)
    | None ->
      let vt = Vector_clock.copy_tick t.vc t.rank in
      let meta =
        match t.config.Config.ordering with
        | Config.Fifo -> Wire.Fifo_meta
        | Config.Causal -> Wire.Causal_meta
        | Config.Total_sequencer -> Wire.Seq_meta
        | Config.Total_lamport ->
          Wire.Lamport_meta (Lamport.stamp t.lamport ~node:t.rank)
      in
      (vt, meta)
  in
  let piggyback =
    if t.config.Config.piggyback_history then
      (* footnote 4: carry our unstable causal predecessors so receivers
         can fill gaps locally instead of waiting *)
      List.map
        (fun (d : 'a Wire.data) -> { d with Wire.piggyback = [] })
        (Stability.unstable t.stability)
    else []
  in
  { Wire.msg_id; trace_id = msg_id; origin = t.self; sender_rank = t.rank;
    view_id = t.view.Group.view_id; vt; meta; payload;
    payload_bytes = t.config.Config.payload_bytes;
    sent_at = Engine.now t.engine; piggyback }

let account_send t data ~recipient_count =
  t.metrics.Metrics.multicasts_sent <- t.metrics.Metrics.multicasts_sent + 1;
  let overhead_per_copy =
    Wire.header_bytes data + (Wire.wire_bytes data - Wire.buffered_bytes data)
  in
  t.metrics.Metrics.header_bytes <-
    t.metrics.Metrics.header_bytes + (overhead_per_copy * recipient_count);
  (* encoded-vs-modeled delta: charge both the real codec size and the
     structural byte model for the same copies, so snapshot consumers can
     read the model's error directly. The codec run is behind the enabled
     check — a disabled registry must not pay an encode per multicast. *)
  (match t.bytes_of with
   | Some real_bytes when Repro_obs.Registry.enabled t.cells.registry ->
     Repro_obs.Registry.add t.cells.encoded_bytes
       (real_bytes data * recipient_count);
     Repro_obs.Registry.add t.cells.modeled_bytes
       (Wire.wire_bytes data * recipient_count)
   | Some _ | None -> ());
  register_in_graph t data

let transmit t data ~recipients =
  account_send t data ~recipient_count:(List.length recipients);
  List.iter
    (fun dst ->
      Repro_obs.Registry.incr t.cells.origin_copies;
      note_hop_send t ~uid:data.Wire.msg_id ~dst Repro_obs.Event.Origin_copy;
      Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst
        (Wire.Data data))
    recipients;
  (* the local copy goes through the same receive path *)
  on_data t data

let do_multicast t payload =
  let data = make_data t payload in
  (match t.pc with
   | None ->
     account_send t data ~recipient_count:(Group.size t.view - 1);
     iter_other_members t (fun dst ->
         Repro_obs.Registry.incr t.cells.origin_copies;
         note_hop_send t ~uid:data.Wire.msg_id ~dst
           Repro_obs.Event.Origin_copy;
         Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst
           (Wire.Data data))
   | Some pc ->
     (* overlay dissemination: the initial copies go to our overlay
        neighbors only; forwarding on delivery carries them the rest of the
        way. Closed (barrier-pending) links are skipped — the pong-triggered
        unstable retransmission covers them. *)
     let stats = Pc_causal.stats pc in
     let sent = ref 0 in
     Array.iter
       (fun r ->
         if Pc_causal.link_open pc ~peer_rank:r then begin
           incr sent;
           let dst = Group.member t.view r in
           Repro_obs.Registry.incr t.cells.origin_copies;
           note_hop_send t ~uid:data.Wire.msg_id ~dst
             Repro_obs.Event.Origin_copy;
           Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst
             (Wire.Data data)
         end
         else begin
           stats.Pc_causal.barrier_deferred <-
             stats.Pc_causal.barrier_deferred + 1;
           (* hybrid: park the copy for the pong-triggered drain *)
           match t.hybrid with
           | Some h ->
             Hybrid_causal.park h ~peer:r data;
             Repro_obs.Registry.incr t.cells.parked_copies;
             note_hop_park t ~uid:data.Wire.msg_id
               ~dst:(Group.member t.view r)
           | None -> ()
         end)
       (Pc_causal.neighbors pc);
     account_send t data ~recipient_count:!sent);
  on_data t data

(* Transmit outbox entries in order; a multicast issued from a delivery
   callback mid-drain (while [t.installing]) re-enters the outbox and is
   picked up by the recursion, so intent order is preserved. *)
let rec drain_outbox t =
  match t.outbox with
  | [] -> t.installing <- false
  | payload :: rest ->
    t.outbox <- rest;
    do_multicast t payload;
    drain_outbox t

let multicast t payload =
  if t.ejected then ()
  else
    match t.status with
    | Normal when not t.installing -> do_multicast t payload
    | Normal | Flushing _ | Joining _ -> t.outbox <- t.outbox @ [ payload ]

let inject_partial_multicast t payload ~recipients =
  let recipients = List.filter (fun p -> p <> t.self) recipients in
  transmit t (make_data t payload) ~recipients

let send_direct t ~dst payload = Endpoint.send_direct (endpoint t) ~dst payload

(* --- gossip / stability -------------------------------------------------- *)

let send_gossip t =
  match t.status with
  | Flushing _ | Joining _ -> ()
  | Normal ->
    let proto =
      Wire.Gossip
        { view_id = t.view.Group.view_id; rank = t.rank;
          vc = Vector_clock.copy t.vc; lamport = Lamport.value t.lamport }
    in
    t.metrics.Metrics.control_messages <-
      t.metrics.Metrics.control_messages + Group.size t.view - 1;
    Repro_obs.Registry.add t.cells.gossip_msgs (Group.size t.view - 1);
    broadcast_proto t proto;
    Stability.self_observe t.stability ~rank:t.rank ~now:(Engine.now t.engine) t.vc

let on_gossip t ~view_id ~rank ~vc ~lamport =
  if view_id = t.view.Group.view_id then begin
    Stability.observe_vc t.stability ~rank ~now:(Engine.now t.engine) vc;
    (* the gossiped vector is the gossiper's delivered counts: free hybrid
       suppression knowledge *)
    (match t.hybrid with
     | Some h -> Hybrid_causal.note_delivered_vector h ~peer:rank vc
     | None -> ());
    ignore (Lamport.observe t.lamport lamport);
    let gossiper_sent = Vector_clock.get vc rank in
    if Vector_clock.get t.vc rank >= gossiper_sent then
      Total_order.Lamport_queue.observe_time t.lamport_queue ~rank lamport
    else
      t.deferred_lamport_gossip <-
        (rank, gossiper_sent, lamport) :: t.deferred_lamport_gossip;
    drain_deliverables t
  end

(* --- view change --------------------------------------------------------- *)

let coordinator_of survivors = List.fold_left min max_int survivors

let flush_complete t flush =
  List.for_all
    (fun p -> p = t.self || Pid_set.mem p flush.flush_from)
    flush.survivors

let maybe_finish_flush t flush =
  if flush_complete t flush && not flush.done_sent then begin
    flush.done_sent <- true;
    let coordinator = coordinator_of flush.survivors in
    if t.self = coordinator then
      flush.done_from <- Pid_set.add t.self flush.done_from
    else begin
      t.metrics.Metrics.control_messages <- t.metrics.Metrics.control_messages + 1;
      t.metrics.Metrics.flush_messages <- t.metrics.Metrics.flush_messages + 1;
      Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst:coordinator
        (Wire.Flush_done { new_view_id = flush.new_view_id; from = t.self })
    end
  end

let install_view t flush =
  note_flush_end t ~view_id:flush.new_view_id;
  (* Anything still blocked is undeliverable in the old view: the flush
     guaranteed every survivor holds the same message set, so dropping the
     remainder is group-consistent. This drop IS the atomicity-without-
     durability gap of Section 2. *)
  let leftover_causal = Delivery_queue.drain t.queue in
  let leftover_seq = Total_order.Sequencer_queue.pending_data t.seq_queue in
  let leftover_lamport = Total_order.Lamport_queue.pending t.lamport_queue in
  (* Sequencer/Lamport leftovers were causally delivered but unordered;
     every survivor holds the identical set, so deliver them in stamping /
     Lamport-stamp order (deterministic and identical everywhere). *)
  List.iter (final_deliver t) leftover_seq;
  List.iter (final_deliver t) leftover_lamport;
  Total_order.Sequencer_queue.clear t.seq_queue;
  Total_order.Lamport_queue.clear t.lamport_queue;
  t.metrics.Metrics.dropped_at_view_change <-
    t.metrics.Metrics.dropped_at_view_change + List.length leftover_causal;
  (match t.shared.graph with
   | Some graph ->
     List.iter
       (fun (d : 'a Wire.data) -> Causality.remove_stable graph d.Wire.msg_id)
       (Stability.unstable t.stability)
   | None -> ());
  let old_members = Array.to_list t.view.Group.members in
  if not (List.mem t.self flush.new_members) then begin
    (* the agreed view excludes us: false suspicion or late recovery *)
    t.status <- Normal;
    t.eject ()
  end
  else begin
  (* Deliver data from views this member skipped — its flush was restarted
     onto a later round before the intermediate New_view arrived. The new
     round's flush supplied every message the intermediate views' members
     delivered (nothing from those views can have stabilised, since this
     member never acknowledged them), so delivering here — in stamping
     order, which is causality-consistent under both msg-id schemes —
     keeps delivery all-or-none across the group. Dropping them instead
     would lose messages peers delivered in the skipped view. *)
  let skipped, remaining =
    List.partition (fun (vid, _) -> vid < flush.new_view_id) t.future_proto
  in
  t.future_proto <- remaining;
  skipped
  |> List.filter_map (function
       | _, Wire.Data d when not (Hashtbl.mem t.delivered_ids d.Wire.msg_id) ->
         Some d
       | _ -> None)
  |> List.sort Wire.compare_stamping
  |> List.iter (fun d ->
         final_deliver t
           { Delivery_queue.data = d; arrived_at = Engine.now t.engine });
  let new_view = Group.make_view ~view_id:flush.new_view_id flush.new_members in
  let removed = List.filter (fun p -> not (Group.mem new_view p)) old_members in
  t.view <- new_view;
  t.rank <- Group.rank_of_exn new_view t.self;
  t.vc <- Vector_clock.create (Group.size new_view);
  let obs = obs_pair t.shared ~self:t.self in
  t.queue <- make_queue ?obs t.config;
  t.seq_queue <- Total_order.Sequencer_queue.create ?obs ();
  t.lamport_queue <-
    Total_order.Lamport_queue.create ?obs ~group_size:(Group.size new_view) ();
  t.stability <-
    make_stability ?obs ?bytes_of:t.bytes_of ~registry:t.cells.registry
      t.config ~group_size:(Group.size new_view) ~metrics:t.metrics
      ~graph:t.shared.graph;
  t.next_global_seq <- 0;
  t.deferred_lamport_gossip <- [];
  t.status <- Normal;
  t.installing <- true;
  reset_pc t ~prev_members:(Pid_set.of_list old_members);
  t.metrics.Metrics.view_changes <- t.metrics.Metrics.view_changes + 1;
  Repro_obs.Registry.incr t.cells.c_view_changes;
  t.metrics.Metrics.suppressed_us <-
    t.metrics.Metrics.suppressed_us
    + Sim_time.sub (Engine.now t.engine) flush.started_at;
  List.iter (fun p -> t.callbacks.member_failed p) removed;
  t.callbacks.view_change new_view;
  (* replay messages that arrived for this view before we installed it *)
  let ready, later =
    List.partition (fun (vid, _) -> vid = new_view.Group.view_id) t.future_proto
  in
  t.future_proto <-
    List.filter (fun (vid, _) -> vid > new_view.Group.view_id) later;
  List.iter (fun (_, proto) -> t.replay_proto proto) (List.rev ready);
  drain_outbox t;
  if t.pending_joins <> [] then
    (* admit joiners that queued up during the flush in a fresh round *)
    Engine.after t.engine ~owner:t.self (Sim_time.us 1) t.trigger_pending_joins
  end

(* Enter a flush round with an agreed survivor set. The round's initiator
   computes the set; members that learn of the round from a Flush message
   adopt the set carried in it, so staggered failure detection still
   converges on one view. *)
let begin_flush t ~new_view_id ~survivors ~new_members =
  (* a restart abandons the round in progress: close its telemetry span
     before opening the new one *)
  (match t.status with
   | Flushing f when f.new_view_id <> new_view_id ->
     note_flush_end t ~view_id:f.new_view_id
   | Flushing _ | Normal | Joining _ -> ());
  note_flush_start t ~view_id:new_view_id;
  Repro_obs.Registry.incr t.cells.c_flushes;
  let survivor_set = Pid_set.of_list survivors in
  let flush =
    { new_view_id; survivors; survivor_set; new_members;
      flush_from = Pid_set.of_list [ t.self ];
      done_from = Pid_set.empty; done_sent = false;
      started_at = Engine.now t.engine }
  in
  t.status <- Flushing flush;
  (* anyone the agreed set excludes is de facto failed *)
  t.failed_members <-
    Array.fold_left
      (fun acc p ->
        if Pid_set.mem p survivor_set then acc else Pid_set.add p acc)
      t.failed_members t.view.Group.members;
  (* The flush contribution is everything this member HOLDS from the old
     view: its unstable sent-or-delivered messages, plus messages still
     blocked in its delivery queue. The queue contents matter when the
     blocking dependency arrives mid-flush (say, right after a partition
     heals): the member then delivers the blocked message during the flush,
     and if its original sender crashed, no retransmission exists — peers
     can only learn of it from this exchange. *)
  let unstable =
    Stability.unstable t.stability
    @ List.map
        (fun (p : 'a Delivery_queue.pending) -> p.Delivery_queue.data)
        (Delivery_queue.to_list t.queue)
  in
  let orders = Total_order.Sequencer_queue.known_orders t.seq_queue in
  let proto = Wire.Flush { new_view_id; survivors; unstable; orders } in
  let targets = List.filter (fun p -> p <> t.self) survivors in
  t.metrics.Metrics.control_messages <-
    t.metrics.Metrics.control_messages + List.length targets;
  t.metrics.Metrics.flush_messages <-
    t.metrics.Metrics.flush_messages + List.length targets;
  List.iter
    (fun dst ->
      Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst proto)
    targets;
  (* a member left behind on a stale round (everyone else moved on without
     it, e.g. after a false suspicion) must not hang forever *)
  Engine.after t.engine ~owner:t.self (Sim_time.seconds 1) (fun () ->
      match t.status with
      | Flushing f when f == flush -> t.eject ()
      | Flushing _ | Normal | Joining _ -> ());
  match survivors with
  | [ only ] when only = t.self ->
    (* alone: no peers to flush with; install immediately *)
    flush.done_sent <- true;
    install_view t flush
  | _ -> maybe_finish_flush t flush

(* A view change covers both directions of membership: [failed] removes a
   member (detected crash), [joined] admits new ones. The flush itself is
   always between the current live members; joiners receive the new view
   plus a state transfer once the flush completes. *)
let start_view_change t ~failed ~joined =
  (match failed with
   | Some pid -> t.failed_members <- Pid_set.add pid t.failed_members
   | None -> ());
  let joined = joined @ t.pending_joins in
  t.pending_joins <- [];
  (* a recovered process may re-join under its old pid: admitting it
     supersedes its failure record *)
  t.failed_members <-
    List.fold_left (fun acc j -> Pid_set.remove j acc) t.failed_members joined;
  let new_view_id =
    match t.status with
    | Normal | Joining _ -> t.view.Group.view_id + 1
    | Flushing f -> f.new_view_id + 1
  in
  let survivors =
    Array.to_list t.view.Group.members
    |> List.filter (fun p -> not (Pid_set.mem p t.failed_members))
  in
  let survivor_set = Pid_set.of_list survivors in
  let new_members =
    survivors
    @ List.filter
        (fun j ->
          (not (Pid_set.mem j survivor_set))
          && not (Pid_set.mem j t.failed_members))
        (List.sort_uniq Int.compare joined)
  in
  begin_flush t ~new_view_id ~survivors ~new_members

let rec on_flush t ~src ~new_view_id ~survivors ~unstable ~orders =
  (match t.status with
   | Normal when new_view_id > t.view.Group.view_id ->
     (* a peer started a view change we have no local trigger for (a join,
        or a failure we have not detected yet): adopt its round *)
     begin_flush t ~new_view_id ~survivors ~new_members:survivors
   | Flushing f when new_view_id > f.new_view_id ->
     (* the group moved on to a later round (another failure detected
        elsewhere): restart on it *)
     begin_flush t ~new_view_id ~survivors ~new_members:survivors
   | Normal | Flushing _ | Joining _ -> ());
  match t.status with
  | Flushing flush when flush.new_view_id = new_view_id ->
    (* Adopt the peer's knowledge of the sequencer's assignments before
       feeding it the data: if the sequencer crashed after reaching only
       some members, everyone must still release in its order rather than
       fall back to the view-change tiebreak for messages it had placed. *)
    List.iter
      (fun (msg_id, global_seq) ->
        Total_order.Sequencer_queue.add_order t.seq_queue ~msg_id ~global_seq)
      orders;
    List.iter (fun data -> on_data t data) unstable;
    release_total_queues t;
    flush.flush_from <- Pid_set.add src flush.flush_from;
    maybe_finish_flush t flush;
    (* the coordinator may already have everyone's done *)
    (match t.status with
     | Flushing f
       when f.new_view_id = new_view_id
            && t.self = coordinator_of f.survivors
            && Pid_set.cardinal f.done_from >= List.length f.survivors ->
       broadcast_new_view t f
     | Flushing _ | Normal | Joining _ -> ())
  | Flushing _ | Normal | Joining _ -> ()

and broadcast_new_view t flush =
  let joiners =
    List.filter
      (fun p -> not (Pid_set.mem p flush.survivor_set))
      flush.new_members
  in
  (* install first so the state snapshot reflects every old-view delivery *)
  install_view t flush;
  let proto =
    Wire.New_view { view_id = flush.new_view_id; members = flush.new_members }
  in
  let targets = List.filter (fun p -> p <> t.self) flush.new_members in
  t.metrics.Metrics.control_messages <-
    t.metrics.Metrics.control_messages + List.length targets;
  t.metrics.Metrics.flush_messages <-
    t.metrics.Metrics.flush_messages + List.length targets;
  List.iter (fun dst -> Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst proto) targets;
  (match joiners with
   | [] -> ()
   | _ :: _ ->
     let state =
       Wire.State_transfer
         { view_id = flush.new_view_id; state = t.get_state () }
     in
     t.metrics.Metrics.control_messages <-
       t.metrics.Metrics.control_messages + List.length joiners;
     t.metrics.Metrics.flush_messages <-
       t.metrics.Metrics.flush_messages + List.length joiners;
     List.iter (fun dst -> Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst state) joiners)

let on_flush_done t ~new_view_id ~from =
  match t.status with
  | Flushing flush
    when flush.new_view_id = new_view_id
         && t.self = coordinator_of flush.survivors ->
    flush.done_from <- Pid_set.add from flush.done_from;
    if Pid_set.cardinal flush.done_from >= List.length flush.survivors then
      broadcast_new_view t flush
  | Flushing _ | Normal | Joining _ -> ()

let install_join t join ~view_id ~members ~state =
  ignore join;
  let new_view = Group.make_view ~view_id members in
  t.view <- new_view;
  t.rank <- Group.rank_of_exn new_view t.self;
  t.vc <- Vector_clock.create (Group.size new_view);
  let obs = obs_pair t.shared ~self:t.self in
  t.queue <- make_queue ?obs t.config;
  t.seq_queue <- Total_order.Sequencer_queue.create ?obs ();
  t.lamport_queue <-
    Total_order.Lamport_queue.create ?obs ~group_size:(Group.size new_view) ();
  t.stability <-
    make_stability ?obs ?bytes_of:t.bytes_of ~registry:t.cells.registry
      t.config ~group_size:(Group.size new_view) ~metrics:t.metrics
      ~graph:t.shared.graph;
  t.next_global_seq <- 0;
  t.deferred_lamport_gossip <- [];
  t.status <- Normal;
  t.installing <- true;
  (* a joiner is new to every link: the full barrier runs on each of them *)
  reset_pc t ~prev_members:Pid_set.empty;
  t.set_state state;
  t.metrics.Metrics.view_changes <- t.metrics.Metrics.view_changes + 1;
  Repro_obs.Registry.incr t.cells.c_view_changes;
  t.callbacks.view_change new_view;
  let ready, later =
    List.partition (fun (vid, _) -> vid = view_id) t.future_proto
  in
  t.future_proto <- List.filter (fun (vid, _) -> vid > view_id) later;
  List.iter (fun (_, proto) -> t.replay_proto proto) (List.rev ready);
  drain_outbox t

let maybe_install_join t join =
  match (join.pending_view, join.pending_state) with
  | Some (view_id, members), Some (state_view, state) when view_id = state_view ->
    install_join t join ~view_id ~members ~state
  | _ -> ()

let on_new_view t ~view_id ~members =
  if not (List.mem t.self members) then begin
    (match t.status with
     | Flushing f ->
       note_flush_end t ~view_id:f.new_view_id;
       t.status <- Normal
     | Normal | Joining _ -> ());
    t.eject ()
  end
  else
  match t.status with
  | Flushing flush when flush.new_view_id = view_id ->
    install_view t
      { flush with survivors = members;
        survivor_set = Pid_set.of_list members; new_members = members }
  | Joining join ->
    (match join.pending_view with
     | Some (existing, _) when existing >= view_id -> ()
     | Some _ | None ->
       join.pending_view <- Some (view_id, members);
       maybe_install_join t join)
  | Flushing _ | Normal -> ()

let on_state_transfer t ~view_id ~state =
  match t.status with
  | Joining join ->
    (match join.pending_state with
     | Some (existing, _) when existing >= view_id -> ()
     | Some _ | None ->
       join.pending_state <- Some (view_id, state);
       maybe_install_join t join)
  | Flushing _ | Normal -> ()

let on_join_request t ~joiner =
  if Group.mem t.view joiner then ()
  else begin
    let coordinator = Group.coordinator t.view in
    if t.self <> coordinator then
      (* not ours to coordinate: forward *)
      Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst:coordinator
        (Wire.Join_request { joiner })
    else
      match t.status with
      | Normal -> start_view_change t ~failed:None ~joined:[ joiner ]
      | Flushing _ | Joining _ ->
        if not (List.mem joiner t.pending_joins) then
          t.pending_joins <- joiner :: t.pending_joins
  end

(* --- wiring -------------------------------------------------------------- *)

let handle_proto t ~src (proto : 'a Wire.proto) =
  if t.ejected then ()
  else begin
    if src >= 0 then Hashtbl.replace t.last_seen src (Engine.now t.engine);
    match proto with
  | Wire.Data data ->
    (* the transport-level sender (origin or PC forwarder), as a rank in the
       current view; -1 for replays and senders outside the view *)
    let src_rank =
      if src >= 0 && Group.mem t.view src then Group.rank_of_exn t.view src
      else -1
    in
    on_data t ~src_rank data
  | Wire.Pc_ping { view_id; from_rank } ->
    if view_id > t.view.Group.view_id then
      t.future_proto <- (view_id, proto) :: t.future_proto
    else if view_id = t.view.Group.view_id then (
      match t.pc with
      | Some pc ->
        let stats = Pc_causal.stats pc in
        stats.Pc_causal.pongs_sent <- stats.Pc_causal.pongs_sent + 1;
        t.metrics.Metrics.control_messages <-
          t.metrics.Metrics.control_messages + 1;
        Endpoint.send_proto (endpoint t) ~group:t.shared.group_id
          ~dst:(Group.member t.view from_rank)
          (Wire.Pc_pong
             { view_id; from_rank = t.rank;
               delivered = Vector_clock.copy t.vc })
      | None -> ())
  | Wire.Pc_pong { view_id; from_rank; delivered } ->
    if view_id > t.view.Group.view_id then
      t.future_proto <- (view_id, proto) :: t.future_proto
    else if view_id = t.view.Group.view_id then (
      match t.pc with
      | Some pc when not (Pc_causal.link_open pc ~peer_rank:from_rank) ->
        Pc_causal.open_link pc ~peer_rank:from_rank;
        (* open_link is a no-op for a non-neighbor; re-check before
           retransmitting anything *)
        if Pc_causal.link_open pc ~peer_rank:from_rank then begin
          (* Start the fresh link FIFO-causal: resend exactly the messages
             the peer's delivered-counts say it lacks, in stamping order
             (causally consistent under both msg-id schemes). The unstable
             buffer is a complete source — anything the peer is missing
             cannot have stabilised, since stability requires delivery by
             every member including the peer. *)
          let missing, copy_counter, hop_kind =
            match t.hybrid with
            | Some h ->
              (* hybrid: the per-link park buffer holds exactly what this
                 link withheld, filtered by the pong's delivered vector —
                 no unstable-buffer rescan *)
              ( Hybrid_causal.drain h ~peer:from_rank ~delivered,
                t.cells.drain_copies, Repro_obs.Event.Drain_copy )
            | None ->
              ( Pc_causal.missing_for ~delivered
                  (Stability.unstable t.stability),
                t.cells.resend_copies, Repro_obs.Event.Resend_copy )
          in
          let stats = Pc_causal.stats pc in
          stats.Pc_causal.barrier_retransmits <-
            stats.Pc_causal.barrier_retransmits + List.length missing;
          let dst = Group.member t.view from_rank in
          List.iter
            (fun d ->
              Repro_obs.Registry.incr copy_counter;
              note_hop_send t ~uid:d.Wire.msg_id ~dst hop_kind;
              Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst
                (Wire.Data d))
            missing
        end
      | Some _ | None -> ())
  | Wire.Seq_order { view_id; msg_id; global_seq } ->
    if view_id > t.view.Group.view_id then
      t.future_proto <- (view_id, proto) :: t.future_proto
    else if view_id = t.view.Group.view_id then begin
      Total_order.Sequencer_queue.add_order t.seq_queue ~msg_id ~global_seq;
      release_total_queues t
    end
  | Wire.Gossip { view_id; rank; vc; lamport } ->
    on_gossip t ~view_id ~rank ~vc ~lamport
  | Wire.Flush { new_view_id; survivors; unstable; orders } ->
    on_flush t ~src ~new_view_id ~survivors ~unstable ~orders
  | Wire.Flush_done { new_view_id; from } -> on_flush_done t ~new_view_id ~from
  | Wire.New_view { view_id; members } -> on_new_view t ~view_id ~members
  | Wire.Join_request { joiner } -> on_join_request t ~joiner
  | Wire.State_transfer { view_id; state } -> on_state_transfer t ~view_id ~state
  end

let create ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
    ~view ~self ~callbacks () =
  let rank = Group.rank_of_exn view self in
  let parallel_ids =
    match Engine.impl engine with
    | Engine.Sequential -> false
    | Engine.Parallel _ ->
      (* cross-member mutable state the lanes would race on: the shared
         causal graph (and its id index) and the group telemetry log *)
      if config.Config.track_graph then
        invalid_arg "Stack.create: track_graph needs the sequential engine";
      (match shared.obs with
       | Some log when not (Repro_obs.Log.synchronized log) ->
         (* a mutex-guarded log is lane-safe: record order is scheduler-
            dependent but the record set is not, so sorted consumers
            (trace trees, watchdogs, fingerprints) stay deterministic *)
         invalid_arg
           "Stack.create: group telemetry under the parallel engine needs \
            Log.create ~synchronized:true"
       | Some _ | None -> ());
      if self >= msg_id_pid_limit then
        invalid_arg "Stack.create: pid too large for parallel msg_ids";
      true
  in
  let metrics = Metrics.create () in
  let cells = make_reg_cells config in
  let obs = obs_pair shared ~self in
  let codec =
    match (config.Config.wire_format, payload_codec) with
    | Config.Structural, _ -> None
    | Config.Encoded, Some pc -> Some (Wire_codec.create pc)
    | Config.Encoded, None ->
      invalid_arg "Stack.create: Encoded wire format needs ~payload_codec"
  in
  let bytes_of = Option.map (fun c -> Wire_codec.data_bytes c) codec in
  let t =
    { engine; shared; config; self; callbacks; metrics; cells; bytes_of;
      parallel_ids; own_msg_seq = 0;
      lamport = Lamport.create (); delivered_ids = Hashtbl.create 256;
      causal_seen = Hashtbl.create 256;
      endpoint = None; view; rank;
      vc = Vector_clock.create (Group.size view);
      pc = None;
      hybrid = None;
      queue = make_queue ?obs config;
      seq_queue = Total_order.Sequencer_queue.create ?obs ();
      lamport_queue =
        Total_order.Lamport_queue.create ?obs ~group_size:(Group.size view) ();
      stability =
        make_stability ?obs ?bytes_of ~registry:cells.registry config
          ~group_size:(Group.size view) ~metrics ~graph:shared.graph;
      next_global_seq = 0; status = Normal; outbox = []; installing = false;
      failed_members = Pid_set.empty; deferred_lamport_gossip = [];
      future_proto = [];
      replay_proto = (fun _ -> ()); pending_joins = [];
      trigger_pending_joins = (fun () -> ());
      get_state = (fun () -> ""); set_state = (fun _ -> ());
      cancel_gossip = (fun () -> ()); ejected = false;
      eject = (fun () -> ()); last_seen = Hashtbl.create 16 }
  in
  let endpoint =
    match shared_endpoint with
    | Some e -> e
    | None ->
      let framing =
        Option.map
          (fun c ->
            { Transport.frame = Wire_codec.encode c;
              unframe = Wire_codec.decode c })
          codec
      in
      Endpoint.create ?obs:shared.obs ~registry:cells.registry ?framing
        ~batch_window:config.Config.batch_window ~engine ~self
        ~mode:config.Config.transport
        ~on_direct:(fun ~src payload -> t.callbacks.direct ~src payload)
        ()
  in
  Endpoint.register_group endpoint ~group:shared.group_id (fun ~src proto ->
      handle_proto t ~src proto);
  t.endpoint <- Some endpoint;
  (* every initial member is "carried over": links start open, no barrier *)
  reset_pc t ~prev_members:(Pid_set.of_list (Array.to_list view.Group.members));
  t.cancel_gossip <-
    Engine.every engine ~owner:self ~period:config.Config.gossip_period
      (fun () -> send_gossip t);
  t.replay_proto <- (fun proto -> handle_proto t ~src:(-1) proto);
  t.eject <-
    (fun () ->
      if not t.ejected then begin
        t.ejected <- true;
        t.cancel_gossip ();
        (* the application learns it was expelled through its own failure
           notification; it may re-join with a fresh stack *)
        t.callbacks.member_failed t.self
      end);
  t.trigger_pending_joins <-
    (fun () ->
      match t.status with
      | Normal
        when t.pending_joins <> [] && t.self = Group.coordinator t.view ->
        start_view_change t ~failed:None ~joined:[]
      | Normal | Flushing _ | Joining _ -> ());
  (match config.Config.failure_detection with
   | Config.Oracle ->
     Engine.on_failure engine (fun pid ->
         if Engine.is_alive engine self && Group.mem t.view pid && pid <> self
         then start_view_change t ~failed:(Some pid) ~joined:[])
   | Config.Heartbeat { period; timeout } ->
     (* the stability gossip doubles as the heartbeat; a peer silent past
        the timeout is suspected. Detection is per-observer: peers learn of
        the round from the Flush message and adopt its survivor set. *)
     let created_at = Engine.now engine in
     let check () =
       if (not t.ejected) && Engine.is_alive engine self then begin
         let now = Engine.now engine in
         Array.iter
           (fun peer ->
             if peer <> self && not (Pid_set.mem peer t.failed_members) then begin
               let last =
                 Option.value ~default:created_at
                   (Hashtbl.find_opt t.last_seen peer)
               in
               if Sim_time.sub now last > timeout then
                 start_view_change t ~failed:(Some peer) ~joined:[]
             end)
           t.view.Group.members
       end
     in
     let (_cancel : unit -> unit) =
       Engine.every engine ~owner:self ~period check
     in
     ());
  t

let set_state_handlers t ~get ~set =
  t.get_state <- get;
  t.set_state <- set

let join ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
    ~self ~contact ~callbacks () =
  let placeholder = Group.make_view ~view_id:(-1) [ self ] in
  let t =
    create ?endpoint:shared_endpoint ?payload_codec ~engine ~shared ~config
      ~view:placeholder ~self ~callbacks ()
  in
  let join_state = { pending_view = None; pending_state = None } in
  t.status <- Joining join_state;
  let request () =
    Endpoint.send_proto (endpoint t) ~group:t.shared.group_id ~dst:contact (Wire.Join_request { joiner = self })
  in
  request ();
  (* retry until admitted: the contact (or the join round) may fail *)
  let rec retry () =
    match t.status with
    | Joining _ ->
      request ();
      Engine.after engine ~owner:self (Sim_time.ms 500) retry
    | Normal | Flushing _ -> ()
  in
  Engine.after engine ~owner:self (Sim_time.ms 500) retry;
  t

let shutdown t =
  t.cancel_gossip ();
  t.callbacks <- null_callbacks

let create_group ?obs ?payload_codec ~engine ~config ~names ~make_callbacks () =
  let pids =
    List.map (fun n -> Engine.spawn engine ~name:n (fun _ _ -> ())) names
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = make_shared ?obs config in
  List.map
    (fun pid ->
      create ?payload_codec ~engine ~shared ~config ~view ~self:pid
        ~callbacks:(make_callbacks pid) ())
    pids
