(* One simulation of one benchmark workload per process.

   perfbench/run.py drives this executable: it starts a fresh process per
   repetition (so allocation and heap figures are those of a fresh
   process), checks the fingerprints and aggregates the repetitions. Each
   process prints one JSON object on its last stdout line.

     catocs_bench.exe --workload NAME --seed N --mode untraced|stack|traced
       [--domains D]

   Modes:
   - untraced: the end-to-end run. The benchmark builds each member's
     Endpoint itself; on Encoded workloads its framing only counts frame
     bytes. It also times the host-speed reference (see reference_slice).
   - stack: the same simulation with the Endpoint built by Stack.create
     and nothing of the benchmark's inside the stack, on the workload's
     widest engine (2 domains on pc-tree-n256-encoded). Its fingerprint
     must equal the other modes'; it also measures the words a run retains
     and the engine's CPU/wall ratio.
   - traced: the per-layer run. Spans around Stack.multicast, the codec
     calls (through the benchmark's framing) and the deliver callback;
     registry snapshot, queue gauges sampled by a benchmark timer, and
     micro-benchmarks of the delivery queue, the stability tracker and the
     engine event loop.

   Only the public Engine / Stack / Endpoint API is used; nothing under
   lib/ knows about the benchmark. *)

open Repro_catocs
module Delivery_check = Perfbench_check.Delivery_check
module Registry = Repro_obs.Registry
module Event = Repro_obs.Event

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  members : int;
  config : Config.t;
  engine_impl : Engine.impl;  (* untraced and traced modes *)
  wide_impl : Engine.impl;  (* stack mode: the same schedule on more domains *)
  drop : float;
  horizon : Sim_time.t;  (* last multicast is due before this *)
  drain : Sim_time.t;  (* run continues this long after the horizon *)
  causal_check : bool;  (* traced run checks causal order *)
  total_check : bool;  (* traced run checks one delivery sequence *)
}

let send_period = Sim_time.ms 10
let sample_period = Sim_time.ms 10
let latency = Net.Uniform (Sim_time.us 500, Sim_time.ms 5)

(* the graph of Section 5 is a measurement aid the parallel engine
   rejects; it is off everywhere so the three workloads run the same
   protocol code *)
let base = { Config.default with Config.track_graph = false }

let workloads =
  [ { name = "bss-mesh-n64"; members = 64;
      config = { base with Config.ordering = Config.Causal };
      engine_impl = Engine.Sequential; wide_impl = Engine.Sequential;
      drop = 0.; horizon = Sim_time.ms 150; drain = Sim_time.ms 150;
      causal_check = true; total_check = false };
    { name = "pc-tree-n256-encoded"; members = 256;
      config =
        Config.with_causal_impl Config.Pc_causal
          { base with
            Config.ordering = Config.Causal;
            pc_overlay = Config.Pc_tree { fanout = 8 };
            stability_clock = Config.Sparse_clock;
            wire_format = Config.Encoded;
            batch_window = Sim_time.ms 1;
            gossip_period = Sim_time.ms 50 };
      engine_impl = Engine.Parallel { domains = 1 };
      wide_impl = Engine.Parallel { domains = 2 };
      drop = 0.; horizon = Sim_time.ms 20; drain = Sim_time.ms 45;
      causal_check = true; total_check = false };
    { name = "abcast-lossy-n32"; members = 32;
      config =
        { base with
          Config.ordering = Config.Total_sequencer;
          transport =
            Config.Reliable { rto = Sim_time.ms 20; max_retries = 1_000 } };
      engine_impl = Engine.Sequential; wide_impl = Engine.Sequential;
      drop = 0.05; horizon = Sim_time.ms 500; drain = Sim_time.ms 300;
      causal_check = false; total_check = true } ]

(* staggered starts as in Scaling.measure_with_graph, folded into one send
   period so that every member of a large group sends from the start *)
let start_of i = Sim_time.us (1_000 + (i * 137 mod 10_000))

let due_of ~sender ~seq = start_of sender + (seq * send_period)

let planned w =
  Array.init w.members (fun i ->
      let s = start_of i in
      if s >= w.horizon then 0
      else (w.horizon - s + send_period - 1) / send_period)

(* payload = (sender, seq) packed into one int, so the deliver callback
   can check order and time the delivery *)
let payload_of ~sender ~seq = (sender lsl 20) lor seq

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* nearest-rank percentile of a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let latency_histogram sorted =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  let n = Array.length sorted in
  let i = ref 0 in
  while !i < n do
    let v = sorted.(!i) in
    let j = ref !i in
    while !j < n && sorted.(!j) = v do
      incr j
    done;
    if !i > 0 then Buffer.add_char b ',';
    Printf.bprintf b "[%d,%d]" v (!j - !i);
    i := !j
  done;
  Buffer.add_char b ']';
  Buffer.contents b

let median_of_runs rounds f =
  let xs = Array.init rounds (fun _ -> f ()) in
  Array.sort Float.compare xs;
  xs.(rounds / 2)

let sum = Array.fold_left ( + ) 0
let fsum = Array.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* Host-speed reference. The host's speed drifts by tens of percent within
   seconds and over minutes, and it moves every simulation's time with it.
   So the untraced run also times a fixed loop, in slices spread evenly
   over the simulated run; run.py scales the run's rates by the slices'
   time. A slice reads and rewrites 2^17 consecutive ints of a 2 MB region
   (cache-resident, like the minor heap) and 2^17 more of a 64 MB region
   (memory-bound, like the major heap). The loop calls no code of the
   repository and allocates nothing on the OCaml heap (the regions are one
   Bigarray), so the program's own heap and GC do not change its time.
   Its time is taken out of the run's. *)
let ref_slices = 256
let ref_cache_words = 1 lsl 18
let ref_words = 1 lsl 23
let ref_step = 1 lsl 17

type reference = {
  region : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable pos : int;  (* where the next memory-bound stretch starts *)
  mutable wall_ns : int;
  mutable cpu_s : float;
}

let make_reference () =
  let region = Bigarray.(Array1.create int c_layout ref_words) in
  (* touch every page before anything is timed *)
  Bigarray.Array1.fill region 0;
  { region; pos = 0; wall_ns = 0; cpu_s = 0. }

let reference_slice r =
  let c0 = Sys.time () in
  let t0 = now_ns () in
  let a = r.region in
  let acc = ref 0 in
  for k = 0 to ref_step - 1 do
    let i = k land (ref_cache_words - 1) in
    let v = Bigarray.Array1.unsafe_get a i in
    acc := !acc + v;
    Bigarray.Array1.unsafe_set a i (v + 1)
  done;
  for k = r.pos to r.pos + ref_step - 1 do
    let i = k land (ref_words - 1) in
    let v = Bigarray.Array1.unsafe_get a i in
    acc := !acc + v;
    Bigarray.Array1.unsafe_set a i (v + 1)
  done;
  ignore (Sys.opaque_identity !acc);
  r.pos <- (r.pos + ref_step) land (ref_words - 1);
  r.wall_ns <- r.wall_ns + (now_ns () - t0);
  r.cpu_s <- r.cpu_s +. (Sys.time () -. c0)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks for the layer budget (traced mode only)            *)
(* ------------------------------------------------------------------ *)

let mk_data ~id ~rank ~vt ~meta =
  { Wire.msg_id = id; trace_id = id; origin = rank; sender_rank = rank;
    view_id = 0; vt; meta; payload = 0; payload_bytes = 256;
    sent_at = Sim_time.zero; piggyback = [] }

(* add + take of one deliverable message on a queue that also holds
   [depth] messages that never become deliverable (a per-sender gap) *)
let dq_add_take_ns ~mode ~meta ~senders ~depth =
  let q = Delivery_queue.create mode in
  let local = Vector_clock.create senders in
  let gaps = Array.make senders 0 in
  for i = 0 to depth - 1 do
    let rank = if senders > 1 then 1 + (i mod (senders - 1)) else 0 in
    let vt = Vector_clock.create senders in
    Vector_clock.set vt rank (2 + gaps.(rank));
    gaps.(rank) <- gaps.(rank) + 1;
    Delivery_queue.add q
      { Delivery_queue.data = mk_data ~id:i ~rank ~vt ~meta;
        arrived_at = Sim_time.zero }
  done;
  (* one message, re-stamped each time it has been taken: the queue holds
     it only between the add and the take *)
  let vt = Vector_clock.create senders in
  let msg =
    { Delivery_queue.data = mk_data ~id:depth ~rank:0 ~vt ~meta;
      arrived_at = Sim_time.zero }
  in
  let iters = 100_000 in
  median_of_runs 5 (fun () ->
      let t0 = now_ns () in
      for _ = 1 to iters do
        let s = Vector_clock.get local 0 + 1 in
        Vector_clock.set vt 0 s;
        Delivery_queue.add q msg;
        match Delivery_queue.take_deliverable q ~local with
        | Some _ -> Vector_clock.set local 0 s
        | None -> failwith "perfbench: queue micro message not deliverable"
      done;
      float (now_ns () - t0) /. float iters)

(* The stability tracker at the workload's group size and clock. Each
   round delivers one message from the next sender (the note and the
   self_observe_cell a delivery makes: the per-delivery cost), then
   observes every member's gossip vector (the per-gossip cost). [sparse]
   stamps carry only the sender's component, as PC-broadcast's do, and
   take the stack's diagonal path. Returns (ns per delivery, ns per
   observe_vc). *)
let stability_ns ~clock ~sparse ~members =
  let metrics = Metrics.create () in
  let st =
    Stability.create ~clock ~group_size:members ~metrics ~graph:None ()
  in
  let local = Vector_clock.create members in
  let id = ref 0 in
  let rounds = max 10 (20_000 / members) in
  let note_ns = ref [] in
  let observe =
    median_of_runs 5 (fun () ->
        let noting = ref 0 and observing = ref 0 in
        for _ = 1 to rounds do
          incr id;
          let sender = !id mod members in
          let seq = Vector_clock.get local sender + 1 in
          Vector_clock.set local sender seq;
          let vt =
            if sparse then begin
              let vt = Vector_clock.create members in
              Vector_clock.set vt sender seq;
              vt
            end
            else Vector_clock.copy local
          in
          let data =
            mk_data ~id:!id ~rank:sender ~vt
              ~meta:
                (if sparse then Wire.Pc_meta { origin_seq = seq }
                 else Wire.Causal_meta)
          in
          let gossip = Array.init members (fun _ -> Vector_clock.copy local) in
          let t0 = now_ns () in
          if sparse then Stability.note_delivered_diag st data
          else Stability.note_sent_or_delivered st data;
          Stability.self_observe_cell st ~rank:0 ~col:sender ~seq
            ~now:Sim_time.zero;
          let t1 = now_ns () in
          Array.iteri
            (fun r vc -> Stability.observe_vc st ~rank:r ~now:Sim_time.zero vc)
            gossip;
          noting := !noting + (t1 - t0);
          observing := !observing + (now_ns () - t1)
        done;
        note_ns := (float !noting /. float rounds) :: !note_ns;
        float !observing /. float (rounds * members))
  in
  let notes = Array.of_list !note_ns in
  Array.sort Float.compare notes;
  (notes.(Array.length notes / 2), observe)

(* one engine event with null handlers: Engine.send plus its share of
   Engine.run, on the workload's network model, with [in_flight] events
   queued at a time (about what the workload keeps in the event heap) *)
let engine_event_ns ~in_flight =
  let net = Net.create ~latency () in
  let e : int Engine.t = Engine.create ~seed:1L ~net () in
  let a = Engine.spawn e ~name:"a" (fun _ _ -> ()) in
  let b = Engine.spawn e ~name:"b" (fun _ _ -> ()) in
  let batches = max 1 (200_000 / in_flight) in
  median_of_runs 5 (fun () ->
      let t0 = now_ns () in
      for _ = 1 to batches do
        for i = 1 to in_flight do
          Engine.send e ~src:a ~dst:b i
        done;
        Engine.run e
      done;
      float (now_ns () - t0) /. float (batches * in_flight))

(* ------------------------------------------------------------------ *)
(* One simulation                                                      *)
(* ------------------------------------------------------------------ *)

type mode = Untraced | Stack_built | Traced

(* per-member accumulators; each slot is written only by its member's
   lane, so the parallel engine needs no synchronisation here *)
type spans = {
  mc_ns : int array;  (* Stack.multicast, children included *)
  mc_inner_ns : int array;  (* codec and callback time inside it *)
  mc_words : float array;
  cb_ns : int array;  (* deliver callbacks *)
  sampler_ns : int array;
  enc_ns : int array;
  dec_ns : int array;
  enc_frames : int array;
  dec_frames : int array;
  frame_bytes : int array;
  codec_words : float array;
}

let make_spans n =
  { mc_ns = Array.make n 0; mc_inner_ns = Array.make n 0;
    mc_words = Array.make n 0.; cb_ns = Array.make n 0;
    sampler_ns = Array.make n 0; enc_ns = Array.make n 0;
    dec_ns = Array.make n 0; enc_frames = Array.make n 0;
    dec_frames = Array.make n 0; frame_bytes = Array.make n 0;
    codec_words = Array.make n 0. }

let framing ~traced sp i codec =
  if traced then
    { Transport.frame =
        (fun w ->
          let a = Gc.minor_words () in
          let t0 = now_ns () in
          let s = Wire_codec.encode codec w in
          sp.enc_ns.(i) <- sp.enc_ns.(i) + (now_ns () - t0);
          sp.codec_words.(i) <- sp.codec_words.(i) +. (Gc.minor_words () -. a);
          sp.enc_frames.(i) <- sp.enc_frames.(i) + 1;
          sp.frame_bytes.(i) <- sp.frame_bytes.(i) + String.length s;
          s);
      unframe =
        (fun s ->
          let a = Gc.minor_words () in
          let t0 = now_ns () in
          let w = Wire_codec.decode codec s in
          sp.dec_ns.(i) <- sp.dec_ns.(i) + (now_ns () - t0);
          sp.codec_words.(i) <- sp.codec_words.(i) +. (Gc.minor_words () -. a);
          sp.dec_frames.(i) <- sp.dec_frames.(i) + 1;
          w) }
  else
    { Transport.frame =
        (fun w ->
          let s = Wire_codec.encode codec w in
          sp.frame_bytes.(i) <- sp.frame_bytes.(i) + String.length s;
          s);
      unframe = Wire_codec.decode codec }

let json_fields fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           let v =
             match v with
             | `S s -> Printf.sprintf "%S" s
             | `I i -> string_of_int i
             | `F f ->
               if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
             | `Raw r -> r
           in
           Printf.sprintf "%S: %s" k v)
         fields)
  ^ "}"

let run w ~seed ~mode ~impl =
  let n = w.members in
  let traced = mode = Traced in
  let sequential = impl = Engine.Sequential in
  let config = { w.config with Config.metrics = traced } in
  let plan = planned w in
  let multicasts = sum plan in
  let check =
    Delivery_check.create ~members:n ~planned:plan
      ~causal:(traced && w.causal_check) ~total:(traced && w.total_check)
  in
  let lat = Array.init n (fun _ -> Array.make multicasts 0) in
  let lat_len = Array.make n 0 in
  let sp = make_spans n in
  let peak_unstable = Array.make n 0 in
  (* traced gauge samples: depth sum, depth peak, blocked sum,
     total-order pending sum, sample count *)
  let g_depth = Array.make n 0 and g_peak = Array.make n 0 in
  let g_blocked = Array.make n 0 and g_total = Array.make n 0 in
  let g_count = Array.make n 0 in
  let obs =
    (* the lifecycle log, for ordering waits; the parallel engine needs the
       mutex-guarded kind *)
    if traced then
      Some
        (Repro_obs.Log.create ~cap:(1 lsl 23)
           ~synchronized:(not sequential) ())
    else None
  in
  (* only a single-threaded run stops while a slice runs, so only there
     does taking the slices' time out leave the run's *)
  let reference =
    match (mode, impl) with
    | Untraced, (Engine.Sequential | Engine.Parallel { domains = 1 }) ->
      Some (make_reference ())
    | _ -> None
  in
  let setup_t0 = now_ns () in
  let net = Net.create ~latency ~drop_probability:w.drop () in
  let engine = Engine.create ~impl ~seed:(Int64.of_int seed) ~net () in
  let pids =
    List.init n (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Group.make_view ~view_id:0 pids in
  let shared = Stack.make_shared ~group_id:0 ?obs config in
  let payload_codec =
    match config.Config.wire_format with
    | Config.Encoded -> Some Wire_codec.int_payload
    | Config.Structural -> None
  in
  let deliver member ~sender:_ payload =
    let t0 = if traced then now_ns () else 0 in
    let sender = payload lsr 20 and seq = payload land 0xfffff in
    Delivery_check.note_deliver check ~member ~sender ~seq;
    let k = lat_len.(member) in
    if k < multicasts then begin
      lat.(member).(k) <- Engine.now engine - due_of ~sender ~seq;
      lat_len.(member) <- k + 1
    end;
    if traced then sp.cb_ns.(member) <- sp.cb_ns.(member) + (now_ns () - t0)
  in
  let endpoint_regs =
    Array.init n (fun _ -> Registry.create ~enabled:traced ())
  in
  let endpoints = Array.make n None in
  let create_ns = ref 0 in
  let stacks =
    Array.of_list
      (List.map
         (fun pid ->
           let endpoint =
             match mode with
             | Stack_built -> None
             | Untraced | Traced ->
               let framing =
                 Option.map
                   (fun pc -> framing ~traced sp pid (Wire_codec.create pc))
                   payload_codec
               in
               let e =
                 Endpoint.create ?obs ~registry:endpoint_regs.(pid) ?framing
                   ~batch_window:config.Config.batch_window ~engine ~self:pid
                   ~mode:config.Config.transport ()
               in
               endpoints.(pid) <- Some e;
               Some e
           in
           let callbacks =
             { Stack.null_callbacks with deliver = deliver pid }
           in
           let t0 = now_ns () in
           let s =
             Stack.create ?endpoint ?payload_codec ~engine ~shared ~config
               ~view ~self:pid ~callbacks ()
           in
           create_ns := !create_ns + (now_ns () - t0);
           s)
         pids)
  in
  let setup_s = float (now_ns () - setup_t0) /. 1e9 in
  (* load: every member multicasts once per send period from its start
     until the horizon (an open loop in simulated time) *)
  Array.iteri
    (fun i stack ->
      let seq = ref 0 in
      let cancel = ref ignore in
      cancel :=
        Engine.every engine ~owner:i ~start:(start_of i) ~period:send_period
          (fun () ->
            if !seq >= plan.(i) then !cancel ()
            else begin
              let k = !seq in
              seq := k + 1;
              Delivery_check.note_send check ~sender:i ~seq:k;
              let payload = payload_of ~sender:i ~seq:k in
              if traced then begin
                let inner0 = sp.enc_ns.(i) + sp.dec_ns.(i) + sp.cb_ns.(i) in
                let a = Gc.minor_words () in
                let t0 = now_ns () in
                Stack.multicast stack payload;
                sp.mc_ns.(i) <- sp.mc_ns.(i) + (now_ns () - t0);
                sp.mc_words.(i) <- sp.mc_words.(i) +. (Gc.minor_words () -. a);
                sp.mc_inner_ns.(i) <-
                  sp.mc_inner_ns.(i)
                  + (sp.enc_ns.(i) + sp.dec_ns.(i) + sp.cb_ns.(i) - inner0)
              end
              else Stack.multicast stack payload
            end))
    stacks;
  (* per-member samplers, owned by the member so they run on its lane *)
  let gauge_cells =
    Array.map
      (fun s ->
        let r = Stack.registry s in
        ( Registry.gauge r ~layer:Event.Ordering ~name:"queue_depth" (),
          Registry.gauge r ~layer:Event.Ordering ~name:"blocked_msgs" () ))
      stacks
  in
  Array.iteri
    (fun i s ->
      ignore
        (Engine.every engine ~owner:i ~start:(Sim_time.ms 5)
           ~period:sample_period (fun () ->
             let t0 = if traced then now_ns () else 0 in
             peak_unstable.(i) <-
               max peak_unstable.(i) (Stack.unstable_bytes s);
             if traced then begin
               Stack.record_gauges s;
               let qd, bl = gauge_cells.(i) in
               let depth = Registry.gauge_value qd in
               let blocked = Registry.gauge_value bl in
               g_depth.(i) <- g_depth.(i) + depth;
               g_peak.(i) <- max g_peak.(i) depth;
               g_blocked.(i) <- g_blocked.(i) + blocked;
               g_total.(i) <- g_total.(i) + (Stack.pending_count s - depth);
               g_count.(i) <- g_count.(i) + 1;
               sp.sampler_ns.(i) <- sp.sampler_ns.(i) + (now_ns () - t0)
             end)
          : unit -> unit))
    stacks;
  (* the reference timer runs in every mode, so that every mode runs the
     same schedule; only the untraced run executes the slices *)
  ignore
    (Engine.every engine ~owner:0
       ~start:(Sim_time.add w.horizon w.drain / (2 * ref_slices))
       ~period:(Sim_time.add w.horizon w.drain / ref_slices)
       (fun () -> Option.iter reference_slice reference)
      : unit -> unit);
  let live_setup = if mode = Stack_built then live_words () else 0 in
  let words0 = alloc_words () in
  let cpu0 = Sys.time () in
  let t0 = now_ns () in
  Engine.run ~until:(Sim_time.add w.horizon w.drain) engine;
  let run_ns = now_ns () - t0 in
  let run_cpu = Sys.time () -. cpu0 in
  let ref_ns, ref_cpu =
    match reference with Some r -> (r.wall_ns, r.cpu_s) | None -> (0, 0.)
  in
  let run_ns = run_ns - ref_ns in
  let run_cpu = run_cpu -. ref_cpu in
  let run_words = alloc_words () -. words0 in
  let result = Delivery_check.finish check in
  let deliveries = result.Delivery_check.delivered in
  let fdel = float (max 1 deliveries) in
  let all_lat =
    Array.concat
      (Array.to_list (Array.mapi (fun i a -> Array.sub a 0 lat_len.(i)) lat))
  in
  Array.sort Int.compare all_lat;
  let metrics = Array.map Stack.metrics stacks in
  let wire_bytes =
    match config.Config.wire_format with
    | Config.Encoded -> sum sp.frame_bytes
    | Config.Structural ->
      (* the stack's structural byte model: ordering headers of every data
         copy (Metrics.header_bytes) plus their payload bytes *)
      Array.fold_left
        (fun acc m ->
          acc + m.Metrics.header_bytes
          + (m.Metrics.multicasts_sent * (n - 1) * config.Config.payload_bytes))
        0 metrics
  in
  let packets =
    Array.fold_left
      (fun acc e ->
        match e with Some e -> acc + Endpoint.packets_sent e | None -> acc)
      0 endpoints
  in
  let common =
    [ ("workload", `S w.name);
      ("mode",
       `S
         (match mode with
          | Untraced -> "untraced"
          | Stack_built -> "stack"
          | Traced -> "traced"));
      ("domains",
       `I
         (match impl with
          | Engine.Sequential -> 0
          | Engine.Parallel { domains } -> domains));
      ("members", `I n); ("multicasts", `I multicasts);
      ("deliveries", `I deliveries);
      ("expected", `I result.Delivery_check.expected);
      ("failed", `I result.Delivery_check.failed);
      ("duplicates", `I result.Delivery_check.duplicates);
      ("fifo", `I result.Delivery_check.fifo);
      ("causal", `I result.Delivery_check.causal);
      ("missing", `I result.Delivery_check.missing);
      ("unknown", `I result.Delivery_check.unknown);
      ("total_order", `I result.Delivery_check.total_order);
      ("fingerprint", `S result.Delivery_check.fingerprint);
      ("setup_s", `F setup_s);
      ("run_wall_s", `F (float run_ns /. 1e9));
      ("run_cpu_s", `F run_cpu);
      ("reference_s", `F (float ref_ns /. 1e9));
      ("reference_cpu_s", `F ref_cpu);
      ("alloc_words", `F run_words);
      ("wire_bytes", `I wire_bytes);
      ("lat_p50_us", `I (percentile all_lat 0.5));
      ("lat_p999_us", `I (percentile all_lat 0.999));
      ("lat_count", `I (Array.length all_lat));
      (* [[latency_us, count], ...], so run.py can pool the percentiles of
         several seeds exactly *)
      ("lat_hist", `Raw (latency_histogram all_lat));
      ("peak_unstable_bytes", `I (Array.fold_left max 0 peak_unstable)) ]
  in
  let extra =
    match mode with
    | Untraced -> []
    | Stack_built ->
      let live_run = live_words () in
      (* the group must still be reachable when the live words are counted *)
      ignore (Sys.opaque_identity (engine, stacks));
      [ ("retained_words", `I (live_run - live_setup)) ]
    | Traced ->
      let snap =
        Registry.merge_all
          (Array.to_list
             (Array.map (fun s -> Registry.snapshot (Stack.registry s)) stacks)
          @ Array.to_list (Array.map Registry.snapshot endpoint_regs))
      in
      let counter layer name =
        float (Registry.counter_total snap ~layer ~name)
      in
      let histo_p layer name q =
        match Registry.histo snap ~layer ~name with
        | Some h -> Repro_obs.Histo.percentile h q
        | None -> 0.
      in
      let per_delivery x = x /. fdel in
      let wait_p99_ms =
        match obs with
        | None -> 0.
        | Some log ->
          let waits =
            List.filter_map Repro_obs.Span.ordering_wait_us
              (Repro_obs.Span.of_log log)
            |> Array.of_list
          in
          Array.sort Int.compare waits;
          float (percentile waits 0.99) /. 1e3
      in
      let samples = float (max 1 (sum g_count)) in
      let depth_mean = float (sum g_depth) /. samples in
      let enc_frames = float (sum sp.enc_frames) in
      let codec_total = sum sp.enc_ns + sum sp.dec_ns in
      let mc_total = sum sp.mc_ns and mc_inner = sum sp.mc_inner_ns in
      let cb_total = sum sp.cb_ns in
      (* Engine.run minus every span the benchmark timed inside it: the
         multicast timers (children included), codec calls outside them,
         deliver callbacks outside them and the samplers *)
      let recv_self_ns =
        float
          (run_ns - mc_total - (codec_total + cb_total - mc_inner)
           - sum sp.sampler_ns)
        /. fdel
      in
      let gossip = counter Event.Stability "gossip_msgs" in
      let dq_mode, dq_meta =
        if Config.pc_active config then
          (Delivery_queue.Fifo_gap, Wire.Pc_meta { origin_seq = 0 })
        else (Delivery_queue.Causal_full, Wire.Causal_meta)
      in
      let add_take =
        dq_add_take_ns ~mode:dq_mode ~meta:dq_meta ~senders:n
          ~depth:(int_of_float (Float.round depth_mean))
      in
      let clock =
        match config.Config.stability_clock with
        | Config.Dense_clock -> Group_clock.Dense
        | Config.Sparse_clock -> Group_clock.Sparse
      in
      let note, observe =
        stability_ns ~clock ~sparse:(Config.pc_active config) ~members:n
      in
      let event = engine_event_ns ~in_flight:(n * n) in
      let events = float (Engine.messages_delivered engine) in
      (* each delivery from another member passes one add and one
         successful take; each delivery is one stability note; each gossip
         message received is one observe *)
      let predicted =
        (event *. per_delivery events)
        +. (add_take *. float (n - 1) /. float n)
        +. note
        +. (observe *. per_delivery gossip)
      in
      let link_sends = counter Event.Transport "link_sends" in
      [ ("engine.events_per_delivery", `F (per_delivery events));
        ("engine.recv_self_ns_per_delivery", `F recv_self_ns);
        ("net.drops_per_delivery",
         `F (per_delivery (float (Engine.messages_dropped engine))));
        ("transport.packets_per_delivery", `F (per_delivery (float packets)));
        ("transport.link_sends_per_delivery", `F (per_delivery link_sends));
        ("transport.coalesce_ratio",
         `F (ratio (counter Event.Transport "packets") link_sends));
        ("wire_codec.frames_per_delivery", `F (per_delivery enc_frames));
        ("wire_codec.bytes_per_frame",
         `F (ratio (float (sum sp.frame_bytes)) enc_frames));
        ("wire_codec.encode_ns_per_frame",
         `F (ratio (float (sum sp.enc_ns)) enc_frames));
        ("wire_codec.decode_ns_per_frame",
         `F (ratio (float (sum sp.dec_ns)) (float (sum sp.dec_frames))));
        ("wire_codec.alloc_words_per_frame",
         `F (ratio (fsum sp.codec_words) enc_frames));
        ("stack.multicast_self_ns",
         `F (float (mc_total - mc_inner) /. float (max 1 multicasts)));
        ("stack.multicast_alloc_words",
         `F (fsum sp.mc_words /. float (max 1 multicasts)));
        ("stack.setup_us_per_member", `F (float !create_ns /. 1e3 /. float n));
        ("pc_causal.forward_copies_per_delivery",
         `F (per_delivery (counter Event.Ordering "forward_copies")));
        ("delivery_queue.depth_mean", `F depth_mean);
        ("delivery_queue.depth_peak",
         `F (float (Array.fold_left max 0 g_peak)));
        ("delivery_queue.blocked_mean", `F (float (sum g_blocked) /. samples));
        ("delivery_queue.add_take_ns", `F add_take);
        ("delivery_queue.ordering_wait_p99_ms", `F wait_p99_ms);
        ("stability.gossip_msgs_per_delivery", `F (per_delivery gossip));
        ("stability.minima_advances_per_delivery",
         `F (per_delivery (counter Event.Stability "minima_advances")));
        ("stability.observe_ns", `F observe);
        ("stability.note_delivered_ns", `F note);
        ("stability.lag_p99_ms",
         `F (histo_p Event.Stability "stability_lag_us" 0.99 /. 1e3));
        ("total_order.pending_mean", `F (float (sum g_total) /. samples));
        ("budget.engine_event_ns", `F event);
        ("budget.predicted_recv_ns_per_delivery", `F predicted);
        ("budget.remainder_pct",
         `F (100. *. ratio (recv_self_ns -. predicted) recv_self_ns)) ]
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  print_endline
    (json_fields (common @ extra @ [ ("top_heap_words", `I top_heap) ]))

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "untraced" in
  let domains = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N engine seed");
      ("--mode", Arg.Set_string mode, "untraced|stack|traced");
      ("--domains", Arg.Set_int domains,
       "D override the engine (0 = sequential, D>0 = D parallel domains)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "catocs_bench.exe --workload NAME --seed N --mode MODE";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("catocs_bench: unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let impl mode =
      if !domains = 0 then Engine.Sequential
      else if !domains > 0 then Engine.Parallel { domains = !domains }
      else if mode = Stack_built then w.wide_impl
      else w.engine_impl
    in
    let simulate mode = run w ~seed:!seed ~mode ~impl:(impl mode) in
    match !mode with
    | "untraced" -> simulate Untraced
    | "stack" -> simulate Stack_built
    | "traced" -> simulate Traced
    | m ->
      prerr_endline ("catocs_bench: unknown mode " ^ m);
      exit 2
