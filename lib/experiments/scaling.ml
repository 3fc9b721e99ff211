module Config = Repro_catocs.Config
module Stack = Repro_catocs.Stack
module Metrics = Repro_catocs.Metrics

type point = {
  group_size : int;
  peak_node_unstable_msgs : int;
  peak_node_unstable_bytes : int;
  system_unstable_bytes : int;
  peak_graph_nodes : int;
  peak_graph_arcs : int;
  mean_delivery_delay_us : float;
  mean_transit_us : float;  (* send -> deliver, including receiver queueing *)
  messages_total : int;
  deliveries_total : int;  (* engine-level deliveries, incl. control traffic *)
  app_deliveries_total : int;  (* application callbacks across the group *)
  header_bytes_total : int;  (* ordering metadata sent, summed over members *)
  (* registry-derived columns; zero / nan / [] unless [~metrics:true] *)
  forward_copies : int;
  suppressed_copies : int;
  parked_copies : int;
  drained_copies : int;
  encoded_wire_bytes : int;  (* real frame bytes (Encoded wire format only) *)
  wire_packets : int;  (* logical packets, incl. frames inside batches *)
  link_sends : int;  (* physical link events; packets/links = coalesce ratio *)
  delivery_p50_us : float;
  delivery_p99_us : float;
  delivery_p999_us : float;
  stability_lag_p50_us : float;
  stability_lag_p99_us : float;
  stability_lag_p999_us : float;
  registry_snapshot : Repro_obs.Registry.snapshot;
}

(* the graph peaks need the shared causal graph: rebuild the group manually
   so we hold the shared context *)
let measure_with_graph ?(engine_impl = Engine.Sequential) ?obs
    ?(gauge_period = Sim_time.ms 10)
    ?(processing_time = Sim_time.zero)
    ?(duration = Sim_time.seconds 1) ?(send_period = Sim_time.ms 10)
    ?gossip_period
    ?(stability_impl = Config.Incremental_stability)
    ?(causal_impl = Config.Vector_causal)
    ?(stability_clock = Config.Dense_clock)
    ?(pc_overlay = Config.Pc_full_mesh) ?track_graph
    ?(metrics = false) ?wire_format ?batch_window
    ~seed n =
  let parallel =
    match engine_impl with Engine.Sequential -> false | Engine.Parallel _ -> true
  in
  (* the graph peaks and telemetry gauges read group-shared state the
     parallel lanes would race on; Stack.create rejects them, so default
     them off under Parallel instead of making every caller do it *)
  let track_graph =
    match track_graph with Some b -> b | None -> not parallel
  in
  if parallel && Option.is_some obs then
    invalid_arg "Scaling.measure_with_graph: telemetry needs Sequential";
  let net =
    Net.create ~latency:(Net.Uniform (500, 5_000)) ~processing_time ()
  in
  let engine = Engine.create ~impl:engine_impl ~seed ~net () in
  let config =
    (* PC-broadcast's structural causality argument needs FIFO links: the
       helper turns this reordering (but lossless) network into exactly
       that by upgrading the bare transport to per-link sequencing. BSS is
       insensitive to reordering, so it keeps the bare baseline. *)
    Config.with_causal_impl causal_impl
      { Config.default with
        Config.ordering = Config.Causal; stability_impl;
        stability_clock; pc_overlay; track_graph; metrics;
        wire_format =
          Option.value wire_format ~default:Config.default.Config.wire_format;
        batch_window =
          Option.value batch_window
            ~default:Config.default.Config.batch_window;
        gossip_period =
          Option.value gossip_period
            ~default:Config.default.Config.gossip_period }
  in
  let pids =
    List.init n (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "p%d" i) (fun _ _ -> ()))
  in
  let view = Repro_catocs.Group.make_view ~view_id:0 pids in
  let shared = Stack.make_shared ?obs config in
  (* the Encoded wire format frames real bytes, so it needs a payload
     codec; the sweep's payloads are the sender indices *)
  let payload_codec =
    match config.Config.wire_format with
    | Config.Encoded -> Some Repro_catocs.Wire_codec.int_payload
    | Config.Structural -> None
  in
  let stacks =
    List.map
      (fun pid ->
        Stack.create ?payload_codec ~engine ~shared ~config ~view ~self:pid
          ~callbacks:Stack.null_callbacks ())
      pids
    |> Array.of_list
  in
  let peak_nodes = ref 0 and peak_arcs = ref 0 in
  let cancel_sampler =
    Engine.every engine ~period:(Sim_time.ms 10) (fun () ->
        match Stack.shared_graph shared with
        | Some graph ->
          peak_nodes := max !peak_nodes (Causality.live_nodes graph);
          peak_arcs := max !peak_arcs (Causality.live_arcs graph)
        | None -> ())
  in
  let cancel_gauges =
    match obs with
    | None -> Fun.id
    | Some _ ->
      Engine.every engine ~period:gauge_period (fun () ->
          Array.iter Stack.record_gauges stacks)
  in
  Array.iteri
    (fun i stack ->
      let cancel =
        Engine.every engine ~owner:(Stack.self stack)
          ~start:(Sim_time.us (1_000 + (i * 137)))
          ~period:send_period
          (fun () -> Stack.multicast stack i)
      in
      Engine.at engine duration cancel)
    stacks;
  Engine.at engine (Sim_time.add duration (Sim_time.ms 150)) cancel_sampler;
  Engine.at engine (Sim_time.add duration (Sim_time.ms 150)) cancel_gauges;
  Engine.run ~until:(Sim_time.add duration (Sim_time.ms 200)) engine;
  let peak_msgs = ref 0 and peak_bytes = ref 0 and system_bytes = ref 0 in
  let header_bytes = ref 0 in
  let app_deliveries = ref 0 in
  let delay = Stats.Summary.create () in
  let transit = Stats.Summary.create () in
  Array.iter
    (fun stack ->
      let m = Stack.metrics stack in
      peak_msgs := max !peak_msgs m.Metrics.peak_unstable_count;
      peak_bytes := max !peak_bytes m.Metrics.peak_unstable_bytes;
      system_bytes := !system_bytes + m.Metrics.peak_unstable_bytes;
      header_bytes := !header_bytes + m.Metrics.header_bytes;
      app_deliveries := !app_deliveries + m.Metrics.delivered;
      let mean = Metrics.mean_ordering_wait_us m in
      if not (Float.is_nan mean) then Stats.Summary.add delay mean;
      let mean_transit = Metrics.mean_transit_us m in
      if not (Float.is_nan mean_transit) then Stats.Summary.add transit mean_transit)
    stacks;
  (* per-stack registries are private to their lanes, so merging the
     snapshots after the run is parallel-safe (and, being a sorted merge of
     commutative samples, domain-count independent) *)
  let snapshot = Stack.merged_snapshot stacks in
  let counter layer name =
    Repro_obs.Registry.counter_total snapshot ~layer ~name
  in
  let pct layer name q =
    match Repro_obs.Registry.histo snapshot ~layer ~name with
    | Some h -> Repro_obs.Histo.percentile h q
    | None -> Float.nan
  in
  { group_size = n;
    peak_node_unstable_msgs = !peak_msgs;
    peak_node_unstable_bytes = !peak_bytes;
    system_unstable_bytes = !system_bytes;
    peak_graph_nodes = !peak_nodes;
    peak_graph_arcs = !peak_arcs;
    mean_delivery_delay_us = Stats.Summary.mean delay;
    mean_transit_us = Stats.Summary.mean transit;
    messages_total = Engine.messages_sent engine;
    deliveries_total = Engine.messages_delivered engine;
    app_deliveries_total = !app_deliveries;
    header_bytes_total = !header_bytes;
    forward_copies = counter Repro_obs.Event.Ordering "forward_copies";
    suppressed_copies = counter Repro_obs.Event.Ordering "suppressed_copies";
    parked_copies = counter Repro_obs.Event.Ordering "parked_copies";
    drained_copies = counter Repro_obs.Event.Ordering "drain_copies";
    encoded_wire_bytes = counter Repro_obs.Event.Transport "wire_bytes";
    wire_packets = counter Repro_obs.Event.Transport "packets";
    link_sends = counter Repro_obs.Event.Transport "link_sends";
    delivery_p50_us = pct Repro_obs.Event.Ordering "delivery_latency_us" 0.5;
    delivery_p99_us = pct Repro_obs.Event.Ordering "delivery_latency_us" 0.99;
    delivery_p999_us = pct Repro_obs.Event.Ordering "delivery_latency_us" 0.999;
    stability_lag_p50_us = pct Repro_obs.Event.Stability "stability_lag_us" 0.5;
    stability_lag_p99_us = pct Repro_obs.Event.Stability "stability_lag_us" 0.99;
    stability_lag_p999_us =
      pct Repro_obs.Event.Stability "stability_lag_us" 0.999;
    registry_snapshot = snapshot }

let sweep ?(sizes = [ 4; 8; 16; 32; 48 ]) ?(seed = 11L) ?engine_impl
    ?processing_time
    ?duration ?send_period ?gossip_period ?stability_impl
    ?causal_impl ?stability_clock ?pc_overlay ?track_graph
    ?metrics ?wire_format ?batch_window () =
  List.map
    (fun n ->
      measure_with_graph ?engine_impl ?processing_time ?duration ?send_period
        ?gossip_period ?stability_impl ?causal_impl
        ?stability_clock ?pc_overlay ?track_graph
        ?metrics ?wire_format ?batch_window ~seed n)
    sizes

let table points =
  let rows =
    List.map
      (fun p ->
        [ Table.cell_int p.group_size;
          Table.cell_int p.peak_node_unstable_msgs;
          Table.cell_int p.peak_node_unstable_bytes;
          Table.cell_int p.system_unstable_bytes;
          Table.cell_int p.peak_graph_nodes;
          Table.cell_int p.peak_graph_arcs;
          Table.cell_us_as_ms p.mean_delivery_delay_us;
          Table.cell_int p.messages_total ])
      points
  in
  let slope select =
    Table.fit_log_slope
      (List.map
         (fun p -> (float_of_int p.group_size, float_of_int (select p)))
         points)
  in
  Table.make ~id:"buffering-scaling"
    ~title:"CATOCS unstable-message buffering vs group size"
    ~paper_ref:"Section 5 (quadratic buffering growth claim)"
    ~columns:
      [ "N"; "node peak msgs"; "node peak bytes"; "system peak bytes";
        "graph nodes"; "graph arcs"; "mean delay"; "messages" ]
    ~notes:
      [ Printf.sprintf "fitted growth exponents: node bytes ~ N^%.2f, system bytes ~ N^%.2f, graph arcs ~ N^%.2f"
          (slope (fun p -> p.peak_node_unstable_bytes))
          (slope (fun p -> p.system_unstable_bytes))
          (slope (fun p -> p.peak_graph_arcs));
        "constant per-process send rate; paper predicts node ~ N (>=1), system ~ N^2" ]
    rows

let run () = table (sweep ())

(* Section 5 assumes the propagation time T is non-decreasing in system
   size; with a receiver-side processing cost per message, delivery delay
   grows with offered load (N x rate), which in turn keeps messages
   unstable longer — delay and buffering compound. *)
let loaded_table () =
  let points = sweep ~sizes:[ 4; 8; 16; 32 ] ~processing_time:(Sim_time.us 250) () in
  let rows =
    List.map
      (fun p ->
        [ Table.cell_int p.group_size;
          Table.cell_us_as_ms p.mean_transit_us;
          Table.cell_int p.peak_node_unstable_msgs;
          Table.cell_int p.peak_node_unstable_bytes ])
      points
  in
  let slope =
    Table.fit_log_slope
      (List.map
         (fun p ->
           (float_of_int p.group_size, float_of_int p.peak_node_unstable_bytes))
         points)
  in
  Table.make ~id:"scaling-under-load"
    ~title:"delivery delay and buffering with per-message processing cost"
    ~paper_ref:"Section 5 (T non-decreasing with system size)"
    ~columns:[ "N"; "mean transit"; "node peak msgs"; "node peak bytes" ]
    ~notes:
      [ "250us receiver cost per message; per-process send rate constant";
        Printf.sprintf
          "longer T keeps messages unstable longer: node buffering now fits N^%.2f"
          slope ]
    rows
