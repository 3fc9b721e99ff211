(** E6 — Section 5: CATOCS buffering growth with system size.

    A group of N members each multicasting at a fixed per-process rate; we
    measure the unstable-message buffer a single node must hold (Section
    5's claim: per-node buffering grows linearly in N, hence system-wide
    quadratically) and the size of the active causal graph. The growth
    exponents are fitted from the sweep. *)

type point = {
  group_size : int;
  peak_node_unstable_msgs : int;  (** max over members *)
  peak_node_unstable_bytes : int;
  system_unstable_bytes : int;  (** sum of per-node peaks *)
  peak_graph_nodes : int;
  peak_graph_arcs : int;
  mean_delivery_delay_us : float;
  mean_transit_us : float;
      (** end-to-end send->deliver, including receiver queueing *)
  messages_total : int;
  deliveries_total : int;
      (** engine-level deliveries across the group, including control
          traffic (gossip, acks, overlay forwards) *)
  app_deliveries_total : int;
      (** application deliver-callback invocations across the group — the
          denominator for per-delivery metadata cost *)
  header_bytes_total : int;
      (** ordering metadata transmitted, summed over members: the quantity
          whose per-delivery mean is O(group) for BSS vector timestamps and
          O(1) for PC-broadcast *)
  forward_copies : int;
      (** PC-broadcast forward-on-first-delivery copies across the group
          (zero, like every registry-derived field below, unless the run
          was created with [~metrics:true]) *)
  suppressed_copies : int;
      (** duplicate copies the hybrid layer suppressed (expected ~0 on a
          FIFO-reliable network: suppression only pays off under loss) *)
  parked_copies : int;  (** copies parked for closed overlay links *)
  drained_copies : int;  (** parked copies later drained by a Pc_pong *)
  encoded_wire_bytes : int;
      (** real frame bytes put on the wire — non-zero only under the
          [Encoded] wire format *)
  wire_packets : int;
      (** logical packets sent, counting each frame inside a batch *)
  link_sends : int;
      (** physical link events; [wire_packets /. link_sends] is the
          batching coalesce ratio (1.0 without a batch window) *)
  delivery_p50_us : float;  (** send->deliver latency percentiles ... *)
  delivery_p99_us : float;
  delivery_p999_us : float;  (** ... over every application delivery *)
  stability_lag_p50_us : float;
      (** deliver->stable lag percentiles from the stability tracker's
          registry histogram *)
  stability_lag_p99_us : float;
  stability_lag_p999_us : float;
  registry_snapshot : Repro_obs.Registry.snapshot;
      (** the merged per-stack protocol-metrics snapshot the fields above
          are read from; empty without [~metrics:true] *)
}

val measure_with_graph :
  ?engine_impl:Engine.impl ->
  ?obs:Repro_obs.Log.t ->
  ?gauge_period:Sim_time.t ->
  ?processing_time:Sim_time.t ->
  ?duration:Sim_time.t ->
  ?send_period:Sim_time.t ->
  ?gossip_period:Sim_time.t ->
  ?stability_impl:Repro_catocs.Config.stability_impl ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ?pc_overlay:Repro_catocs.Config.pc_overlay ->
  ?track_graph:bool ->
  ?metrics:bool ->
  ?wire_format:Repro_catocs.Config.wire_format ->
  ?batch_window:Sim_time.t ->
  seed:int64 ->
  int ->
  point
(** One measured run at group size [n]. With [obs], the group's stacks log
    lifecycle spans into it and every member's occupancy gauges (unstable
    msgs/bytes, queue depth, blocked count) are sampled every
    [gauge_period] (default 10 ms) — the source for the n=64 scaling trace
    export. [engine_impl] (default [Sequential]) selects the engine
    strategy; under [Parallel], [track_graph] defaults to false and [obs]
    is rejected (both are group-shared mutable state the lanes would race
    on), and [processing_time] must stay zero. [metrics] enables the
    per-stack protocol registries that feed the point's copy counters,
    wire totals and latency percentiles (registries are per-stack, so they
    stay parallel-safe; the merged snapshot is domain-count independent).
    [wire_format] and [batch_window] override the wire representation and
    transport coalescing window (see {!Repro_catocs.Config}). *)

val sweep :
  ?sizes:int list -> ?seed:int64 -> ?engine_impl:Engine.impl ->
  ?processing_time:Sim_time.t ->
  ?duration:Sim_time.t -> ?send_period:Sim_time.t ->
  ?gossip_period:Sim_time.t ->
  ?stability_impl:Repro_catocs.Config.stability_impl ->
  ?causal_impl:Repro_catocs.Config.causal_impl ->
  ?stability_clock:Repro_catocs.Config.stability_clock ->
  ?pc_overlay:Repro_catocs.Config.pc_overlay ->
  ?track_graph:bool ->
  ?metrics:bool ->
  ?wire_format:Repro_catocs.Config.wire_format ->
  ?batch_window:Sim_time.t -> unit -> point list
(** [duration] bounds the send phase (default 1 simulated second);
    [send_period] is the per-process multicast period (default 10 ms);
    [gossip_period] overrides the stability-gossip period (large sweeps
    slow it down to bound the n^2 gossip volume); [stability_impl] selects
    the stability tracker; [causal_impl] selects BSS vector timestamps or
    PC-broadcast constant metadata (PC runs switch the transport to
    [Fifo_order] and disseminate over [pc_overlay]); [track_graph] can be
    disabled to exclude shared-graph bookkeeping from throughput
    measurements. *)

val table : point list -> Table.t
(** Includes fitted log-log growth exponents in the notes. *)

val run : unit -> Table.t

val loaded_table : unit -> Table.t
(** The same sweep with a per-message receiver processing cost: delivery
    delay (the paper's T) grows with N, compounding the buffering. *)
