type ordering = Fifo | Causal | Total_sequencer | Total_lamport

type failure_detection =
  | Oracle
  | Heartbeat of { period : Sim_time.t; timeout : Sim_time.t }

type transport_mode =
  | Bare
  | Fifo_order
  | Reliable of { rto : Sim_time.t; max_retries : int }

type stability_impl = Incremental_stability | Reference_stability

type causal_impl = Vector_causal | Pc_causal | Hybrid_causal

type pc_overlay = Pc_full_mesh | Pc_tree of { fanout : int }

type stability_clock = Dense_clock | Sparse_clock

type wire_format = Structural | Encoded

type t = {
  ordering : ordering;
  gossip_period : Sim_time.t;
  transport : transport_mode;
  failure_detection : failure_detection;
  piggyback_history : bool;
  payload_bytes : int;
  track_graph : bool;
  stability_impl : stability_impl;
  causal_impl : causal_impl;
  pc_overlay : pc_overlay;
  stability_clock : stability_clock;
  wire_format : wire_format;
  batch_window : Sim_time.t;
  metrics : bool;
      (* enable the per-stack [Repro_obs.Registry]; off by default so the
         production path pays only scrap-cell stores (bench obs_overhead
         gates the disabled path under 2%) *)
}

let default =
  { ordering = Causal; gossip_period = Sim_time.ms 20; transport = Bare;
    failure_detection = Oracle; piggyback_history = false;
    payload_bytes = 256; track_graph = true;
    stability_impl = Incremental_stability; causal_impl = Vector_causal;
    pc_overlay = Pc_full_mesh; stability_clock = Dense_clock;
    wire_format = Structural; batch_window = Sim_time.zero; metrics = false }

let ordering_name = function
  | Fifo -> "fifo"
  | Causal -> "causal"
  | Total_sequencer -> "total-seq"
  | Total_lamport -> "total-lamport"

let causal_impl_name = function
  | Vector_causal -> "bss"
  | Pc_causal -> "pc"
  | Hybrid_causal -> "hybrid"

let stability_clock_name = function
  | Dense_clock -> "dense"
  | Sparse_clock -> "sparse"

let wire_format_name = function
  | Structural -> "structural"
  | Encoded -> "encoded"

(* PC-broadcast and its hybrid-buffering refinement are causal-layer
   replacements: they only change how the [Causal] ordering is achieved.
   The total-order modes keep their vector-timestamp causal substrate. *)
let pc_active t =
  (match t.causal_impl with
   | Pc_causal | Hybrid_causal -> true
   | Vector_causal -> false)
  && t.ordering = Causal

let hybrid_active t = t.causal_impl = Hybrid_causal && t.ordering = Causal

let with_causal_impl causal_impl t =
  { t with causal_impl;
    transport =
      (match (causal_impl, t.transport) with
       | (Pc_causal | Hybrid_causal), Bare -> Fifo_order
       | (Pc_causal | Hybrid_causal | Vector_causal), _ -> t.transport) }
