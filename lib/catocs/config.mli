(** Configuration of a CATOCS process group. *)

type ordering =
  | Fifo  (** per-sender FIFO multicast (FBCAST) — the non-CATOCS baseline *)
  | Causal  (** vector-clock causal multicast (CBCAST) *)
  | Total_sequencer  (** causal + sequencer-assigned total order (ABCAST) *)
  | Total_lamport  (** total order by Lamport timestamps, stability-released *)

type failure_detection =
  | Oracle
      (** the simulator notifies every observer [detection_delay] after a
          crash — the idealised, simultaneous detector *)
  | Heartbeat of { period : Sim_time.t; timeout : Sim_time.t }
      (** each member multicasts heartbeats; a peer silent for [timeout] is
          suspected. Detection is per-observer (staggered), and with
          message loss a {e live} member can be falsely suspected and
          removed — it must re-join (see {!Stack.join}). *)

type transport_mode =
  | Bare  (** raw network: no acks; suitable for lossless configurations *)
  | Fifo_order
      (** per-link sequencing and in-order reassembly without acks or
          retransmission: every (src, dst) pair behaves as a FIFO channel
          under reordering networks, but loss is not repaired. The cheap
          substrate PC-broadcast ({!causal_impl}) needs on lossless
          configurations; use [Reliable] when messages can be dropped. *)
  | Reliable of { rto : Sim_time.t; max_retries : int }
      (** positive ack + retransmission, FIFO reassembly *)

type stability_impl =
  | Incremental_stability
      (** per-sender deques released off cached matrix-clock minima,
          amortized O(newly stable) — the default
          ({!Stability.Incremental}) *)
  | Reference_stability
      (** the original full-buffer rescan on every observation
          ({!Stability.Reference}), selectable for whole-stack differential
          comparison *)

type causal_impl =
  | Vector_causal
      (** BSS causal delivery: O(group) vector timestamps piggybacked on
          every message, receiver-side buffering against the delivery
          condition — the 1993 CATOCS design the paper critiques *)
  | Pc_causal
      (** PC-broadcast (Nédelec et al., SRDS 2018): causal order from FIFO
          overlay links plus forward-on-first-delivery, so each message
          carries O(1) control information regardless of group size. Only
          affects [Causal] ordering; requires FIFO links ([Fifo_order] or
          [Reliable] transport under reordering/lossy networks). *)
  | Hybrid_causal
      (** hybrid-buffering causal delivery (Almeida 2024): the PC-broadcast
          substrate (FIFO links, O(1) metadata, forward-on-first-delivery)
          plus sender-side buffering — each member tracks, per outgoing
          link, how far the peer is known to have delivered each origin
          (learned from the copies the peer itself forwards and from
          barrier acks) and suppresses forwards the peer provably already
          has; forwards to a not-yet-acknowledged link are buffered at the
          sender and drained, filtered by the ack's delivered vector, when
          the barrier pong arrives. Topology-agnostic over the same
          {!pc_overlay}s; delivery order is identical to [Pc_causal] (the
          suppressed copies are exactly the would-be duplicates). *)

type pc_overlay =
  | Pc_full_mesh
      (** every member forwards to every other: 1-hop delivery latency,
          maximal redundancy — the configuration whose delivery behavior is
          differentially pinned against [Vector_causal] *)
  | Pc_tree of { fanout : int }
      (** deterministic [fanout]-ary spanning tree over ranks: each
          broadcast crosses each tree edge once (n-1 transmissions, like a
          direct multicast) at the price of depth-many hops; the
          configuration the large-scale sweeps use *)

type stability_clock =
  | Dense_clock
      (** one materialised [Vector_clock] row per member:
          O(group{^ 2}) words per stability tracker
          ({!Matrix_clock}) — the PR 4 cached-minima default *)
  | Sparse_clock
      (** shared-row interning: rows adopt (by reference) the immutable
          timestamp snapshots that gossip and data messages already carry,
          storing only a diagonal override, so a tracker costs O(group)
          marginal words while reporting byte-identical advances
          ({!Sparse_matrix_clock}) — what lets the scaling sweep reach
          n=4096 without the ~20 GB dense group-clock footprint *)

type wire_format =
  | Structural
      (** ship OCaml message values through the simulated network directly;
          byte accounting uses the {!Wire.header_bytes} estimates — the
          fast default for ordering/stability experiments *)
  | Encoded
      (** run every multicast through {!Wire_codec}: length-prefixed binary
          frames cross the (simulated) wire and are decoded at the
          receiver, unstable-byte gauges charge real encoded sizes, and
          same-link sends may be coalesced (see [batch_window]). Applies
          to [Bare] and [Fifo_order] transports; a [Reliable] transport
          keeps structural segments (its retransmit buffers hold values,
          not frames). *)

type t = {
  ordering : ordering;
  gossip_period : Sim_time.t;
      (** period of stability gossip; also drives Lamport-order progress *)
  transport : transport_mode;
  failure_detection : failure_detection;
  piggyback_history : bool;
      (** footnote 4 of Section 3.4: instead of delaying a dependent
          message at the receiver, append the sender's unstable causal
          predecessors to it so the receiver can fill its own gaps — at the
          price of (significantly) larger messages *)
  payload_bytes : int;  (** default accounting size of one payload *)
  track_graph : bool;
      (** maintain the shared active-causal-graph (Section 5 metrics);
          costs memory at large scale *)
  stability_impl : stability_impl;
      (** stability-tracker implementation selector *)
  causal_impl : causal_impl;
      (** causal-delivery implementation selector (BSS vs PC-broadcast) *)
  pc_overlay : pc_overlay;
      (** dissemination overlay used when [causal_impl] is [Pc_causal] or
          [Hybrid_causal] *)
  stability_clock : stability_clock;
      (** matrix-clock representation used by stability tracking *)
  wire_format : wire_format;
      (** message representation on the simulated wire *)
  batch_window : Sim_time.t;
      (** transport-level coalescing window: frames bound for the same
          destination within one window leave as a single batched packet
          ([Sim_time.zero] — the default — sends each frame immediately).
          Requires [wire_format = Encoded] and a non-[Reliable] transport;
          trades up to one window of added latency for per-packet
          overhead. *)
  metrics : bool;
      (** enable the per-stack {!Repro_obs.Registry} (protocol counters,
          gauges and latency histograms). Off — the default — hands every
          instrumentation point a scrap cell, keeping the hot path inside
          the <2% disabled-observability envelope the bench gates. *)
}

val default : t
(** Causal ordering, 20ms gossip, bare transport, oracle failure detection,
    256-byte payloads, graph tracking on, BSS causal delivery over a full
    mesh. *)

val ordering_name : ordering -> string

val causal_impl_name : causal_impl -> string
(** ["bss"], ["pc"] or ["hybrid"] — the labels benches and CLIs use. *)

val stability_clock_name : stability_clock -> string
(** ["dense"] or ["sparse"]. *)

val wire_format_name : wire_format -> string
(** ["structural"] or ["encoded"]. *)

val pc_active : t -> bool
(** True when this configuration runs a PC-style causal layer ([Pc_causal]
    or [Hybrid_causal]) under [ordering = Causal]. *)

val hybrid_active : t -> bool
(** True when the hybrid-buffering refinements (delivered-knowledge
    suppression + closed-link sender buffers) are on top of the PC layer:
    [causal_impl = Hybrid_causal] and [ordering = Causal]. *)

val with_causal_impl : causal_impl -> t -> t
(** Select the causal implementation, upgrading a [Bare] transport to
    [Fifo_order] when PC-broadcast or hybrid buffering is chosen — their
    causality argument needs FIFO links, and a [Reliable] transport already
    provides them. *)
