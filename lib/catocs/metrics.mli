(** Per-member protocol metrics: exact, always-on counters.

    These quantify exactly what Sections 3.4 and 5 of the paper argue about:
    delivery delay (including false-causality delay), buffering for
    unstable messages, per-message ordering-header overhead, control traffic,
    and send suppression during view changes. Latency distributions live
    in the stack's registry ({!Config.metrics}); this record keeps exact
    totals, so means are [total / delivered]. *)

type t = {
  mutable multicasts_sent : int;
  mutable delivered : int;
  mutable ordering_wait_total_us : int;
      (** sum over deliveries of receive -> deliver: time spent blocked in
          ordering queues *)
  mutable transit_total_us : int;
      (** sum over deliveries of send -> deliver, end to end *)
  mutable delayed_messages : int;
      (** messages that had to wait in an ordering queue *)
  mutable unstable_bytes : int;
  mutable unstable_count : int;
  mutable peak_unstable_bytes : int;
  mutable peak_unstable_count : int;
  mutable control_messages : int;  (** gossip, sequencer orders, flush *)
  mutable flush_messages : int;
      (** the view-change subset of control messages *)
  mutable header_bytes : int;  (** cumulative ordering headers sent *)
  mutable dropped_at_view_change : int;
      (** undeliverable messages discarded on view install: the atomicity /
          durability gap of Section 2 *)
  mutable suppressed_us : int;  (** total send-suppression time in flushes *)
  mutable view_changes : int;
}

val create : unit -> t

val mean_ordering_wait_us : t -> float
(** [ordering_wait_total_us / delivered]; [nan] before the first delivery. *)

val mean_transit_us : t -> float
(** [transit_total_us / delivered]; [nan] before the first delivery. *)

val note_unstable_added : t -> bytes:int -> unit
val note_unstable_removed : t -> bytes:int -> unit

val merge_into : t -> t -> unit
(** [merge_into acc m] accumulates counters into [acc]: sums counts, bytes
    and latency totals, and keeps peak maxima. [m] is left unmodified. *)
