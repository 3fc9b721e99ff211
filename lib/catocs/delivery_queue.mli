(** The causal/FIFO delay queue: holds received multicasts until their
    delivery condition against the local vector clock is satisfied.

    This is the queue whose occupancy embodies "false causality delay"
    (Section 3.4): a message sits here exactly when some message ordered
    before it by happens-before has not yet arrived. Pure data structure —
    no engine dependency — so invariants are property-testable.

    Two interchangeable implementations live behind one dispatch type:

    - {!Indexed} (the default): per-sender rings of sequence-number slots
      plus a ready-candidate heap and a blocked-on-component index, giving
      O(log senders) amortized pops. Every delivery condition pins a
      message's sequence number to [local(sender) + 1], so each sender has
      at most one candidate slot at any instant.
    - {!Reference}: the original single pending list, rescanned in full on
      every take — O(pending) per operation, kept as the differential-
      testing baseline (see the qcheck equivalence property and the
      reference checker sweeps in [test/]).

    Both produce byte-identical delivery sequences: among all currently
    deliverable messages, the oldest arrival is returned first. *)

type mode =
  | Fifo_gap  (** deliver when [vt(sender) = local(sender) + 1] only *)
  | Causal_full  (** full Birman-Schiper-Stephenson condition *)
  | Origin_gap
      (** deliver when [Wire.sender_seq data = local(sender) + 1]: the
          {!Fifo_gap} condition keyed on a PC/hybrid record's
          [origin_seq] instead of its stamp, so the record's [vt] is never
          read (a decoded PC copy carries no components). The PC-broadcast
          stack's mode; on records whose [vt(sender)] equals their
          [origin_seq] it delivers exactly like {!Fifo_gap}. *)

type 'a pending = { data : 'a Wire.data; arrived_at : Sim_time.t }

type 'a t

val chaos_disable_causal_check : bool ref
(** Test-only fault hook: while [true], [Causal_full] queues enforce only
    the per-sender FIFO gap and ignore cross-sender dependencies — i.e. the
    Birman-Schiper-Stephenson condition is deliberately broken. Exists so
    the schedule-exploration checker ([lib/check]) can prove its causal
    oracle detects a buggy delivery condition. Never set outside tests. *)

type impl = Indexed | Reference

val create : ?impl:impl -> ?obs:Repro_obs.Log.t * int -> mode -> 'a t
(** [impl] defaults to [Indexed]. [obs] is the telemetry log plus the
    owning process id: every {!add} then emits an [Obs.Event.Span_queued]
    record stamped with the message's arrival time. *)

val impl_of : 'a t -> impl

val add : 'a t -> 'a pending -> unit

val length : 'a t -> int
(** O(1): a maintained counter, not a walk (sampled in metrics loops). *)

val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
(** Remove and return one message whose delivery condition holds, oldest
    arrival first among candidates (deterministic). The caller must merge the
    message's timestamp into [local] before calling again. *)

val drain : 'a t -> 'a pending list
(** Remove and return everything, in arrival order (used when discarding at
    view change). *)

val to_list : 'a t -> 'a pending list
(** Current contents in arrival order, without removing. *)

(** The two concrete implementations, exposed for direct micro-benchmarks
    and differential tests (no dispatch overhead). *)
module Reference : sig
  type 'a t

  val create : mode -> 'a t
  val add : 'a t -> 'a pending -> unit
  val length : 'a t -> int
  val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
  val drain : 'a t -> 'a pending list
  val to_list : 'a t -> 'a pending list
end

module Indexed : sig
  type 'a t

  val create : mode -> 'a t
  val add : 'a t -> 'a pending -> unit
  val length : 'a t -> int
  val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
  val drain : 'a t -> 'a pending list
  val to_list : 'a t -> 'a pending list
end
