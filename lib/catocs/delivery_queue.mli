(** The causal/FIFO delay queue: holds received multicasts until their
    delivery condition against the local vector clock is satisfied.

    This is the queue whose occupancy embodies "false causality delay"
    (Section 3.4): a message sits here exactly when some message ordered
    before it by happens-before has not yet arrived. Pure data structure —
    no engine dependency — so invariants are property-testable.

    One list in arrival order: {!take_deliverable} scans it and returns
    the oldest arrival whose condition holds. The queue holds only the
    messages the condition blocks (under 5% loss at n=32, a mean depth of
    about 13 and a peak of 148), and at such depths the scan costs less
    per delivery than a per-sender index over the same entries. *)

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

val create : ?obs:Repro_obs.Log.t * int -> mode -> 'a t
(** [obs] is the telemetry log plus the owning process id: every {!add}
    then emits an [Obs.Event.Span_queued] record stamped with the message's
    arrival time. *)

val add : 'a t -> 'a pending -> unit

val length : 'a t -> int
(** O(pending): a walk of the list. Its callers are the periodic gauge
    samplers, and the list is short. *)

val take_deliverable : 'a t -> local:Vector_clock.t -> 'a pending option
(** Remove and return one message whose delivery condition holds, oldest
    arrival first among candidates (deterministic). The caller must merge the
    message's timestamp into [local] before calling again. *)

val drain : 'a t -> 'a pending list
(** Remove and return everything, in arrival order (used when discarding at
    view change). *)

val to_list : 'a t -> 'a pending list
(** Current contents in arrival order, without removing. *)
